"""Scalar reverse-mode automatic differentiation on an append-only tape.

Every operation appends one node to the tape; node indices are therefore
already in topological order and a single reverse sweep computes adjoints.
A node may have any number of parents: :meth:`Tape.node` records one value
with its local partials. Every derived node, ``Var``'s arithmetic
operators included, enters the tape through :func:`lift`, which takes a
value computed on plain floats with its partials, and returns the float
unchanged when no operand is a ``Var``; only :meth:`Tape.var` and
:meth:`Tape.node` append to a tape. The primitives here, the smoothed
extrema and the geometry kernels, one node each over the poses they read
(:func:`polystl.geometry.lift_onto_poses`), are built on it, so the same
code runs in recorded or plain float mode with identical arithmetic.
"""
from __future__ import annotations

import math
from typing import Sequence, Union

SQRT_GUARD = 1e-12

_ONE2 = (1.0, 1.0)
_NEG1 = (-1.0,)
_EMPTY = ()

Scalar = Union["Var", float]


class EvaluationError(ValueError):
    """Domain violation inside a tape primitive."""


class Tape:
    """Append-only record of scalar operations.

    Parallel lists hold per-node state: ``val`` (result), ``par`` (parent
    node indices) and ``dpar`` (local partial derivatives w.r.t. parents).
    """

    __slots__ = ("val", "par", "dpar")

    def __init__(self) -> None:
        self.val: list[float] = []
        self.par: list[tuple] = []
        self.dpar: list[tuple] = []

    def __len__(self) -> int:
        return len(self.val)

    def var(self, value: float) -> "Var":
        """Append a leaf node (an input that gradients are taken against)."""
        v = float(value)
        if not math.isfinite(v):
            raise EvaluationError(f"var: non-finite leaf value {value!r} at node {len(self.val)}")
        self.val.append(v)
        self.par.append(_EMPTY)
        self.dpar.append(_EMPTY)
        return Var(self, len(self.val) - 1)

    def node(self, value: float, parents: Sequence["Var"], partials: Sequence[float],
             op: str = "node") -> "Var":
        """Append one node holding ``value`` whose partial derivative with
        respect to ``parents[k]`` is ``partials[k]``. A parent may repeat;
        its adjoint then accumulates every entry. All parents must live on
        this tape."""
        for p in parents:
            if p.tape is not self:
                raise EvaluationError(f"{op}: operands live on different tapes")
        self.val.append(value)
        self.par.append(tuple(p.i for p in parents))
        self.dpar.append(tuple(partials))
        return Var(self, len(self.val) - 1)


class Var:
    """Handle to one tape node; supports arithmetic against Vars and floats."""

    __slots__ = ("tape", "i")

    def __init__(self, tape: Tape, i: int) -> None:
        self.tape = tape
        self.i = i

    @property
    def value(self) -> float:
        return self.tape.val[self.i]

    def __repr__(self) -> str:
        return f"Var(node={self.i}, value={self.tape.val[self.i]!r})"

    # -- arithmetic: each operator is one lift ---------------------------

    def __add__(self, other):
        return lift(self.value + value_of(other), (self, other), _ONE2, "add")

    __radd__ = __add__

    def __sub__(self, other):
        return lift(self.value - value_of(other), (self, other), (1.0, -1.0), "sub")

    def __rsub__(self, other):
        return lift(other - self.value, (self,), _NEG1, "sub")

    def __mul__(self, other):
        a, b = self.value, value_of(other)
        return lift(a * b, (self, other), (b, a), "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self.value, value_of(other)
        if b == 0.0:
            raise EvaluationError(f"div: zero denominator at node {len(self.tape)}")
        if not isinstance(other, Var):   # no partial in b, whose b * b may underflow
            return lift(a / b, (self,), (1.0 / b,), "div")
        return lift(a / b, (self, other), (1.0 / b, -a / (b * b)), "div")

    def __rtruediv__(self, other):
        b = self.value
        if b == 0.0:
            raise EvaluationError(f"div: zero denominator at node {len(self.tape)}")
        return lift(other / b, (self,), (-other / (b * b),), "div")

    def __neg__(self):
        return lift(-self.value, (self,), _NEG1, "neg")


def value_of(x: Scalar) -> float:
    """Plain float behind a scalar, whichever mode it is in."""
    return x.value if isinstance(x, Var) else float(x)


def lift(value: float, operands: Sequence[Scalar], partials: Sequence[float],
         op: str = "node") -> Scalar:
    """``value``, computed on the floats behind ``operands``, as a scalar of
    their mode: the float itself when no operand is a ``Var``, else one
    tape node whose parents are the ``Var`` operands, each with its entry
    of ``partials`` (the partial derivative of ``value`` with respect to
    that operand). Float operands and their partials are dropped."""
    parents = [x for x in operands if isinstance(x, Var)]
    if not parents:
        return value
    if len(parents) < len(operands):
        partials = [g for x, g in zip(operands, partials) if isinstance(x, Var)]
    return parents[0].tape.node(value, parents, partials, op)


# -- primitives (Var or float in, same kind out) -------------------------


def square(x: Scalar) -> Scalar:
    v = value_of(x)
    return lift(v * v, (x,), (2.0 * v,), "square")


def relu(x: Scalar) -> Scalar:
    """max(0, x); subgradient 0 at the kink. NaN passes through, so a
    non-finite input stays visible downstream."""
    v = value_of(x)
    if v <= 0.0:
        return lift(0.0, (x,), (0.0,), "relu")
    return lift(v, (x,), (1.0,), "relu")


def sigmoid(x: Scalar) -> Scalar:
    v = value_of(x)
    # split by sign for overflow safety
    if v >= 0.0:
        s = 1.0 / (1.0 + math.exp(-v))
    else:
        e = math.exp(v)
        s = e / (1.0 + e)
    return lift(s, (x,), (s * (1.0 - s),), "sigmoid")


def abs_smooth(x: Scalar) -> Scalar:
    """sqrt(x^2 + guard): differentiable surrogate for |x|."""
    v = value_of(x)
    r = math.sqrt(v * v + SQRT_GUARD)
    return lift(r, (x,), (v / r,), "abs_smooth")


def sin(x: Scalar) -> Scalar:
    v = value_of(x)
    return lift(math.sin(v), (x,), (math.cos(v),), "sin")


def cos(x: Scalar) -> Scalar:
    v = value_of(x)
    return lift(math.cos(v), (x,), (-math.sin(v),), "cos")


_TWO_PI = 2.0 * math.pi


def wrap_angle(x: Scalar) -> Scalar:
    """Map an angle into (-pi, pi]; derivative 1 (the shift is locally constant)."""
    v = value_of(x)
    return lift(v - _TWO_PI * math.ceil((v - math.pi) / _TWO_PI), (x,), (1.0,), "wrap_angle")


def atan2(y: Scalar, x: Scalar) -> Scalar:
    yv = value_of(y)
    xv = value_of(x)
    r2 = xv * xv + yv * yv
    if r2 == 0.0:
        raise EvaluationError("atan2: both arguments zero")
    return lift(math.atan2(yv, xv), (y, x), (xv / r2, -yv / r2), "atan2")


# -- smoothed extrema ----------------------------------------------------

# A term of a soft extremum over N terms that lies more than
# cull_width(tau, N) = tau * (CULL_GAP + log N) past the extreme term weighs
# less than e^-CULL_GAP / N of it, so together such terms move the value by
# less than tau * e^-CULL_GAP, about tau * 6e-19: below half an ulp of the
# weight sum (which is >= 1), so double precision cannot see them. The
# screened windows and the margin ascent leave them out. A fixed constant,
# not a knob.
CULL_GAP = 42.0


def cull_width(tau: float, n: int) -> float:
    """How far past the extreme term of an ``n``-term soft extremum at
    temperature ``tau`` a term may lie and still carry weight."""
    return tau * (CULL_GAP + math.log(n))


def lse_parts(vals: Sequence[float], tau: float, sign: float) -> tuple[float, list[float], float]:
    """Float core of :func:`lse_max` (``sign`` 1) and :func:`lse_min`
    (``sign`` -1) over plain floats: the value, the shifted exponentials
    ``w`` and their sum ``s``. The partial with respect to ``vals[i]`` is
    ``w[i] / s``. No argument checks."""
    if sign < 0.0:
        vals = [-v for v in vals]
    m = max(vals)
    ws = [math.exp((v - m) / tau) for v in vals]
    s = math.fsum(ws)
    return sign * (m + tau * math.log(s)), ws, s


def _lse(xs: Sequence[Scalar], tau: float, sign: float, op: str) -> Scalar:
    if tau <= 0.0:
        raise EvaluationError(f"{op}: temperature must be positive, got {tau!r}")
    if not xs:
        raise EvaluationError(f"{op}: empty input")
    out, ws, s = lse_parts([x.tape.val[x.i] if isinstance(x, Var) else x for x in xs],
                           tau, sign)
    return lift(out, xs, [w / s for w in ws], op)


def lse_max(xs: Sequence[Scalar], tau: float) -> Scalar:
    """Smoothed maximum tau*log(sum(exp(x_i/tau))), evaluated with a max
    shift for overflow safety.

    Bounds: max(x) <= lse_max(x) <= max(x) + tau*log(len(x)); recorded as a
    single tape node with softmax partials.
    """
    return _lse(xs, tau, 1.0, "lse_max")


def lse_min(xs: Sequence[Scalar], tau: float) -> Scalar:
    """Smoothed minimum, -lse_max(-x); satisfies the mirrored bounds
    min(x) - tau*log(len(x)) <= lse_min(x) <= min(x)."""
    return _lse(xs, tau, -1.0, "lse_min")


# -- reverse sweep -------------------------------------------------------


class Gradients:
    """Adjoints from one reverse sweep, indexed by tape node."""

    __slots__ = ("adjoints",)

    def __init__(self, adjoints: list[float]) -> None:
        self.adjoints = adjoints

    def wrt(self, x: Var) -> float:
        """Adjoint of a node; 0 for nodes recorded after the swept output."""
        if x.i < len(self.adjoints):
            return self.adjoints[x.i]
        return 0.0


def backward(output: Var) -> Gradients:
    """Single reverse sweep from ``output``; returns adjoints for every node
    at or before it. Deterministic: identical tapes give bit-identical
    adjoints."""
    t = output.tape
    n = output.i + 1
    adj = [0.0] * n
    adj[output.i] = 1.0
    par = t.par
    dpar = t.dpar
    for i in range(output.i, -1, -1):
        a = adj[i]
        if a == 0.0:
            continue
        ps = par[i]
        if not ps:
            continue
        ds = dpar[i]
        for k in range(len(ps)):
            adj[ps[k]] += a * ds[k]
    return Gradients(adj)

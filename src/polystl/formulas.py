"""Temporal logic over spatial predicates: syntax, parsing, and robustness.

Formulas follow the grammar

    formula : until
    until   : disj [ "U" "[" int "," int "]" disj ]
    disj    : conj { "|" conj }
    conj    : unary { "&" unary }
    unary   : "!" unary
            | ("G" | "F") "[" int "," int "]" unary
            | "(" formula ")"
            | atom
    atom    : name "(" obj {"," obj} ";" num {"," num} ")"

Robustness is the usual quantitative semantics: conjunction is min,
disjunction max, G min over its window, F max, and U max over the release
instant of the min between the releasing operand there and the held
operand up to it. Smooth mode swaps every hard min/max for its
log-sum-exp relaxation at one shared temperature.

A smooth pass can lean on an exact pass over the same trajectory (see
``Evaluator``): each atom's exact value at a step, moved by the atom's
proved gap (``predicates.smooth_gaps``), bounds its smooth value there. A
``G`` window over an atom then evaluates first the step with the lowest
bound, whose smooth value v* bounds the soft-min from above, and leaves
out every step whose bound exceeds v* + tau*(CULL_GAP + log N)
(``autodiff.cull_width``): such a term weighs less than e^-CULL_GAP / N of
the largest, and all of them together add less than e^-CULL_GAP to a
weight sum of at least 1, below half an ulp of it. ``F`` is the mirror
case with upper bounds.

An exact pass can in turn start from the one before it over a trajectory
that moved a little (see ``Evaluator``'s ``prior``): each atom's last
value, widened by how far its operands moved, is an interval around its
value now. A window's min is decided by the steps that could hold it, so
a ``G`` window over the atom evaluates only the steps whose lower bound
does not exceed the minimum found, and gets the same float.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from . import autodiff as ad
from .autodiff import Scalar, value_of
from .geometry import SmoothingConfig
from .predicates import (ARITY, MOTION_BOUNDED, MOTION_ROUNDING, PARAM_ORDER, PredicateKind,
                         PredicateParams, Scene, atom_robustness, displacement,
                         smooth_gaps)


class FormulaError(ValueError):
    """Parse error or ill-formed formula; carries position info when parsed."""


# -- abstract syntax -----------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    kind: PredicateKind
    objects: tuple[str, ...]
    params: PredicateParams

    def __post_init__(self):
        if len(self.objects) != ARITY[self.kind]:
            raise FormulaError(
                f"{self.kind.value}: expected {ARITY[self.kind]} objects, got {len(self.objects)}")


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    children: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["Formula", ...]


def _check_window(lo: int, hi: int, op: str):
    if lo < 0 or hi < 0 or lo > hi:
        raise FormulaError(f"{op}: window [{lo},{hi}] must satisfy 0 <= lo <= hi")


@dataclass(frozen=True)
class Always:
    lo: int
    hi: int
    child: "Formula"

    def __post_init__(self):
        _check_window(self.lo, self.hi, "G")


@dataclass(frozen=True)
class Eventually:
    lo: int
    hi: int
    child: "Formula"

    def __post_init__(self):
        _check_window(self.lo, self.hi, "F")


@dataclass(frozen=True)
class Until:
    lo: int
    hi: int
    left: "Formula"
    right: "Formula"

    def __post_init__(self):
        _check_window(self.lo, self.hi, "U")


Formula = Union[Atom, Not, And, Or, Always, Eventually, Until]


# -- surface syntax --------------------------------------------------------------

_KIND_BY_NAME = {k.value: k for k in PredicateKind}
_RESERVED = {"G", "F", "U"}
MAX_NESTING = 100   # bounds the recursion of the parser and of the evaluators


class _Tokenizer:
    PUNCT = "()[],;&|!"

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []  # (kind, text, offset)
        self._scan()
        self.index = 0
        self.depth = 0

    def _scan(self):
        text = self.text
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in self.PUNCT:
                self.tokens.append(("punct", ch, i))
                i += 1
                continue
            if ch.isdigit() or ch in "+-." and i + 1 < n and (text[i + 1].isdigit() or text[i + 1] == "."):
                j = i + 1
                while j < n and (text[j].isdigit() or text[j] in ".eE"
                                 or (text[j] in "+-" and text[j - 1] in "eE")):
                    j += 1
                self.tokens.append(("number", text[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[i:j], i))
                i = j
                continue
            raise FormulaError(f"unexpected character {ch!r} at offset {i}")
        self.tokens.append(("eof", "", n))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def pop(self, kind: Optional[str] = None, text: Optional[str] = None) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        if kind is not None and tok[0] != kind:
            raise FormulaError(f"expected {kind} at offset {tok[2]}, found {tok[1]!r}")
        if text is not None and tok[1] != text:
            raise FormulaError(f"expected {text!r} at offset {tok[2]}, found {tok[1]!r}")
        self.index += 1
        return tok


def parse(text: str) -> Formula:
    """Parse surface syntax into a Formula; raises FormulaError with an
    offset on malformed input."""
    tz = _Tokenizer(text)
    formula = _parse_until(tz)
    tok = tz.peek()
    if tok[0] != "eof":
        raise FormulaError(f"trailing input at offset {tok[2]}: {tok[1]!r}")
    return formula


def _parse_until(tz: _Tokenizer) -> Formula:
    left = _parse_or(tz)
    kind, text, _ = tz.peek()
    if kind == "name" and text == "U":
        tz.pop()
        lo, hi = _parse_window(tz, "U")
        right = _parse_or(tz)
        return Until(lo, hi, left, right)
    return left


def _parse_or(tz: _Tokenizer) -> Formula:
    children = [_parse_and(tz)]
    while tz.peek()[1] == "|":
        tz.pop()
        children.append(_parse_and(tz))
    return children[0] if len(children) == 1 else Or(tuple(children))


def _parse_and(tz: _Tokenizer) -> Formula:
    children = [_parse_unary(tz)]
    while tz.peek()[1] == "&":
        tz.pop()
        children.append(_parse_unary(tz))
    return children[0] if len(children) == 1 else And(tuple(children))


def _parse_window(tz: _Tokenizer, op: str) -> tuple[int, int]:
    tz.pop("punct", "[")
    lo_tok = tz.pop("number")
    tz.pop("punct", ",")
    hi_tok = tz.pop("number")
    tz.pop("punct", "]")
    try:
        lo, hi = int(lo_tok[1]), int(hi_tok[1])
    except ValueError:
        raise FormulaError(f"{op}: window bounds must be integers, "
                           f"got [{lo_tok[1]},{hi_tok[1]}] at offset {lo_tok[2]}") from None
    _check_window(lo, hi, op)
    return lo, hi


def _parse_unary(tz: _Tokenizer) -> Formula:
    # every level of nesting (!, G, F, parentheses) passes through here
    tz.depth += 1
    if tz.depth > MAX_NESTING:
        raise FormulaError(f"formula nests deeper than {MAX_NESTING} levels "
                           f"at offset {tz.peek()[2]}")
    formula = _parse_primary(tz)
    tz.depth -= 1
    return formula


def _parse_primary(tz: _Tokenizer) -> Formula:
    kind, text, offset = tz.peek()
    if text == "!":
        tz.pop()
        return Not(_parse_unary(tz))
    if text == "(":
        tz.pop()
        inner = _parse_until(tz)
        tz.pop("punct", ")")
        return inner
    if kind == "name" and text in ("G", "F"):
        tz.pop()
        lo, hi = _parse_window(tz, text)
        child = _parse_unary(tz)
        return Always(lo, hi, child) if text == "G" else Eventually(lo, hi, child)
    if kind == "name":
        return _parse_atom(tz)
    raise FormulaError(f"expected a formula at offset {offset}, found {text!r}")


def _parse_atom(tz: _Tokenizer) -> Atom:
    name_tok = tz.pop("name")
    name = name_tok[1]
    if name in _RESERVED:
        raise FormulaError(f"{name} is a temporal operator, not a predicate "
                           f"(offset {name_tok[2]})")
    pred = _KIND_BY_NAME.get(name)
    if pred is None:
        raise FormulaError(f"unknown predicate {name!r} at offset {name_tok[2]}")
    tz.pop("punct", "(")
    objects = [tz.pop("name")[1]]
    while tz.peek()[1] == ",":
        tz.pop()
        objects.append(tz.pop("name")[1])
    tz.pop("punct", ";")
    values = [_parse_number(tz)]
    while tz.peek()[1] == ",":
        tz.pop()
        values.append(_parse_number(tz))
    tz.pop("punct", ")")
    if len(objects) != ARITY[pred]:
        raise FormulaError(f"{name}: expected {ARITY[pred]} objects, got {len(objects)} "
                           f"(offset {name_tok[2]})")
    try:
        params = PredicateParams.for_kind(pred, values)
    except ValueError as exc:
        raise FormulaError(f"{exc} (offset {name_tok[2]})") from None
    return Atom(pred, tuple(objects), params)


def _parse_number(tz: _Tokenizer) -> float:
    _, text, offset = tz.pop("number")
    try:
        value = float(text)
    except ValueError:
        raise FormulaError(f"malformed number {text!r} at offset {offset}") from None
    if not math.isfinite(value):
        raise FormulaError(f"non-finite number {text!r} at offset {offset}")
    return value


def to_text(formula: Formula) -> str:
    """Canonical surface form; parse(to_text(f)) reproduces f."""
    if isinstance(formula, Atom):
        objs = ", ".join(formula.objects)
        vals = ", ".join(repr(getattr(formula.params, name))
                         for name in PARAM_ORDER[formula.kind])
        return f"{formula.kind.value}({objs}; {vals})"
    if isinstance(formula, Not):
        return f"!{_wrap(formula.child)}"
    if isinstance(formula, And):
        return " & ".join(_wrap(c, inside_and=True) for c in formula.children)
    if isinstance(formula, Or):
        return " | ".join(_wrap(c) for c in formula.children)
    if isinstance(formula, Always):
        return f"G[{formula.lo},{formula.hi}]{_wrap(formula.child)}"
    if isinstance(formula, Eventually):
        return f"F[{formula.lo},{formula.hi}]{_wrap(formula.child)}"
    if isinstance(formula, Until):
        return f"{_wrap(formula.left)} U[{formula.lo},{formula.hi}] {_wrap(formula.right)}"
    raise FormulaError(f"not a formula: {formula!r}")


def _wrap(f: Formula, inside_and: bool = False) -> str:
    needs = isinstance(f, (Or, Until)) or (inside_and and isinstance(f, Or))
    if isinstance(f, And):
        needs = True
    text = to_text(f)
    return f"({text})" if needs else text


# -- trajectories ------------------------------------------------------------------


@dataclass
class Trajectory:
    """Scenes sampled at unit steps t = 0..len-1."""
    scenes: list[Scene]

    def __post_init__(self):
        if not self.scenes:
            raise FormulaError("trajectory must contain at least one scene")

    @property
    def horizon(self) -> int:
        return len(self.scenes) - 1

    def scene(self, t: int) -> Scene:
        return self.scenes[t]


@dataclass
class RobustnessResult:
    """Robustness value at the anchor time.

    value: robustness at the anchor time as a plain float.
    node: tape node carrying the value in smooth mode (None when the scene
        held no tape variables or in exact mode).
    """
    value: float
    node: Optional[ad.Var]

    @property
    def satisfied(self) -> bool:
        """Strict satisfaction; a robustness of exactly 0 does not count."""
        return self.value > 0.0


def _window(t: int, lo: int, hi: int, horizon: int, op: str) -> range:
    start = t + lo
    stop = t + hi
    clipped_start = max(start, 0)
    clipped_stop = min(stop, horizon)
    if clipped_start > clipped_stop:
        raise FormulaError(
            f"{op}[{lo},{hi}] anchored at t={t}: window empty after clipping to [0,{horizon}]")
    return range(clipped_start, clipped_stop + 1)


class Evaluator:
    """Robustness of any formula at any anchor over one trajectory, in one
    mode.

    Values are memoized per (subformula, step) for the evaluator's
    lifetime, so re-anchoring a formula, or evaluating formulas that share
    atoms, evaluates no atom at a step twice. Each node seen gets a table
    of values by step, found by the node's id; the evaluator keeps a
    reference to every such node, so its id cannot be reused by a formula
    built later. Equal atoms share one table.

    A smooth evaluator may take an exact partner over the same
    ``Trajectory`` object, so the partner's values are those of the very
    scenes it screens. For a ``G`` window over an atom, the partner's value
    at step u less the atom's ``below`` gap is a lower bound L_u on the
    smooth value there. The step with the smallest L_u is evaluated first;
    with v* its smooth value, the steps with L_u > v* + tau*(CULL_GAP +
    log N), N the window length, are left out of the soft-min, because v* bounds its minimum term from above and each
    such term weighs less than e^-CULL_GAP / N of it. ``F`` mirrors this
    with upper bounds (the ``above`` gap). The soft extrema add their
    weights with ``math.fsum``, which rounds once, so the value is the
    unscreened one unless the weight sum lies within e^-CULL_GAP of a
    rounding boundary. An infinite gap, no partner, a child that is not an
    atom or a bound that is not finite leaves every step in. A left-out
    step is not in the child's table; ``eval`` computes it on demand.
    The partner may hold intervals instead of values (``bounds``); a step
    whose interval straddles the cut, or could tie the first step, is
    evaluated exactly, so the kept steps are those exact values give.

    An exact evaluator may take a ``prior``: the exact evaluator of the
    same formulas over an earlier trajectory of the same length, such as
    the last ``optimize`` iterate. Its values and intervals are carried
    over as intervals (``_carry``) and the prior is not kept. A ``G``
    window over an atom with intervals evaluates its steps in ascending
    order of lower bound and stops once the next bound lies strictly above
    the minimum found, so every step that could equal the minimum is
    evaluated and the hard min picks the same element; ``F`` mirrors this
    with upper bounds.

    The atom leaf, negation and the extremes are the hooks ``_atom``,
    ``_neg``, ``_min`` and ``_max``; ``_Budgets`` swaps them to bound the
    smoothing error over the same traversal, reading the per-step atom
    gaps (``_gaps``) that the screened windows memoized.
    """

    def __init__(self, trajectory: Trajectory, smooth: bool,
                 cfg: SmoothingConfig = SmoothingConfig(),
                 exact: Optional["Evaluator"] = None,
                 prior: Optional["Evaluator"] = None):
        if exact is not None and (exact.smooth or exact.traj is not trajectory):
            raise FormulaError("the exact partner must be an exact evaluator over this trajectory")
        if prior is not None and (prior.smooth or prior.traj.horizon != trajectory.horizon):
            raise FormulaError("the prior must be an exact evaluator "
                               "over a trajectory of the same length")
        if prior is not None and smooth:
            raise FormulaError("only an exact evaluator takes a prior")
        self.traj = trajectory
        self.smooth = smooth
        self.cfg = cfg
        self.exact = exact if smooth else None
        self._tables: dict[int, tuple[Formula, dict[int, Scalar]]] = {}
        self._atom_tables: dict[Atom, dict[int, Scalar]] = {}
        self._gap_tables: dict[Atom, dict[int, tuple[float, float]]] = {}
        # (value, slack) per atom and step not evaluated here: the exact
        # value lies within slack of value
        self._intervals: dict[Atom, dict[int, tuple[float, float]]] = {}
        if prior is not None:
            self._carry(prior)

    def _carry(self, prior: "Evaluator") -> None:
        """Widen the prior's exact values and intervals into intervals
        here. An atom of a kind in ``predicates.MOTION_BOUNDED`` moved by
        at most the sum of its operands' displacements between the two
        trajectories, plus ``MOTION_ROUNDING`` of the scale involved; any
        other kind, and a bound that is not finite, carries nothing."""
        known: dict[Atom, dict[int, tuple[float, float]]] = {}
        for atom, table in prior._intervals.items():
            if atom.kind in MOTION_BOUNDED:
                known[atom] = dict(table)
        for atom, table in prior._atom_tables.items():
            if atom.kind in MOTION_BOUNDED:
                known.setdefault(atom, {}).update((t, (v, 0.0)) for t, v in table.items())
        # (delta, scale) per step and object; an object shared by every
        # scene, as a static one is, is measured once
        moved: dict[tuple[int, str], tuple[float, float]] = {}
        measured: dict[tuple[int, int], tuple[float, float]] = {}
        names = {name for atom in known for name in atom.objects}
        for t in {t for table in known.values() for t in table}:
            before, after = prior.traj.scene(t).objects, self.traj.scene(t).objects
            for name in names:
                old, new = before.get(name), after.get(name)
                key = (id(old), id(new))
                out = measured.get(key)
                if out is None:
                    out = measured[key] = (math.inf, math.inf) if old is None or new is None \
                        else displacement(old, new)
                moved[t, name] = out
        for atom, table in known.items():
            carried = {}
            for t, (v, slack) in table.items():
                delta = scale = 0.0
                for name in atom.objects:
                    d, s = moved[t, name]
                    delta += d
                    scale += s
                slack += delta + MOTION_ROUNDING * (1.0 + abs(v) + slack + scale)
                if math.isfinite(slack):
                    carried[t] = (v, slack)
            if carried:
                self._intervals[atom] = carried

    def bounds(self, atom: Atom, ts: range) -> list[tuple[float, float]]:
        """(lo, hi) around the exact value of ``atom`` at each step of
        ``ts``, for an exact evaluator: the value itself once evaluated,
        else its carried interval; a step with neither is evaluated."""
        values = self._atom_tables.get(atom, {})
        carried = self._intervals.get(atom, {})
        out = []
        for t in ts:
            value = values.get(t)
            if value is None:
                interval = carried.get(t)
                if interval is not None:
                    v, slack = interval
                    out.append((v - slack, v + slack))
                    continue
                value = self.eval(atom, t)
            out.append((value, value))
        return out

    def _gaps(self, atom: Atom, t: int) -> tuple[float, float]:
        """The atom's proved (below, above) gaps at step ``t`` under this
        evaluator's smoothing (``predicates.smooth_gaps``), memoized."""
        table = self._gap_tables.setdefault(atom, {})
        out = table.get(t)
        if out is None:
            out = table[t] = smooth_gaps(self.traj.scene(t), atom.kind, atom.objects, self.cfg)
        return out

    def _atom(self, f: Atom, t: int) -> Scalar:
        """The atom's value at step ``t``. An exact value that is not
        finite raises FormulaError: it can only come from bad input, and
        must never decide a verdict, so every exact value is finite."""
        out = atom_robustness(self.traj.scene(t), f.kind, f.objects, f.params,
                              self.smooth, self.cfg)
        if not (self.smooth or math.isfinite(out)):
            raise FormulaError(f"exact robustness of {to_text(f)} at t={t} is not finite")
        return out

    def _neg(self, x: Scalar) -> Scalar:
        return -x

    def _min(self, xs: list[Scalar]) -> Scalar:
        if self.smooth:
            return ad.lse_min(xs, self.cfg.tau)
        return min(xs)

    def _max(self, xs: list[Scalar]) -> Scalar:
        if self.smooth:
            return ad.lse_max(xs, self.cfg.tau)
        return max(xs)

    def eval(self, f: Formula, t: int) -> Scalar:
        if t < 0 or t > self.traj.horizon:
            raise FormulaError(f"time {t} outside trajectory horizon [0,{self.traj.horizon}]")
        entry = self._tables.get(id(f))
        if entry is None:
            table = self._atom_tables.setdefault(f, {}) if isinstance(f, Atom) else {}
            entry = self._tables[id(f)] = (f, table)
        table = entry[1]
        out = table.get(t)
        if out is None:
            out = table[t] = self._eval(f, t)
        return out

    def _eval(self, f: Formula, t: int) -> Scalar:
        if isinstance(f, Atom):
            return self._atom(f, t)
        if isinstance(f, Not):
            return self._neg(self.eval(f.child, t))
        if isinstance(f, And):
            return self._min([self.eval(c, t) for c in f.children])
        if isinstance(f, Or):
            return self._max([self.eval(c, t) for c in f.children])
        if isinstance(f, Always):
            ts = _window(t, f.lo, f.hi, self.traj.horizon, "G")
            return self._min(self._window_values(f.child, ts, -1.0))
        if isinstance(f, Eventually):
            ts = _window(t, f.lo, f.hi, self.traj.horizon, "F")
            return self._max(self._window_values(f.child, ts, 1.0))
        if isinstance(f, Until):
            ts = _window(t, f.lo, f.hi, self.traj.horizon, "U")
            candidates = []
            held: list[Scalar] = []
            for u in range(t, ts.stop):
                held.append(self.eval(f.left, u))
                if u >= ts.start:
                    candidates.append(self._min([self.eval(f.right, u)] + held))
            return self._max(candidates)
        raise FormulaError(f"not a formula: {f!r}")

    def _window_values(self, child: Formula, ts: range, sign: float) -> list[Scalar]:
        """The child's values over the steps of a min (``sign`` -1) or max
        (``sign`` 1) window that can decide it, in step order."""
        if not self.smooth:
            return self._exact_window_values(child, ts, sign)
        exact = self.exact
        if exact is None or not isinstance(child, Atom) or len(ts) == 1:
            return [self.eval(child, u) for u in ts]
        gaps = []
        for u in ts:
            below, above = self._gaps(child, u)
            gap = below if sign < 0.0 else above
            if gap == math.inf:
                return [self.eval(child, u) for u in ts]
            gaps.append(gap)

        def key(i: int) -> float:
            """A lower bound on -sign * (smooth value at ts[i])."""
            return -sign * exact.eval(child, ts[i]) - gaps[i]

        # (lo, hi) around each key, from the partner's intervals; a key is
        # computed only where the interval cannot decide
        spans = [(lo - gap, hi - gap) if sign < 0.0 else (-hi - gap, -lo - gap)
                 for (lo, hi), gap in zip(exact.bounds(child, ts), gaps)]
        top = min(hi for _, hi in spans)
        first = min((i for i, (lo, _) in enumerate(spans) if lo <= top), key=key)
        cut = (-sign * value_of(self.eval(child, ts[first]))
               + ad.cull_width(self.cfg.tau, len(ts)))
        out = []
        for i, (lo, hi) in enumerate(spans):
            if cut < lo and hi < math.inf:
                continue
            if hi <= cut or not cut < key(i) < math.inf:
                out.append(self.eval(child, ts[i]))
        return out

    def _exact_window_values(self, child: Formula, ts: range, sign: float) -> list[Scalar]:
        """The exact values of the window's steps whose interval could hold
        its extreme: steps in ascending order of their bound on -sign *
        value, until a bound is strictly past the extreme found. Equal
        values are all kept, so the extreme is the same element."""
        if not (isinstance(child, Atom) and self._intervals.get(child)):
            return [self.eval(child, u) for u in ts]
        keys = [lo if sign < 0.0 else -hi for lo, hi in self.bounds(child, ts)]
        best = math.inf
        kept = []
        for i in sorted(range(len(ts)), key=keys.__getitem__):
            if keys[i] > best:
                break
            kept.append(i)
            best = min(best, -sign * self.eval(child, ts[i]))
        return [self.eval(child, ts[i]) for i in sorted(kept)]

    def result(self, f: Formula, t: int = 0) -> RobustnessResult:
        """Robustness of ``f`` anchored at ``t``."""
        out = self.eval(f, t)
        return RobustnessResult(value_of(out), out if isinstance(out, ad.Var) else None)


def eval_exact(formula: Formula, trajectory: Trajectory, t: int = 0,
               evaluator: Optional[Evaluator] = None) -> RobustnessResult:
    """Exact robustness with hard min/max and reference geometry.

    ``evaluator``, an exact Evaluator over ``trajectory``, keeps the
    per-step values, so it can then serve as the exact partner of a smooth
    pass over the same trajectory."""
    if evaluator is None:
        evaluator = Evaluator(trajectory, smooth=False)
    elif evaluator.smooth or evaluator.traj is not trajectory:
        raise FormulaError("eval_exact: the evaluator must be exact and over this trajectory")
    return evaluator.result(formula, t)


def eval_smooth(formula: Formula, trajectory: Trajectory, t: int = 0,
                cfg: SmoothingConfig = SmoothingConfig(),
                exact: Optional[Evaluator] = None) -> RobustnessResult:
    """Smooth robustness; differentiable when the trajectory carries tape
    variables (the result's ``node`` is then a Var on the caller's tape).

    ``exact``, an exact Evaluator over ``trajectory``, lets ``G`` and
    ``F`` windows over atoms skip the steps that carry no weight (see
    ``Evaluator``)."""
    return Evaluator(trajectory, smooth=True, cfg=cfg, exact=exact).result(formula, t)


def satisfies(formula: Formula, trajectory: Trajectory, t: int = 0) -> bool:
    """Independent boolean monitor (no robustness arithmetic); atoms hold
    iff their exact robustness is strictly positive.

    Verdicts are memoized per (subformula, step), so nested windows cost
    time linear in the formula size times the horizon; ``all`` and ``any``
    still stop at the first deciding operand."""
    horizon = trajectory.horizon
    if t < 0 or t > horizon:
        raise FormulaError(f"time {t} outside trajectory horizon [0,{horizon}]")
    memo: dict[tuple[int, int], bool] = {}   # the nodes live in ``formula``

    def check(f: Formula, u: int) -> bool:
        key = (id(f), u)
        out = memo.get(key)
        if out is None:
            out = memo[key] = holds(f, u)
        return out

    def holds(f: Formula, u: int) -> bool:
        if isinstance(f, Atom):
            return atom_robustness(trajectory.scene(u), f.kind, f.objects,
                                   f.params, smooth=False) > 0.0
        if isinstance(f, Not):
            return not check(f.child, u)
        if isinstance(f, And):
            return all(check(c, u) for c in f.children)
        if isinstance(f, Or):
            return any(check(c, u) for c in f.children)
        if isinstance(f, Always):
            return all(check(f.child, v) for v in _window(u, f.lo, f.hi, horizon, "G"))
        if isinstance(f, Eventually):
            return any(check(f.child, v) for v in _window(u, f.lo, f.hi, horizon, "F"))
        if isinstance(f, Until):
            for v in _window(u, f.lo, f.hi, horizon, "U"):
                if check(f.right, v) and all(check(f.left, w) for w in range(u, v + 1)):
                    return True
            return False
        raise FormulaError(f"not a formula: {f!r}")

    return check(formula, t)


# -- reporting helpers -------------------------------------------------------------


def atoms_of(formula: Formula) -> list[Atom]:
    out: list[Atom] = []

    def walk(f: Formula):
        if isinstance(f, Atom):
            out.append(f)
        elif isinstance(f, Not):
            walk(f.child)
        elif isinstance(f, (And, Or)):
            for c in f.children:
                walk(c)
        elif isinstance(f, (Always, Eventually)):
            walk(f.child)
        elif isinstance(f, Until):
            walk(f.left)
            walk(f.right)

    walk(formula)
    return out


class _Budgets(Evaluator):
    """Per-step bounds on |smooth - exact| on ``Evaluator``'s recursion and
    memo. An atom's bound is the larger of its proved gaps
    (``predicates.smooth_gaps``); negation keeps its child's bound. A soft
    extreme over n parts lies within tau*log n of the hard extreme of its
    smooth parts, which lies within the largest part's bound of the exact
    extreme, so it adds tau*log n to that bound. ``inf`` marks a value
    that reaches an atom with no two-sided gap. The gaps are read from,
    and added to, the table of the smooth evaluator the bounds are for."""

    def __init__(self, smooth: Evaluator):
        super().__init__(smooth.traj, smooth=False, cfg=smooth.cfg)
        self._gap_tables = smooth._gap_tables

    def _atom(self, f: Atom, t: int) -> float:
        return max(self._gaps(f, t))

    def _neg(self, x: float) -> float:
        return x

    def _min(self, xs: list[float]) -> float:
        return max(xs) + self.cfg.tau * math.log(len(xs))

    _max = _min


def smoothing_budget(formula: Formula, smooth: Evaluator, t: int = 0) -> Optional[float]:
    """Proved bound on |smooth - exact| for ``formula`` anchored at ``t``,
    composed per soft extreme (see ``_Budgets``); an ``U`` window counts
    the soft-min at each release step and the soft-max over them. None
    when an atom the formula reaches has no two-sided gap, as the pair and
    the enclosure atoms have not.

    ``smooth`` is the smooth Evaluator whose value the budget bounds; the
    trajectory and the settings are its own, and the gaps its screened
    windows already computed are reused."""
    if not smooth.smooth:
        raise FormulaError("smoothing_budget: the evaluator must be smooth")
    budget = _Budgets(smooth).eval(formula, t)
    return None if budget == math.inf else budget

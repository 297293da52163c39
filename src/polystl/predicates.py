"""Quantitative spatial predicates over scene objects.

Each predicate maps a scene to a robustness scalar: positive iff the
relation holds, with magnitude measuring the margin. Every predicate has
an exact evaluation (hard min/max, reference geometry) and a smooth one
(soft extrema, differentiable surrogates); both share parameter handling
so the two modes only differ in the arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Optional, Sequence, Union

from . import autodiff as ad
from . import exactgeo as xg
from . import geometry as geo
from .autodiff import Scalar, value_of
from .geometry import ConvexPolygon, SmoothingConfig

CENTROID_GUARD = 1e-9


class SceneError(ValueError):
    """Malformed scene or predicate applied to unsupported operands."""


class PredicateKind(Enum):
    CLOSE_TO = "closeTo"
    FAR_FROM = "farFrom"
    TOUCH = "touch"
    OVLP = "ovlp"
    PART_OVLP = "partOvlp"
    ENCL_IN = "enclIn"
    LEFT_OF = "leftOf"
    RIGHT_OF = "rightOf"
    BEHIND = "behind"
    IN_FRONT_OF = "inFrontOf"
    BELOW = "below"
    ABOVE = "above"
    BETWEEN_PX = "betweenPx"
    BETWEEN_PY = "betweenPy"
    ORIENTED = "oriented"
    BEARING_TO = "bearingTo"


# directional kind -> (axis, flipped): a flipped relation swaps its operands;
# the order is the retention tie-break of mining's candidate enumeration
DIRECTIONAL_AXES = {
    PredicateKind.LEFT_OF: (0, False), PredicateKind.RIGHT_OF: (0, True),
    PredicateKind.BEHIND: (1, False), PredicateKind.IN_FRONT_OF: (1, True),
    PredicateKind.BELOW: (2, False), PredicateKind.ABOVE: (2, True),
}
DIRECTIONAL = tuple(DIRECTIONAL_AXES)

# positional parameter names per predicate, in surface-syntax order
PARAM_ORDER = {
    PredicateKind.CLOSE_TO: ("eps_close",),
    PredicateKind.FAR_FROM: ("eps_far",),
    PredicateKind.TOUCH: ("eps_touch",),
    PredicateKind.OVLP: ("delta_overlap",),
    PredicateKind.PART_OVLP: ("delta_overlap", "delta_inside"),
    PredicateKind.ENCL_IN: ("delta_inside",),
    PredicateKind.LEFT_OF: ("kappa",),
    PredicateKind.RIGHT_OF: ("kappa",),
    PredicateKind.BEHIND: ("kappa",),
    PredicateKind.IN_FRONT_OF: ("kappa",),
    PredicateKind.BELOW: ("kappa",),
    PredicateKind.ABOVE: ("kappa",),
    PredicateKind.BETWEEN_PX: ("kappa",),
    PredicateKind.BETWEEN_PY: ("kappa",),
    PredicateKind.ORIENTED: ("kappa",),
    PredicateKind.BEARING_TO: ("theta_ref", "kappa"),
}

ARITY = {kind: 3 if kind in (PredicateKind.BETWEEN_PX, PredicateKind.BETWEEN_PY) else 2
         for kind in PredicateKind}


@dataclass(frozen=True)
class PredicateParams:
    """Thresholds for the quantitative predicates; only the fields a
    predicate names in PARAM_ORDER are consulted."""
    eps_close: Optional[float] = None
    eps_far: Optional[float] = None
    eps_touch: Optional[float] = None
    delta_overlap: Optional[float] = None
    delta_inside: Optional[float] = None
    kappa: Optional[float] = None
    theta_ref: Optional[float] = None

    def require(self, name: str, kind: PredicateKind) -> float:
        v = getattr(self, name)
        if v is None:
            raise SceneError(f"{kind.value}: missing parameter {name}")
        if name == "theta_ref":
            if not (-math.pi < v <= math.pi):
                raise SceneError(f"{kind.value}: theta_ref must lie in (-pi, pi], got {v}")
        elif v <= 0.0:
            raise SceneError(f"{kind.value}: {name} must be positive, got {v}")
        return v

    @classmethod
    def for_kind(cls, kind: PredicateKind, values: Sequence[float]) -> "PredicateParams":
        names = PARAM_ORDER[kind]
        if len(values) != len(names):
            raise SceneError(
                f"{kind.value}: expected {len(names)} parameter(s) {names}, got {len(values)}")
        params = cls(**dict(zip(names, values)))
        for name in names:
            params.require(name, kind)
        return params


@dataclass
class AxisAlignedBox3:
    """Axis-aligned box; corner coordinates are exact in both evaluation
    modes, so its axis extremes never pass through a soft extremum."""
    lo: tuple  # (Scalar, Scalar, Scalar)
    hi: tuple

    def __post_init__(self):
        lo = [value_of(c) for c in self.lo]
        hi = [value_of(c) for c in self.hi]
        if len(self.lo) != 3 or len(self.hi) != 3:
            raise SceneError("box corners must have 3 coordinates")
        for axis, (l, h) in enumerate(zip(lo, hi)):
            if l > h:
                raise SceneError(f"box corner order violated on axis {axis}: {l} > {h}")

    @classmethod
    def from_center(cls, cx: Scalar, cy: Scalar, cz: Scalar,
                    half: tuple[float, float, float]) -> "AxisAlignedBox3":
        return cls((cx - half[0], cy - half[1], cz - half[2]),
                   (cx + half[0], cy + half[1], cz + half[2]))


Shape = Union[ConvexPolygon, AxisAlignedBox3]


@dataclass
class SceneObject:
    name: str
    shape: Shape
    heading: Optional[tuple[float, float]] = None  # unit vector; a placed polygon's is its pose's

    def __post_init__(self):
        if self.heading is not None:
            ux, uy = self.heading
            if not abs(math.hypot(ux, uy) - 1.0) <= 1e-6:   # NaN fails too
                raise SceneError(f"object {self.name!r}: heading must be unit length")


class Scene:
    """Named objects at one time instant."""

    def __init__(self, objects: Sequence[SceneObject]):
        self.objects: dict[str, SceneObject] = {}
        for obj in objects:
            if obj.name in self.objects:
                raise SceneError(f"duplicate object name {obj.name!r}")
            self.objects[obj.name] = obj

    def get(self, name: str) -> SceneObject:
        try:
            return self.objects[name]
        except KeyError:
            raise SceneError(f"formula references unknown object {name!r}") from None


# -- helpers -----------------------------------------------------------------


def _polygon(obj: SceneObject, kind: PredicateKind) -> ConvexPolygon:
    if not isinstance(obj.shape, ConvexPolygon):
        raise SceneError(f"{kind.value}: object {obj.name!r} must be a polygon")
    return obj.shape


def axis_extremes(obj: SceneObject, axis: int, kind: PredicateKind,
                  smooth: bool, cfg: SmoothingConfig = SmoothingConfig()) -> tuple[Scalar, Scalar]:
    """(min, max) extent of an object along a coordinate axis.

    Polygon extremes use soft extrema in smooth mode; box extremes are the
    corner coordinates in both modes. Axis 2 exists only for boxes.
    """
    shape = obj.shape
    if isinstance(shape, AxisAlignedBox3):
        return shape.lo[axis], shape.hi[axis]
    if axis == 2:
        raise SceneError(
            f"{kind.value}: object {obj.name!r} is planar; the z axis needs a 3D box")
    coords = [v[axis] for v in shape.vertices]
    if not smooth:
        return min(coords), max(coords)
    return tuple(_axis_node(shape, axis, *ad.lse_parts(coords, cfg.tau, sign), "soft_extreme")
                 for sign in (-1.0, 1.0))


def _axis_node(polygon: ConvexPolygon, axis: int, value: float, ws: Sequence[float],
               s: float, op: str) -> Scalar:
    """``value``, whose partial in vertex k's ``axis`` coordinate is ws[k] / s, as a node."""
    partials = [0.0] * (2 * len(ws))
    partials[axis::2] = [w / s for w in ws]
    return geo.lift_onto_poses(value, ((polygon, partials),), op)


def _centroid_xy(obj: SceneObject, smooth: bool) -> tuple[Scalar, Scalar]:
    shape = obj.shape
    if isinstance(shape, AxisAlignedBox3):
        return ((shape.lo[0] + shape.hi[0]) / 2.0, (shape.lo[1] + shape.hi[1]) / 2.0)
    c, n = xg.centroid(shape.vertices), len(shape.vertices)
    return tuple(_axis_node(shape, axis, c[axis], [1.0] * n, n, "centroid")
                 for axis in (0, 1)) if smooth else c


def _heading(obj: SceneObject, kind: PredicateKind, smooth: bool) -> tuple[Scalar, Scalar]:
    """Unit heading; a placed polygon's is its pose's, whose cos and sin a smooth one records."""
    pose = getattr(obj.shape, "pose", None)
    if pose is not None:
        return (ad.cos(pose.theta), ad.sin(pose.theta)) if smooth else obj.shape.cs
    if obj.heading is None:
        raise SceneError(f"{kind.value}: object {obj.name!r} has no heading")
    return obj.heading


def _pair_clearance(a: SceneObject, b: SceneObject, kind: PredicateKind,
                    smooth: bool, cfg: SmoothingConfig) -> Scalar:
    pa, pb = _polygon(a, kind), _polygon(b, kind)
    if smooth:
        return geo.signed_clearance(pa, pb, cfg)
    return xg.exact_clearance(pa.vertices, pb.vertices)


def _pair_distance(a: SceneObject, b: SceneObject, kind: PredicateKind,
                   smooth: bool, cfg: SmoothingConfig) -> Scalar:
    """The exact distance is the clearance's positive part. The smooth side
    reads the signed clearance itself, which only falls below the distance
    under overlap (where closeTo holds and farFrom fails for any positive
    threshold) and keeps a gradient there, also when one polygon contains
    the other."""
    clr = _pair_clearance(a, b, kind, smooth, cfg)
    return clr if smooth else max(0.0, clr)


def _enclosure(inner: SceneObject, outer: SceneObject, delta_inside: float,
               smooth: bool, cfg: SmoothingConfig) -> Scalar:
    """Containment margin: -delta - (largest signed distance of inner's
    vertices to outer's boundary); boxes use their 6 face margins."""
    if isinstance(inner.shape, AxisAlignedBox3) or isinstance(outer.shape, AxisAlignedBox3):
        if not (isinstance(inner.shape, AxisAlignedBox3)
                and isinstance(outer.shape, AxisAlignedBox3)):
            raise SceneError("enclIn: box operands cannot mix with polygons")
        margins = []
        for axis in range(3):
            margins.append(inner.shape.lo[axis] - outer.shape.lo[axis])
            margins.append(outer.shape.hi[axis] - inner.shape.hi[axis])
        if smooth:
            return ad.lse_min(margins, cfg.tau) - delta_inside
        return min(value_of(m) for m in margins) - delta_inside
    pi = _polygon(inner, PredicateKind.ENCL_IN)
    po = _polygon(outer, PredicateKind.ENCL_IN)
    if smooth:
        return -delta_inside - geo.smooth_enclosure(pi, po, cfg)
    worst = max(xg.exact_point_signed_distance(p, po.vertices) for p in pi.vertices)
    return -delta_inside - worst


def directional_gap(a: SceneObject, b: SceneObject, kind: PredicateKind,
                    smooth: bool = False, cfg: SmoothingConfig = SmoothingConfig()) -> Scalar:
    """The threshold-free quantity of a directional relation: how far a's
    extent is clear of b's along the kind's axis, min(hi_obj extent) -
    max(lo_obj extent). The atom with threshold kappa is this minus kappa,
    positive when the extents are clear by more than kappa."""
    axis, flipped = DIRECTIONAL_AXES[kind]
    lo_obj, hi_obj = (b, a) if flipped else (a, b)
    _, lo_max = axis_extremes(lo_obj, axis, kind, smooth, cfg)
    hi_min, _ = axis_extremes(hi_obj, axis, kind, smooth, cfg)
    return hi_min - lo_max


def _between(a: SceneObject, mid: SceneObject, c: SceneObject, axis: int,
             kind: PredicateKind, kappa: float, smooth: bool,
             cfg: SmoothingConfig) -> Scalar:
    _, a_max = axis_extremes(a, axis, kind, smooth, cfg)
    m_min, m_max = axis_extremes(mid, axis, kind, smooth, cfg)
    c_min, _ = axis_extremes(c, axis, kind, smooth, cfg)
    first = m_min - a_max - kappa
    second = c_min - m_max - kappa
    if smooth:
        return ad.lse_min([first, second], cfg.tau)
    return min(first, second)


def _oriented(a: SceneObject, b: SceneObject, kappa: float, smooth: bool) -> Scalar:
    ux, uy = _heading(a, PredicateKind.ORIENTED, smooth)
    vx, vy = _heading(b, PredicateKind.ORIENTED, smooth)
    dx = ux - vx
    dy = uy - vy
    return kappa - 0.5 * (dx * dx + dy * dy)


def _bearing(a: SceneObject, b: SceneObject, theta_ref: float, kappa: float,
             smooth: bool) -> Scalar:
    ax, ay = _centroid_xy(a, smooth)
    bx, by = _centroid_xy(b, smooth)
    dx = bx - ax
    dy = by - ay
    if math.hypot(value_of(dx), value_of(dy)) < CENTROID_GUARD:
        raise SceneError("bearingTo: centroids coincide; bearing undefined")
    err = ad.wrap_angle(ad.atan2(dy, dx) - theta_ref)
    return kappa - ad.square(err)


# -- entry point ----------------------------------------------------------------


def atom_robustness(scene: Scene, kind: PredicateKind, names: Sequence[str],
                    params: PredicateParams, smooth: bool,
                    cfg: SmoothingConfig = SmoothingConfig()) -> Scalar:
    """Quantitative semantics of one spatial predicate on one scene.

    smooth=False gives the exact reference semantics as a plain float,
    read off float vertices and headings; box corners are read as given,
    floats in every scene the program builds. smooth=True gives the
    differentiable surrogate, which returns a Var whenever an operand is a
    polygon placed at a tape pose: one node over the poses per kernel.
    """
    if len(names) != ARITY[kind]:
        raise SceneError(f"{kind.value}: expected {ARITY[kind]} objects, got {len(names)}")
    objs = [scene.get(n) for n in names]

    if kind is PredicateKind.CLOSE_TO:
        return params.require("eps_close", kind) - _pair_distance(*objs, kind, smooth, cfg)
    if kind is PredicateKind.FAR_FROM:
        return _pair_distance(*objs, kind, smooth, cfg) - params.require("eps_far", kind)
    if kind is PredicateKind.TOUCH:
        clr = _pair_clearance(*objs, kind, smooth, cfg)
        mag = ad.abs_smooth(clr) if smooth else abs(clr)
        return params.require("eps_touch", kind) - mag
    if kind is PredicateKind.OVLP:
        return -_pair_clearance(*objs, kind, smooth, cfg) - params.require("delta_overlap", kind)
    if kind is PredicateKind.PART_OVLP:
        d_ov = params.require("delta_overlap", kind)
        d_in = params.require("delta_inside", kind)
        over = -_pair_clearance(*objs, kind, smooth, cfg) - d_ov
        not_a_in_b = -_enclosure(objs[0], objs[1], d_in, smooth, cfg)
        not_b_in_a = -_enclosure(objs[1], objs[0], d_in, smooth, cfg)
        if smooth:
            return ad.lse_min([over, not_a_in_b, not_b_in_a], cfg.tau)
        return min(over, not_a_in_b, not_b_in_a)
    if kind is PredicateKind.ENCL_IN:
        return _enclosure(objs[0], objs[1], params.require("delta_inside", kind), smooth, cfg)
    if kind in DIRECTIONAL:
        kappa = params.require("kappa", kind)
        return directional_gap(objs[0], objs[1], kind, smooth, cfg) - kappa
    if kind is PredicateKind.BETWEEN_PX:
        return _between(objs[0], objs[1], objs[2], 0, kind,
                        params.require("kappa", kind), smooth, cfg)
    if kind is PredicateKind.BETWEEN_PY:
        return _between(objs[0], objs[1], objs[2], 1, kind,
                        params.require("kappa", kind), smooth, cfg)
    if kind is PredicateKind.ORIENTED:
        return _oriented(objs[0], objs[1], params.require("kappa", kind), smooth)
    if kind is PredicateKind.BEARING_TO:
        return _bearing(objs[0], objs[1], params.require("theta_ref", kind),
                        params.require("kappa", kind), smooth)
    raise SceneError(f"unhandled predicate {kind}")  # pragma: no cover


# the kinds that read the signed clearance, and which of their (below,
# above) gaps ``clearance_error_budget`` bounds wherever the polygons lie
_CLEARANCE_SIDES = {
    PredicateKind.CLOSE_TO: (True, False),
    PredicateKind.FAR_FROM: (False, True),
    PredicateKind.OVLP: (True, True),
}


def smooth_gaps(scene: Scene, kind: PredicateKind, names: Sequence[str],
                cfg: SmoothingConfig = SmoothingConfig()) -> tuple[float, float]:
    """(below, above): how far the smooth value of an atom on ``scene`` can
    fall below its exact value, and how far it can rise above it;
    ``math.inf`` wherever no bound is proved. The threshold parameters
    shift both values alike, so they do not enter.

    - closeTo, farFrom and ovlp on polygons, when every corner of one of
      them is at least 38.94 degrees and no edge of either is shorter than
      ``geometry.MIN_BUDGET_EDGE`` (``ConvexPolygon.blunt`` and
      ``long_edges``): the smooth side reads the signed clearance s,
      and ``clearance_error_budget`` B proves |s - c| <= B
      against the exact signed clearance c. ovlp reads -c on both sides,
      so both its gaps are B. closeTo and farFrom read the distance
      d = max(0, c) on the exact side, so s <= c + B <= d + B everywhere,
      while s >= d - B only where d > 0: under overlap s falls a whole
      depth below 0. So farFrom gets B above and closeTo B below; their
      other side is B only where the exact value proves d > 0 (``apart``).
    - enclIn on polygons, above by ``enclosure_error_budget``, when every
      corner of the outer polygon is at least 38.94 degrees and none of its
      edges is shorter than ``geometry.MIN_BUDGET_EDGE``. Inside, the
      blended signed distance of a vertex is at least the exact one minus
      tau*log E. Outside, at distance d from a corner of angle phi, the hard
      inward margin is at most -d*sin(phi/2), so the sigmoid weight on the
      inside branch costs at most (1/k)*sup u*sigmoid(-u)*(1/sin(phi/2) - 1),
      within the budget's 2/k term once sin(phi/2) >= 1/3. A sharper
      corner breaks the budget above, and many near-collinear outer edges
      break it below, so those get no gap.
    - Directional kinds: each polygon's soft extreme lies on the side of
      its hard extreme that lowers the margin, within tau*log n; box
      extremes are exact. So the smooth value is at most the exact one and
      at least the exact one minus tau*(log n + log m).
    - betweenPx/betweenPy, below by tau*(log 2 + max(g_a + g_mid,
      g_mid + g_c)), with g = log(#vertices) for a polygon and 0 for a
      box: each clause moves down as a directional margin does, by at most
      its two soft extremes, and the soft-min of the two clauses lies
      within tau*log 2 below their minimum.
    - oriented and bearingTo compute the same arithmetic in both modes, so
      both gaps are 0.

    Every other kind, and polygons that fail those conditions, get
    ``inf`` on both sides."""
    shapes = [scene.get(n).shape for n in names]
    if kind in _CLEARANCE_SIDES or kind is PredicateKind.ENCL_IN:
        a, b = shapes   # a static operand, one polygon in every scene, is usually b
        polygons = isinstance(a, ConvexPolygon) and isinstance(b, ConvexPolygon)
        if kind is PredicateKind.ENCL_IN:
            if polygons and b.blunt and b.long_edges:
                return math.inf, geo.enclosure_error_budget(a, b, cfg)
        elif polygons and (b.blunt or a.blunt) and b.long_edges and a.long_edges:
            budget = geo.clearance_error_budget(a, b, cfg)
            below, above = _CLEARANCE_SIDES[kind]
            return budget if below else math.inf, budget if above else math.inf
        return math.inf, math.inf
    if kind in DIRECTIONAL:
        return cfg.tau * sum(math.log(len(s)) for s in shapes
                             if isinstance(s, ConvexPolygon)), 0.0
    if kind in (PredicateKind.BETWEEN_PX, PredicateKind.BETWEEN_PY):
        g_a, g_mid, g_c = (math.log(len(s)) if isinstance(s, ConvexPolygon) else 0.0
                           for s in shapes)
        return cfg.tau * (math.log(2.0) + max(g_a + g_mid, g_mid + g_c)), 0.0
    if kind in (PredicateKind.ORIENTED, PredicateKind.BEARING_TO):
        return 0.0, 0.0
    return math.inf, math.inf


def apart(kind: PredicateKind, params: PredicateParams, lo: float, hi: float) -> bool:
    """True when ``lo <= v <= hi``, v the exact value of a closeTo or
    farFrom atom, proves the distance d of its operands positive, so that
    both of its ``smooth_gaps`` are the clearance budget there. v is
    fl(d - eps_far) or fl(eps_close - d), and rounding is monotone, so
    d >= 0 keeps v on the near side of the exact value d = 0 gives: -eps_far
    or eps_close. A bound strictly past that value needs d > 0. False for
    every other kind."""
    if kind is PredicateKind.FAR_FROM:
        return lo > -params.eps_far
    if kind is PredicateKind.CLOSE_TO:
        return hi < params.eps_close
    return False


# Kinds whose exact value moves by at most the sum, over its operands, of
# each operand's largest reference-point displacement (``displacement``).
# Matching reference points carry every point of a polygon (a convex
# combination of its vertices) to the same combination of the moved ones,
# so no point of either placement lies further than that from the other.
# - closeTo/farFrom: the distance of two convex sets is 1-Lipschitz in
#   each set under that (Hausdorff) distance.
# - enclIn: on polygons, a vertex's signed distance to a convex outer
#   polygon K is sup over unit n of p.n - h_K(n); p moves by at most the
#   inner displacement and the support function h_K by at most the outer
#   one. On boxes each face margin is a difference of two coordinates.
# - Directional kinds and betweenPx/betweenPy: axis extremes are extreme
#   vertex or corner coordinates, each moved by at most the displacement.
# touch, ovlp and partOvlp read the signed clearance, and oriented and
# bearingTo read headings and centroid bearings; they get no bound yet.
MOTION_BOUNDED = frozenset({
    PredicateKind.CLOSE_TO, PredicateKind.FAR_FROM, PredicateKind.ENCL_IN,
    *DIRECTIONAL, PredicateKind.BETWEEN_PX, PredicateKind.BETWEEN_PY})

# Widening, relative to the scale of the values and coordinates involved,
# that covers the rounding of both exact evaluations an interval relates
# and of the bound's own sums: millions of ulps, far below any motion.
MOTION_ROUNDING = 1e-9


def _reference_points(shape: Shape) -> list[tuple[float, ...]]:
    if isinstance(shape, AxisAlignedBox3):
        return [tuple(value_of(c) for c in shape.lo), tuple(value_of(c) for c in shape.hi)]
    return shape.float_vertices()


def displacement(before: SceneObject, after: SceneObject) -> tuple[float, float]:
    """(delta, scale) of one object across two placements: delta is the
    largest distance between matching reference points (a polygon's
    vertices in order, a box's two corners), ``inf`` when the shapes do
    not match point for point; scale is the largest coordinate magnitude
    of either placement."""
    old, new = _reference_points(before.shape), _reference_points(after.shape)
    if len(old) != len(new) or len(old[0]) != len(new[0]):
        return math.inf, math.inf
    return max(map(math.dist, old, new)), max(map(abs, chain.from_iterable(old + new)))

"""Smooth convex-polygon geometry: poses and the differentiable signed
distance surrogates.

Vertices are floats; the tape variables, if any, are the poses that
:meth:`PolygonTemplate.at` places templates at, recording no node. The one
smooth primitive is the blended signed distance of a point to a convex
polygon. Every pair quantity is that primitive at the origin against the
Minkowski difference M = A + (-B) = {a - b}: M is convex, has at most
n + m vertices a_i - b_j, and the origin's signed distance to it is the
distance of the two polygons when they are apart and minus their push-out
depth when they overlap. The kernels compute the same value in both
modes; on the tape they also derive the partials in every vertex
coordinate analytically, and :func:`lift_onto_poses` records the result
as one node over the poses. Hard counterparts for every quantity live in
:mod:`polystl.exactgeo`.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

from . import autodiff as ad
from .autodiff import SQRT_GUARD, Scalar, value_of
from .exactgeo import minkowski_difference, validate_convex_ccw

DEFAULT_TAU = 1e-2
SIGMOID_SCALE = 50.0   # k, the signed distance's inside/outside blend: fixed, not a setting
MIN_BUDGET_EDGE = 1e-3   # shortest edge the error budgets are claimed for (``long_edges``)


@dataclass(frozen=True)
class SmoothingConfig:
    """The one definition of the smooth semantics' settings, and the only
    place they are checked: every smooth quantity, the smooth formula pass
    and ``OptimizerConfig.smoothing`` read them from here.

    tau: log-sum-exp temperature; smaller is sharper.
    samples_per_edge: kept for the command line and the accuracy CSV; no
        kernel samples the boundary any more, so it changes no value.
    """
    tau: float = DEFAULT_TAU
    samples_per_edge: int = 16

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.samples_per_edge < 1:
            raise ValueError(f"samples_per_edge must be >= 1, got {self.samples_per_edge}")


class Pose2D(NamedTuple):
    """Planar rigid pose; coordinates may be Vars or floats."""
    x: Scalar
    y: Scalar
    theta: Scalar


class ConvexPolygon:
    """Validated counter-clockwise convex polygon with float vertices;
    near-collinear corners only warn. :meth:`PolygonTemplate.at` sets the ``pose``, the
    template's ``local`` vertices, ``cs``, the cos and sin of its heading,
    and ``on_tape``, whether the pose holds a tape variable."""

    __slots__ = ("vertices", "pose", "local", "cs", "on_tape", "_blunt", "_long_edges")

    def __init__(self, vertices: Sequence[tuple[float, float]], pose=None, local=(), cs=None):
        self.vertices = [(float(vx), float(vy)) for vx, vy in vertices]
        for i in validate_convex_ccw(self.vertices):
            warnings.warn(f"near-collinear corner at vertex {i}", stacklevel=2)
        self.pose, self.local, self.cs = pose, local, cs
        self.on_tape = pose is not None and ad.Var in map(type, pose)
        self._blunt = self._long_edges = None

    @property
    def blunt(self) -> bool:
        """True when every interior angle phi has sin(phi/2) >= 1/3, that
        is cos(phi) <= 7/9 (phi >= 38.94 degrees): the corner condition of
        the error budgets below. Tested once per polygon, since a static
        object is one polygon in every scene of every iterate."""
        if self._blunt is None:
            fv = self.vertices
            n = len(fv)
            self._blunt = True
            for i in range(n):
                (ax, ay), (bx, by), (cx, cy) = fv[i - 1], fv[i], fv[(i + 1) % n]
                ux, uy, wx, wy = bx - ax, by - ay, cx - bx, cy - by
                # cos(phi) is minus the cosine of the turn between the two edges
                if ux * wx + uy * wy < -7.0 / 9.0 * math.hypot(ux, uy) * math.hypot(wx, wy):
                    self._blunt = False
                    break
        return self._blunt

    @property
    def long_edges(self) -> bool:
        """True when every edge is at least ``MIN_BUDGET_EDGE`` long: the
        edge condition of the error budgets below. The square-root guard
        shortens an edge's inward normal to l/sqrt(l^2 + SQRT_GUARD) of
        unit length, which the budgets' arguments leave out: at least
        1 - 5e-7 from this length on, near 0 for an edge about 1e-6 long."""
        if self._long_edges is None:
            fv = self.vertices
            self._long_edges = min(map(math.dist, fv, fv[1:] + fv[:1])) >= MIN_BUDGET_EDGE
        return self._long_edges

    def __len__(self) -> int:
        return len(self.vertices)

    def float_vertices(self) -> list[tuple[float, float]]:
        """The vertices, one list shared by every caller: do not change it."""
        return self.vertices


@dataclass
class PolygonTemplate:
    """Local-frame vertex list instantiated at a pose: world = R(theta) v + p."""
    local_vertices: list[tuple[float, float]]

    def __post_init__(self):
        # reject a malformed template before any placement; ``at`` validates
        # each placement again, which rejects a pose whose offsets vanish
        # beyond float resolution (the vertices round to a degenerate order)
        ConvexPolygon(self.local_vertices)

    def at(self, pose: Pose2D) -> ConvexPolygon:
        """The polygon placed at ``pose``, computed on the floats behind it
        as x + c lx - s ly and y + s lx + c ly; records no node."""
        x, y, theta = map(value_of, pose)
        c, s = math.cos(theta), math.sin(theta)
        world = [(x + c * lx - s * ly, y + s * lx + c * ly) for lx, ly in self.local_vertices]
        return ConvexPolygon(world, pose, self.local_vertices, (c, s))


def lift_onto_poses(value: float, parts: Sequence[tuple], op: str) -> Scalar:
    """``value`` as one node over the tape poses of the polygons in
    ``parts``, each paired with the partials of ``value`` in its vertex
    coordinates, flat. A vertex at (x, y, theta) moves by (1, lx, -ly) .
    (dx, dc, ds) and (1, lx, ly) . (dy, ds, dc), (dc, ds) = (-s, c) dtheta."""
    operands, partials = [], []
    for polygon, g in parts:
        if polygon.on_tape:
            gx = gy = gc = gs = 0.0
            for (lx, ly), ax, ay in zip(polygon.local, g[0::2], g[1::2]):
                gx += ax
                gy += ay
                gc += ax * lx + ay * ly
                gs += ay * lx - ax * ly
            c, s = polygon.cs
            operands += polygon.pose
            partials += (gx, gy, c * gs - s * gc)
    return ad.lift(value, operands, partials, op)


# -- float kernels ---------------------------------------------------------------
#
# Distances use envelope partials: the clamped projection parameter of a
# point onto a segment is held fixed, since the distance is stationary in it
# wherever it is not clamped.


def _segments(pts: list[tuple[float, float]], idx: Sequence[tuple[int, int]]) -> list[tuple]:
    """(ax, ay, ex, ey, ex^2 + ey^2) of each directed segment a -> a + e
    from pts[k] to pts[l], (k, l) in ``idx``."""
    out = []
    for k, l in idx:
        ax, ay = pts[k]
        ex = pts[l][0] - ax
        ey = pts[l][1] - ay
        out.append((ax, ay, ex, ey, ex * ex + ey * ey))
    return out


def _ring(n: int) -> list[tuple[int, int]]:
    """The edges (k, k + 1) of a closed polygon with n vertices."""
    return [(k, (k + 1) % n) for k in range(n)]


def _unit_normals(edges: Sequence[tuple]) -> list[tuple[float, float, float]]:
    """(nx, ny, guarded edge length) of each edge's inward unit normal."""
    out = []
    for _, _, ex, ey, len2 in edges:
        length = math.sqrt(len2 + SQRT_GUARD)
        out.append((-ey / length, ex / length, length))
    return out


def _segment_offsets(px: float, py: float, pts: list[tuple[float, float]],
                     idx: Sequence[tuple[int, int]]) -> list[tuple]:
    """(d, t, dx, dy) per segment pts[k] -> pts[l], (k, l) in ``idx``: the
    guarded distance from (px, py) to the segment, the hard-clamped
    projection parameter t (a tie keeps the unclamped value) and the
    offset from the projected point."""
    out = []
    for k, l in idx:
        ax, ay = pts[k]
        ex = pts[l][0] - ax
        ey = pts[l][1] - ay
        t = ((px - ax) * ex + (py - ay) * ey) / (ex * ex + ey * ey)
        if t < 0.0:
            t = 0.0
        if t > 1.0:
            t = 1.0
        dx = px - (ax + t * ex)
        dy = py - (ay + t * ey)
        out.append((math.sqrt(dx * dx + dy * dy + SQRT_GUARD), t, dx, dy))
    return out


def _segment_adjoint(g: list[float], k: int, l: int, t: float, gx: float, gy: float) -> None:
    """Adjoint (gx, gy) of the offset p - (a + t e) pushed onto the
    segment's points a = pts[k] and a + e = pts[l] in the flat gradient ``g``."""
    g[2 * k] -= (1.0 - t) * gx
    g[2 * k + 1] -= (1.0 - t) * gy
    g[2 * l] -= t * gx
    g[2 * l + 1] -= t * gy


def _normal_adjoint(g: list[float], k: int, l: int, edge: tuple, length: float,
                    gnx: float, gny: float) -> None:
    """Adjoint (gnx, gny) of the unit normal (-ey, ex) / length of the edge
    pts[k] -> pts[l] pushed onto its points in the flat gradient ``g``."""
    ex, ey = edge[2], edge[3]
    inv = 1.0 / length
    c = (gnx * ey - gny * ex) * inv * inv * inv
    gex = inv * gny + c * ex
    gey = c * ey - inv * gnx
    g[2 * k] -= gex
    g[2 * k + 1] -= gey
    g[2 * l] += gex
    g[2 * l + 1] += gey


def _blend(px: float, py: float, pts: list[tuple[float, float]],
           faces: Sequence[tuple[int, int]], segs: Sequence[tuple[int, int]],
           cfg: SmoothingConfig, live: bool) -> tuple[float, float, list[float] | None]:
    """(value, m_in, partials) of the blended signed distance from (px, py)
    to a convex polygon: m_in, the inside branch, is the soft-min of the
    inward margins of the polygon's counter-clockwise edges ``faces``; the
    outside branch is the soft-min of the distances to the segments
    ``segs``, whose hard minimum is the distance to the polygon from
    outside it. Both are (k, l) index pairs into ``pts``. The partials
    (point, then every coordinate of ``pts``) are derived only when
    ``live``."""
    tau = cfg.tau
    edges = _segments(pts, faces)
    normals = _unit_normals(edges)
    margins = [(px - ax) * nx + (py - ay) * ny
               for (ax, ay, _, _, _), (nx, ny, _) in zip(edges, normals)]
    m_in, w_in, s_in = ad.lse_parts(margins, tau, -1.0)
    offsets = _segment_offsets(px, py, pts, segs)
    m_out, w_out, s_out = ad.lse_parts([o[0] for o in offsets], tau, -1.0)
    w = ad.sigmoid(SIGMOID_SCALE * m_in)
    value = (1.0 - w) * m_out - w * m_in
    if not live:
        return value, m_in, None

    g_out = 1.0 - w
    g_in = (-m_out - m_in) * (w * (1.0 - w)) * SIGMOID_SCALE - w
    gp = [0.0, 0.0]
    gv = [0.0] * (2 * len(pts))
    for (k, l), edge, (nx, ny, length), wk in zip(faces, edges, normals, w_in):
        a = g_in * (wk / s_in)   # adjoint of this margin
        if a != 0.0:
            gp[0] += a * nx
            gp[1] += a * ny
            gv[2 * k] -= a * nx
            gv[2 * k + 1] -= a * ny
            _normal_adjoint(gv, k, l, edge, length, a * (px - edge[0]), a * (py - edge[1]))
    for (k, l), (d, t, dx, dy), wk in zip(segs, offsets, w_out):
        c = g_out * (wk / s_out) / d   # adjoint of this distance, over d
        if c != 0.0:
            gp[0] += c * dx
            gp[1] += c * dy
            _segment_adjoint(gv, k, l, t, c * dx, c * dy)
    return value, m_in, gp + gv


def smooth_enclosure(inner: ConvexPolygon, outer: ConvexPolygon,
                     cfg: SmoothingConfig = SmoothingConfig()) -> Scalar:
    """Soft maximum over ``inner``'s vertices of their signed distance to
    ``outer`` (negative inside), one node. Each blends the soft-min of the
    inward edge margins and that of the edge distances through a sigmoid."""
    live = inner.on_tape or outer.on_tape
    ring = _ring(len(outer))
    blends = [_blend(px, py, outer.vertices, ring, ring, cfg, live) for px, py in inner.vertices]
    value, ws, s = ad.lse_parts([b[0] for b in blends], cfg.tau, 1.0)
    if not live:
        return value
    g_in, g_out = [], [0.0] * (2 * len(outer))
    for (_, _, g), w in zip(blends, ws):
        a = w / s   # adjoint of this vertex's distance
        g_in += (a * g[0], a * g[1])
        g_out = [o + a * gk for o, gk in zip(g_out, g[2:])]
    return lift_onto_poses(value, ((inner, g_in), (outer, g_out)), "smooth_enclosure")


@lru_cache(maxsize=None)
def _vertex_edge_segments(n: int, m: int) -> tuple[tuple[int, int], ...]:
    """The 2 n m segments a_i - b_j -> a_(i+1) - b_j, then a_i - b_j ->
    a_i - b_(j+1), as index pairs into the points a_i - b_j at i*m + j."""
    return tuple([(i * m + j, (i + 1) % n * m + j) for i in range(n) for j in range(m)]
                 + [(i * m + j, i * m + (j + 1) % m) for i in range(n) for j in range(m)])


def clearance_parts(A: ConvexPolygon, B: ConvexPolygon,
                    cfg: SmoothingConfig = SmoothingConfig()) -> tuple[Scalar, float]:
    """(signed clearance, inside branch m_in) of A and B: see
    :func:`signed_clearance`. The inside branch is a float; clamped at 0
    it is the smooth push-out depth.

    Both branches run over the points a_i - b_j. The inside branch takes
    the margins of M's n + m edges, in the order
    ``exactgeo.minkowski_difference`` merges them; each margin is the
    support of M along an edge normal, which stays continuous when an edge
    of A turns past parallel to an edge of B and the merge order flips.
    The outside branch takes the 2 n m segments that set each vertex of
    one polygon against each edge of the other. They all lie in M and
    include its boundary, so their distances are at least the distance to
    M, and equal it at the minimum. Unlike M's edges, they do not depend
    on the merge order: where the order flips, the vertex between two
    near-parallel edges of M jumps along them, and a soft-min over M's
    edges alone would jump by up to tau*log 2. Point a_i - b_j sends its
    adjoint to +a_i and -b_j.
    """
    live = A.on_tape or B.on_tape
    fa, fb = A.vertices, B.vertices
    n, m = len(fa), len(fb)
    pts = [(ax - bx, ay - by) for ax, ay in fa for bx, by in fb]   # a_i - b_j at i*m + j
    order = [i * m + j for i, j in minkowski_difference(fa, fb)[1]]
    faces = list(zip(order, order[1:] + order[:1]))
    value, m_in, g = _blend(0.0, 0.0, pts, faces, _vertex_edge_segments(n, m), cfg, live)
    if not live:
        return value, m_in
    ga, gb = [0.0] * (2 * n), [0.0] * (2 * m)
    for k in range(n * m):
        gx, gy = g[2 * k + 2], g[2 * k + 3]
        if gx != 0.0 or gy != 0.0:
            i, j = divmod(k, m)
            ga[2 * i] += gx
            ga[2 * i + 1] += gy
            gb[2 * j] -= gx
            gb[2 * j + 1] -= gy
    return lift_onto_poses(value, ((A, ga), (B, gb)), "signed_clearance"), m_in


def signed_clearance(A: ConvexPolygon, B: ConvexPolygon,
                     cfg: SmoothingConfig = SmoothingConfig()) -> Scalar:
    """Smooth signed distance of the origin to the Minkowski difference
    M = A + (-B): positive when the polygons are apart (their distance),
    negative when they overlap (minus the depth that pushes them apart,
    also when one contains the other): the point signed distance of
    :func:`smooth_enclosure` at the origin against M, recorded as one node."""
    return clearance_parts(A, B, cfg)[0]


# -- error budget ----------------------------------------------------------

# sup over u > 0 of u * sigmoid(-u), attained near u = 1.2785; rounded up so
# the blended signed-distance budget below stays a true upper bound
_BLEND_SUP = 0.2785


def enclosure_error_budget(inner: ConvexPolygon, outer: ConvexPolygon,
                           cfg: SmoothingConfig = SmoothingConfig()) -> float:
    """How far the smooth containment margin of two polygons can rise
    above the exact one, when every corner of the outer polygon is at least
    38.94 degrees and none of its edges is shorter than
    ``MIN_BUDGET_EDGE``. Nothing bounds the fall below, nor the rise past a
    sharper corner: ``predicates.smooth_gaps`` gives the argument and
    ``test_enclosure_budget_fails_*`` in the predicate tests both failures.

    Each inner vertex contributes a blended signed distance whose two
    branches are soft-mins over the outer edges (gap tau*log E each); near
    blunt corners the wrong branch carries sigmoid weight and misses by at
    most (2/k)*sup u*sigmoid(-u). The soft-max over inner vertices stacks
    one more tau*log V on top.
    """
    return (cfg.tau * (math.log(len(inner)) + math.log(len(outer)))
            + 2.0 / SIGMOID_SCALE * _BLEND_SUP)


def clearance_error_budget(A: ConvexPolygon, B: ConvexPolygon,
                           cfg: SmoothingConfig = SmoothingConfig()) -> float:
    """Bound on |smooth - exact| signed clearance when every corner of A,
    or every corner of B, is at least 38.94 degrees, and no edge of either
    is shorter than ``MIN_BUDGET_EDGE``.

    M's edges are A's and -B's merged by angle, so each exterior angle of
    M lies inside one exterior angle of A and one of B: no corner of M is
    sharper than the blunter operand's sharpest corner. The inside branch
    lies within L_in = tau*log(n + m) below the hard margin, and outside
    M the outside branch within L_out = tau*log(2nm) <= 2 L_in below the
    distance. Outside, at distance d, the inside weight costs at most
    (1/k) sup u*sigmoid(-u) (1/sin(phi/2) - 1) <= 2/k sup u*sigmoid(-u)
    below, on top of L_out (``predicates.smooth_gaps``), and at most
    (L_in + L_out)/2 above. Inside, at depth D, every segment distance is
    at least 0 and m_in at most D, so the value is at least -D; and the
    outside weight 1 - w on m_out + D <= 2(m_in + L_in) costs at most
    2/k sup u*sigmoid(-u) + 2 L_in above. The guarded square root adds at
    most sqrt(SQRT_GUARD). The clamped inside branch, the smooth push-out
    depth, lies within L_in of the exact one with no blend term."""
    return (2.0 * cfg.tau * math.log(len(A) + len(B)) + 2.0 / SIGMOID_SCALE * _BLEND_SUP
            + math.sqrt(SQRT_GUARD))

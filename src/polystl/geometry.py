"""Smooth convex-polygon geometry: poses and the differentiable
distance/penetration/enclosure surrogates.

Coordinates are generic scalars (tape ``Var`` or plain float). The smooth
distance, penetration and point signed distance are plain-float kernels over
the float snapshot of the vertices, so both modes compute the same value bit
for bit; when some input coordinate is a ``Var`` the kernel also derives its
partials with respect to every vertex coordinate analytically and records the
result as one tape node through :func:`polystl.autodiff.lift`. Hard
counterparts for every quantity live in :mod:`polystl.exactgeo`.

The smooth distance of an n-gon and an m-gon at S samples per edge is one
flat log-sum-exp, -tau log sum exp(-d / tau), over the 2 n S m distances
from each polygon's boundary samples to the other polygon's edges (the
nested soft-min over sides, samples and edges, written as one sum). The
2 n m vertex-edge terms are always evaluated. Their minimum U bounds the
smallest term from above, and unless two edges intersect, the distances
of one edge's samples to the other edge are at least the smallest of the
pair's four endpoint terms. A pair whose bound exceeds
U + tau (CULL_GAP + log(2 n S m)) skips its interior samples: together
they weigh less than e^-CULL_GAP of the sum, which double precision
cannot see, and dropping terms only moves a soft-min towards the hard
minimum, so the budget of the full sum still holds.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

from . import autodiff as ad
from .autodiff import SQRT_GUARD, Scalar, value_of
from .exactgeo import segments_intersect, validate_convex_ccw

ScalarPoint = tuple  # (Scalar, Scalar)

DEFAULT_TAU = 1e-2
DEFAULT_SAMPLES_PER_EDGE = 16
DEFAULT_SIGMOID_SCALE = 50.0


@dataclass(frozen=True)
class SmoothingConfig:
    """Knobs shared by all smooth geometric quantities.

    tau: log-sum-exp temperature; smaller is sharper.
    samples_per_edge: boundary sample density for distance queries.
    sigmoid_scale: inside/outside blending steepness for signed distance.
    """
    tau: float = DEFAULT_TAU
    samples_per_edge: int = DEFAULT_SAMPLES_PER_EDGE
    sigmoid_scale: float = DEFAULT_SIGMOID_SCALE

    def __post_init__(self):
        for name in ("tau", "sigmoid_scale"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if self.samples_per_edge < 1:
            raise ValueError(f"samples_per_edge must be >= 1, got {self.samples_per_edge}")


@dataclass
class Pose2D:
    """Planar rigid pose; coordinates may be Vars or floats."""
    x: Scalar
    y: Scalar
    theta: Scalar

    def heading(self) -> ScalarPoint:
        return (ad.cos(self.theta), ad.sin(self.theta))


class ConvexPolygon:
    """Counter-clockwise convex polygon over generic scalar coordinates.

    Validation runs :func:`exactgeo.validate_convex_ccw` on the float
    snapshot of the coordinates; near-collinear corners inside its
    tolerance only produce a warning.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: Sequence[ScalarPoint]):
        vs = [(vx, vy) for vx, vy in vertices]
        for i in validate_convex_ccw([(value_of(vx), value_of(vy)) for vx, vy in vs]):
            warnings.warn(f"near-collinear corner at vertex {i}", stacklevel=2)
        self.vertices = vs

    def __len__(self) -> int:
        return len(self.vertices)

    def float_vertices(self) -> list[tuple[float, float]]:
        return [(value_of(x), value_of(y)) for x, y in self.vertices]

    def centroid(self, floats: bool = False) -> ScalarPoint:
        """Vertex mean; of the float snapshot, recording no node, if ``floats``."""
        vs = self.float_vertices() if floats else self.vertices
        n = len(vs)
        sx, sy = vs[0]
        for vx, vy in vs[1:]:
            sx = sx + vx
            sy = sy + vy
        return (sx / n, sy / n)

    def max_edge_length(self) -> float:
        fs = self.float_vertices()
        n = len(fs)
        return max(math.dist(fs[i], fs[(i + 1) % n]) for i in range(n))


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
        """Each world coordinate is one node over the pose and the heading's
        cos and sin, computed as x + c lx - s ly and y + s lx + c ly."""
        x, y = pose.x, pose.y
        c = ad.cos(pose.theta)
        s = ad.sin(pose.theta)
        xv, yv, cv, sv = value_of(x), value_of(y), value_of(c), value_of(s)
        world = []
        for lx, ly in self.local_vertices:
            world.append((ad.lift(xv + cv * lx - sv * ly, (x, c, s), (1.0, lx, -ly), "place"),
                          ad.lift(yv + sv * lx + cv * ly, (y, s, c), (1.0, lx, ly), "place")))
        return ConvexPolygon(world)


# -- float kernels ---------------------------------------------------------------
#
# The three smooth quantities below evaluate on the float snapshot of the
# vertices. When some input coordinate is a tape Var they also accumulate the
# analytic partials of the result with respect to every vertex coordinate (and
# the query point) in reverse order, and record the result as one tape node
# whose parents are those Vars. Distances use envelope partials: the clamped
# projection parameter of a point onto a segment is held fixed, since the
# distance is stationary in it wherever it is not clamped.


def _edge_table(fv: list[tuple[float, float]]) -> list[tuple]:
    """(ax, ay, ex, ey, ex^2 + ey^2) of each directed edge a -> a + e."""
    out = []
    for (ax, ay), (bx, by) in zip(fv, fv[1:] + fv[:1]):
        ex = bx - ax
        ey = by - ay
        out.append((ax, ay, ex, ey, ex * ex + ey * ey))
    return out


def _unit_normals(edges: Sequence[tuple]) -> list[tuple[float, float, float]]:
    """(nx, ny, guarded edge length) of each edge's inward unit normal."""
    out = []
    for _, _, ex, ey, len2 in edges:
        length = math.sqrt(len2 + SQRT_GUARD)
        out.append((-ey / length, ex / length, length))
    return out


def _segment_offsets(px: float, py: float, edges: Sequence[tuple]) -> list[tuple]:
    """(d, t, dx, dy) per edge: the guarded distance from (px, py) to the
    edge, the hard-clamped projection parameter t (a tie keeps the
    unclamped value) and the offset from the projected point."""
    out = []
    for ax, ay, ex, ey, len2 in edges:
        t = ((px - ax) * ex + (py - ay) * ey) / len2
        if t < 0.0:
            t = 0.0
        if t > 1.0:
            t = 1.0
        dx = px - (ax + t * ex)
        dy = py - (ay + t * ey)
        out.append((math.sqrt(dx * dx + dy * dy + SQRT_GUARD), t, dx, dy))
    return out


def _flat(points) -> list[Scalar]:
    return [c for pt in points for c in pt]


def _segment_adjoint(g: list[float], k: int, t: float, gx: float, gy: float) -> None:
    """Adjoint (gx, gy) of the offset p - (a + t e) pushed onto edge k's
    vertices a = v_k and a + e = v_{k+1} in the flat gradient ``g``."""
    j = 2 * ((k + 1) % (len(g) // 2))
    g[2 * k] -= (1.0 - t) * gx
    g[2 * k + 1] -= (1.0 - t) * gy
    g[j] -= t * gx
    g[j + 1] -= t * gy


def _normal_adjoint(g: list[float], k: int, edge: tuple, length: float,
                    gnx: float, gny: float) -> None:
    """Adjoint (gnx, gny) of edge k's unit normal (-ey, ex) / length pushed
    onto its vertices in the flat gradient ``g``."""
    ex, ey = edge[2], edge[3]
    inv = 1.0 / length
    c = (gnx * ey - gny * ex) * inv * inv * inv
    gex = inv * gny + c * ex
    gey = c * ey - inv * gnx
    j = 2 * ((k + 1) % (len(g) // 2))
    g[2 * k] -= gex
    g[2 * k + 1] -= gey
    g[j] += gex
    g[j + 1] += gey


def point_polygon_signed_distance(p: ScalarPoint, polygon: ConvexPolygon,
                                  cfg: SmoothingConfig = SmoothingConfig()) -> Scalar:
    """Smooth signed distance from a point to a polygon boundary, negative
    inside.

    Blends an inside depth (soft-min of inward half-plane margins) with an
    outside distance (soft-min of point-to-edge distances) through a
    sigmoid on the inside depth.
    """
    tau = cfg.tau
    coords = list(p) + _flat(polygon.vertices)
    px, py = value_of(p[0]), value_of(p[1])
    edges = _edge_table(polygon.float_vertices())
    normals = _unit_normals(edges)
    margins = [(px - ax) * nx + (py - ay) * ny
               for (ax, ay, _, _, _), (nx, ny, _) in zip(edges, normals)]
    m_in, w_in, s_in = ad.lse_parts(margins, tau, -1.0)
    offsets = _segment_offsets(px, py, edges)
    m_out, w_out, s_out = ad.lse_parts([o[0] for o in offsets], tau, -1.0)
    w = ad.sigmoid(cfg.sigmoid_scale * m_in)
    value = (1.0 - w) * m_out - w * m_in
    if not any(isinstance(c, ad.Var) for c in coords):
        return value

    g_out = 1.0 - w
    g_in = (-m_out - m_in) * (w * (1.0 - w)) * cfg.sigmoid_scale - w
    gp = [0.0, 0.0]
    gv = [0.0] * (2 * len(edges))
    for k, (edge, (nx, ny, length), (d, t, dx, dy)) in enumerate(zip(edges, normals, offsets)):
        a = g_in * (w_in[k] / s_in)   # adjoint of margin k
        if a != 0.0:
            gp[0] += a * nx
            gp[1] += a * ny
            gv[2 * k] -= a * nx
            gv[2 * k + 1] -= a * ny
            _normal_adjoint(gv, k, edge, length, a * (px - edge[0]), a * (py - edge[1]))
        c = g_out * (w_out[k] / s_out) / d   # adjoint of distance k, over d
        if c != 0.0:
            gp[0] += c * dx
            gp[1] += c * dy
            _segment_adjoint(gv, k, t, c * dx, c * dy)
    return ad.lift(value, coords, gp + gv, "point_polygon_signed_distance")


def smooth_sat_penetration(A: ConvexPolygon, B: ConvexPolygon,
                           cfg: SmoothingConfig = SmoothingConfig()) -> Scalar:
    """Smooth face-normal penetration from soft separating-axis margins:
    the smallest projection overlap over the face normals, which is not
    the depth needed to push the polygons apart once one projection holds
    the other.

    For each combined inward edge normal, project both polygons with
    soft extrema and take the soft interval overlap; the soft minimum over
    axes, clamped by relu, approximates the hard face-normal penetration.
    One temperature serves both the projection extrema and the axis
    aggregation.
    """
    tau = cfg.tau
    coords = _flat(A.vertices) + _flat(B.vertices)
    fvs = (A.float_vertices(), B.float_vertices())
    axes = []
    overlaps = []
    for owner, fv in enumerate(fvs):
        edges = _edge_table(fv)
        for k, (edge, (nx, ny, length)) in enumerate(zip(edges, _unit_normals(edges))):
            projections = [[vx * nx + vy * ny for vx, vy in f] for f in fvs]
            highs = [ad.lse_parts(pr, tau, 1.0) for pr in projections]
            lows = [ad.lse_parts(pr, tau, -1.0) for pr in projections]
            hi = ad.lse_parts([h[0] for h in highs], tau, -1.0)
            lo = ad.lse_parts([l[0] for l in lows], tau, 1.0)
            overlaps.append(hi[0] - lo[0])
            axes.append((owner, k, edge, nx, ny, length, highs, lows, hi, lo))
    total, ws, s = ad.lse_parts(overlaps, tau, -1.0)
    value = total if total > 0.0 else 0.0
    if not any(isinstance(c, ad.Var) for c in coords):
        return value

    relu = 1.0 if total > 0.0 else 0.0   # the clamp's partial, 0 at the kink
    grads = ([0.0] * (2 * len(A)), [0.0] * (2 * len(B)))
    for (owner, k, edge, nx, ny, length, highs, lows, hi, lo), w in zip(axes, ws):
        c = relu * (w / s)
        if c == 0.0:
            continue
        gnx = gny = 0.0
        for q, (fv, g) in enumerate(zip(fvs, grads)):
            ch = c * (hi[1][q] / hi[2])   # adjoint of this polygon's soft max
            cl = c * (lo[1][q] / lo[2])   # and, negated, of its soft min
            _, wh, sh = highs[q]
            _, wl, sl = lows[q]
            for i, (vx, vy) in enumerate(fv):
                a = ch * (wh[i] / sh) - cl * (wl[i] / sl)   # adjoint of projection i
                g[2 * i] += a * nx
                g[2 * i + 1] += a * ny
                gnx += a * vx
                gny += a * vy
        _normal_adjoint(grads[owner], k, edge, length, gnx, gny)
    return ad.lift(value, coords, grads[0] + grads[1], "smooth_sat_penetration")


def _kept_pairs(fa: list[tuple], fb: list[tuple], va: list[list], vb: list[list],
                cut: float) -> tuple[list[list[int]], list[list[int]]]:
    """For each edge of A, the edges of B whose pair keeps its interior
    samples, and the same for each edge of B.

    ``va[i][k]`` is the offset row of vertex i of A against edge k of B, and
    ``vb`` the converse. Unless the edges intersect, the distance from any
    point of A's edge i to B's edge k is at least the segment distance,
    which is the smallest of its four endpoint terms; the guarded sqrt is
    monotone, so the bound survives the guard. An intersecting pair is
    bounded by 0 only, and always kept."""
    n, m = len(fa), len(fb)
    keep_a = [[] for _ in range(n)]
    keep_b = [[] for _ in range(m)]
    for i in range(n):
        i1 = (i + 1) % n
        for k in range(m):
            k1 = (k + 1) % m
            if (min(va[i][k][0], va[i1][k][0], vb[k][i][0], vb[k1][i][0]) <= cut
                    or segments_intersect(fa[i], fa[i1], fb[k], fb[k1])):
                keep_a[i].append(k)
                keep_b[k].append(i)
    return keep_a, keep_b


def smooth_polygon_distance(A: ConvexPolygon, B: ConvexPolygon,
                            cfg: SmoothingConfig = SmoothingConfig()) -> Scalar:
    """Smooth boundary-to-boundary distance: one soft-min over the unsigned
    distances of every boundary sample of each polygon to every edge of the
    other, 2 n S m terms for an n-gon and an m-gon at S samples per edge.

    The vertex-edge terms (the samples at t = 0) are always evaluated; the
    interior samples of an edge pair are skipped when their terms cannot
    carry weight (see ``ad.cull_width`` and ``_kept_pairs``). Skipping terms only
    moves a soft-min towards the hard minimum, so the log-sum-exp gap of the
    full sum still bounds the error."""
    tau = cfg.tau
    coords = _flat(A.vertices) + _flat(B.vertices)
    n = 2 * len(A)
    # a polygon with no Var coordinate gets no partials, so none are pushed to it
    live = (any(isinstance(c, ad.Var) for c in coords[:n]),
            any(isinstance(c, ad.Var) for c in coords[n:]))
    fa, fb = A.float_vertices(), B.float_vertices()
    ea, eb = _edge_table(fa), _edge_table(fb)
    va = [_segment_offsets(x, y, eb) for x, y in fa]
    vb = [_segment_offsets(x, y, ea) for x, y in fb]
    n_terms = 2 * len(ea) * cfg.samples_per_edge * len(eb)
    cut = min(o[0] for row in va + vb for o in row) + ad.cull_width(tau, n_terms)
    keep_a, keep_b = _kept_pairs(fa, fb, va, vb, cut)

    # the interior boundary samples: a + t e at t = j * (1 / S), 0 < j < S
    inv = 1.0 / cfg.samples_per_edge
    interior = [j * inv for j in range(1, cfg.samples_per_edge)]
    dists = []
    rows = [] if any(live) else None   # (side, src edge, t, dst edges, offsets) per sample
    for side, src, dst, verts, keep in ((0, ea, eb, va, keep_a), (1, eb, ea, vb, keep_b)):
        every = range(len(dst))
        for i, (ax, ay, ex, ey, _) in enumerate(src):
            samples = [(0.0, every, verts[i])]
            ks = keep[i]
            if ks:
                near = [dst[k] for k in ks]
                samples += [(t, ks, _segment_offsets(ax + t * ex, ay + t * ey, near))
                            for t in interior]
            for t, ks, offsets in samples:
                dists += [o[0] for o in offsets]
                if rows is not None:
                    rows.append((side, i, t, ks, offsets))
    value, ws, s = ad.lse_parts(dists, tau, -1.0)
    if rows is None:
        return value

    grads = ([0.0] * n, [0.0] * (len(coords) - n))
    pos = 0
    for side, i, t, ks, offsets in rows:
        g_dst = grads[1 - side] if live[1 - side] else None
        gx = gy = 0.0
        for k, (d, tk, dx, dy), w in zip(ks, offsets, ws[pos:pos + len(offsets)]):
            c = (w / s) / d   # adjoint of this term, over its distance
            if c != 0.0:
                if g_dst is not None:
                    _segment_adjoint(g_dst, k, tk, c * dx, c * dy)
                gx += c * dx
                gy += c * dy
        pos += len(offsets)
        # the sample is a + t e on the source's edge i; the offset's sign flips
        if live[side]:
            _segment_adjoint(grads[side], i, t, -gx, -gy)
    return ad.lift(value, coords, grads[0] + grads[1], "smooth_polygon_distance")


def signed_clearance(A: ConvexPolygon, B: ConvexPolygon,
                     cfg: SmoothingConfig = SmoothingConfig()) -> Scalar:
    """Smooth distance minus smooth penetration: positive when separated,
    negative when the boundaries cross. Separated, the penetration term is
    ~0; crossing, the distance term is ~0. Under containment neither is:
    the sampled distance measures boundary to boundary, so it keeps the
    gap between the two boundaries although the exact distance is 0, and
    the difference can take either sign."""
    return smooth_polygon_distance(A, B, cfg) - smooth_sat_penetration(A, B, cfg)


# -- error budget ----------------------------------------------------------

# Calibrated constant for the sampling term of the accuracy budget
# C*h + tau*sum(log N_k): fitted once against the exact reference on the
# frozen random-pair suite (scripts/calibrate_bounds.py) and kept as a
# regression bound.
# Calibrated once over a 300-pair random suite at (tau, S) in
# {(1e-3,32), (1e-2,16), (1e-1,4)}; the largest coefficient any pair
# required was 0.10, frozen here with 2.5x headroom. Rederive with
# scripts/calibrate_bounds.py after touching the distance kernels.
SAMPLING_ERROR_COEFF = 0.25


def distance_error_budget(A: ConvexPolygon, B: ConvexPolygon,
                          cfg: SmoothingConfig = SmoothingConfig()) -> float:
    """Upper bound on |smooth - exact| for the boundary-sampled distance:
    a C*h sampling term plus the log-sum-exp gap tau*log(2nSm) of the one
    flat soft-min over all sample-edge terms. The culled terms only raise
    the value towards the hard minimum over the samples, so the gap of the
    full sum still bounds it from below."""
    s = cfg.samples_per_edge
    h = max(A.max_edge_length(), B.max_edge_length()) / s
    return SAMPLING_ERROR_COEFF * h + cfg.tau * math.log(2 * len(A) * s * len(B))


def penetration_error_budget(A: ConvexPolygon, B: ConvexPolygon,
                             cfg: SmoothingConfig = SmoothingConfig()) -> float:
    """Log-sum-exp budget for the soft separating-axis penetration (no
    sampling term; projections use vertices only)."""
    axes = len(A) + len(B)
    verts = max(len(A), len(B))
    return cfg.tau * (math.log(axes) + 2.0 * math.log(verts) + 2.0 * math.log(2.0))


# sup over u > 0 of u * sigmoid(-u), attained near u = 1.2785; rounded up so
# the blended signed-distance budget below stays a true upper bound
_BLEND_SUP = 0.2785


def enclosure_error_budget(inner: ConvexPolygon, outer: ConvexPolygon,
                           cfg: SmoothingConfig = SmoothingConfig()) -> float:
    """How far the smooth containment margin of two polygons can rise
    above the exact one, when every corner of the outer polygon is at least
    38.94 degrees. Nothing bounds the fall below, nor the rise past a
    sharper corner: ``predicates.smooth_gaps`` gives the argument and
    ``test_enclosure_budget_fails_*`` in the predicate tests both failures.

    Each inner vertex contributes a blended signed distance whose two
    branches are soft-mins over the outer edges (gap tau*log E each); near
    blunt corners the wrong branch carries sigmoid weight and misses by at
    most (2/k)*sup u*sigmoid(-u). The soft-max over inner vertices stacks
    one more tau*log V on top.
    """
    return (cfg.tau * (math.log(len(inner)) + math.log(len(outer)))
            + 2.0 / cfg.sigmoid_scale * _BLEND_SUP)

"""Reference copies of the scalar Var-path geometry kernels.

These are the smooth distance, penetration and point signed distance as
they were before the kernels were fused into single tape nodes: every
boundary sample against every edge is recorded as a chain of scalar tape
operations. The bodies below are kept verbatim, together with the hard
``max2``/``min2`` they clamp with, so the fused kernels can be checked
against them for equal values and matching adjoints.

``sqrt_guarded`` is the guarded square root those bodies measure with.
``polygon_edges``, ``sample_boundary``, ``edge_normals`` and
``point_segment_distance`` take floats as well as Vars, so they also serve
the tests as float helpers.
``segment_distance`` is the exact distance of two closed segments, the
edge-pair formulation ``exactgeo.exact_distance`` is checked against.
"""
import math
import types
from dataclasses import dataclass

from polystl import autodiff as _autodiff
from polystl import exactgeo as _exactgeo
from polystl.autodiff import SQRT_GUARD, Scalar, lift, value_of
from polystl.geometry import ConvexPolygon, ScalarPoint, SmoothingConfig


def max2(a: Scalar, b: Scalar) -> Scalar:
    """Hard max; on a tie the first operand wins the subgradient."""
    av = value_of(a)
    bv = value_of(b)
    if av >= bv:
        return lift(av, (a, b), (1.0, 0.0), "max2")
    return lift(bv, (a, b), (0.0, 1.0), "max2")


def min2(a: Scalar, b: Scalar) -> Scalar:
    """Hard min; on a tie the first operand wins the subgradient."""
    av = value_of(a)
    bv = value_of(b)
    if av <= bv:
        return lift(av, (a, b), (1.0, 0.0), "min2")
    return lift(bv, (a, b), (0.0, 1.0), "min2")


def sqrt_guarded(x: Scalar) -> Scalar:
    """sqrt(x + guard): keeps the derivative finite where two points meet."""
    r = math.sqrt(value_of(x) + SQRT_GUARD)
    return lift(r, (x,), (0.5 / r,), "sqrt_guarded")


ad = types.SimpleNamespace(**vars(_autodiff), max2=max2, min2=min2, sqrt_guarded=sqrt_guarded)


def polygon_edges(polygon: ConvexPolygon) -> list[tuple[ScalarPoint, ScalarPoint]]:
    """Each edge as (start, end), counter-clockwise from vertex 0."""
    vs = polygon.vertices
    return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


@dataclass
class BoundarySamples:
    """Evenly spaced boundary points with their worst-case spacing."""
    points: list[ScalarPoint]
    spacing: float


def sample_boundary(polygon: ConvexPolygon, samples_per_edge: int) -> BoundarySamples:
    """S points per edge at parameters k/S (each vertex appears once, as the
    k=0 sample of its outgoing edge); spacing is max edge length / S."""
    if samples_per_edge < 1:
        raise ValueError(f"samples_per_edge must be >= 1, got {samples_per_edge}")
    pts = []
    inv = 1.0 / samples_per_edge
    for (ax, ay), (bx, by) in polygon_edges(polygon):
        ex = bx - ax
        ey = by - ay
        for k in range(samples_per_edge):
            t = k * inv
            if t == 0.0:
                pts.append((ax, ay))
            else:
                pts.append((ax + t * ex, ay + t * ey))
    return BoundarySamples(pts, polygon.max_edge_length() / samples_per_edge)


def edge_normals(polygon: ConvexPolygon) -> list[ScalarPoint]:
    """Inward unit normals, one per directed edge (interior is to the left
    of a counter-clockwise edge)."""
    normals = []
    for (ax, ay), (bx, by) in polygon_edges(polygon):
        ex = bx - ax
        ey = by - ay
        length = ad.sqrt_guarded(ex * ex + ey * ey)
        normals.append((-ey / length, ex / length))
    return normals


def point_segment_distance(p: ScalarPoint, a: ScalarPoint, b: ScalarPoint) -> Scalar:
    """Distance from p to segment ab with a hard-clamped projection; the
    guarded sqrt keeps the gradient finite at contact."""
    px, py = p
    ax, ay = a
    bx, by = b
    ex = bx - ax
    ey = by - ay
    len2 = ex * ex + ey * ey
    t = ad.min2(ad.max2(((px - ax) * ex + (py - ay) * ey) / len2, 0.0), 1.0)
    dx = px - (ax + t * ex)
    dy = py - (ay + t * ey)
    return ad.sqrt_guarded(dx * dx + dy * dy)


def point_polygon_signed_distance(p: ScalarPoint, polygon: ConvexPolygon,
                                  cfg: SmoothingConfig = SmoothingConfig()) -> Scalar:
    """Smooth signed distance from a point to a polygon boundary, negative
    inside.

    Blends an inside depth (soft-min of inward half-plane margins) with an
    outside distance (soft-min of point-to-edge distances) through a
    sigmoid on the inside depth.
    """
    tau = cfg.tau
    px, py = p
    margins = []
    edges = polygon_edges(polygon)
    for (vx, vy), (nx, ny) in zip([e[0] for e in edges], edge_normals(polygon)):
        margins.append((px - vx) * nx + (py - vy) * ny)
    m_in = ad.lse_min(margins, tau)
    m_out = ad.lse_min([point_segment_distance(p, a, b) for a, b in edges], tau)
    w = ad.sigmoid(cfg.sigmoid_scale * m_in)
    return (1.0 - w) * m_out - w * m_in


def smooth_sat_penetration(A: ConvexPolygon, B: ConvexPolygon,
                           cfg: SmoothingConfig = SmoothingConfig()) -> Scalar:
    """Smooth penetration depth from soft separating-axis margins.

    For each combined inward edge normal, project both polygons with
    soft extrema and take the soft interval overlap; the soft minimum over
    axes, clamped by relu, approximates the hard face-normal penetration.
    One temperature serves both the projection extrema and the axis
    aggregation.
    """
    tau = cfg.tau
    overlaps = []
    a_verts = A.vertices
    b_verts = B.vertices
    for normals in (edge_normals(A), edge_normals(B)):
        for nx, ny in normals:
            pa = [vx * nx + vy * ny for vx, vy in a_verts]
            pb = [vx * nx + vy * ny for vx, vy in b_verts]
            hi = ad.lse_min([ad.lse_max(pa, tau), ad.lse_max(pb, tau)], tau)
            lo = ad.lse_max([ad.lse_min(pa, tau), ad.lse_min(pb, tau)], tau)
            overlaps.append(hi - lo)
    return ad.relu(ad.lse_min(overlaps, tau))


def smooth_polygon_distance(A: ConvexPolygon, B: ConvexPolygon,
                            cfg: SmoothingConfig = SmoothingConfig()) -> Scalar:
    """Smooth boundary-to-boundary distance: symmetric soft-min over the
    unsigned distances of each polygon's boundary samples to the other
    polygon's edges."""
    tau = cfg.tau
    sides = []
    for src, dst in ((A, B), (B, A)):
        edges = polygon_edges(dst)
        dists = []
        for p in sample_boundary(src, cfg.samples_per_edge).points:
            dists.append(ad.lse_min([point_segment_distance(p, a, b) for a, b in edges], tau))
        sides.append(ad.lse_min(dists, tau))
    return ad.lse_min(sides, tau)


def signed_clearance(A: ConvexPolygon, B: ConvexPolygon,
                     cfg: SmoothingConfig = SmoothingConfig()) -> Scalar:
    """Smooth distance minus smooth penetration: positive when separated,
    negative when overlapping; in each regime the other term is ~0."""
    return smooth_polygon_distance(A, B, cfg) - smooth_sat_penetration(A, B, cfg)


def flat_polygon_distance(A: ConvexPolygon, B: ConvexPolygon,
                          cfg: SmoothingConfig = SmoothingConfig()) -> float:
    """The smooth distance as one log-sum-exp over all 2 n S m distances
    from each polygon's boundary samples to the other polygon's edges, with
    no term skipped; float polygons only."""
    dists = []
    for src, dst in ((A, B), (B, A)):
        edges = polygon_edges(dst)
        for p in sample_boundary(src, cfg.samples_per_edge).points:
            dists += [point_segment_distance(p, a, b) for a, b in edges]
    return ad.lse_min(dists, cfg.tau)


def segment_distance(a1, a2, b1, b2) -> float:
    if _exactgeo.segments_intersect(a1, a2, b1, b2):
        return 0.0
    return min(_exactgeo.point_segment_distance(a1, b1, b2),
               _exactgeo.point_segment_distance(a2, b1, b2),
               _exactgeo.point_segment_distance(b1, a1, a2),
               _exactgeo.point_segment_distance(b2, a1, a2))

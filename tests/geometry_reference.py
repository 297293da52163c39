"""Reference copies of the scalar Var-path geometry kernels, and brute-force
references for the exact pair geometry.

``place`` is ``PolygonTemplate.at`` as it was before placement left the
tape: with a pose of tape variables, every product, sum and difference of
the pose chain is a ``Var`` node, and the vertices it returns are ``Var``
pairs. ``point_polygon_signed_distance`` is the point signed distance as it
was before the kernels were fused into single tape nodes, recorded as a
chain of scalar tape operations; the body is kept verbatim, together with
the hard ``max2``/``min2`` it clamps with, so the fused kernels can be
checked against it for equal values and matching adjoints.
``smooth_enclosure`` is the enclosure kernel as it was before it became one
node: that distance per inner vertex, then their soft maximum.
``signed_clearance`` writes the fused pair kernel the same way, with every
point a_i - b_j a tape difference. They read only ``.vertices``, so they
take what ``place`` returns as well as a ``ConvexPolygon``.

``sqrt_guarded`` is the guarded square root those bodies measure with.
``polygon_edges``, ``sample_boundary``, ``edge_normals`` and
``point_segment_distance`` take floats as well as Vars, so they also serve
the tests as float helpers.

``segment_distance`` is the exact distance of two closed segments, and
``brute_clearance`` the signed clearance of two polygons from the
polygons themselves, never from their Minkowski difference: the
references ``exactgeo``'s pair functions are checked against.
"""
import math
import types
from dataclasses import dataclass

from polystl import autodiff as _autodiff
from polystl import exactgeo as _exactgeo
from polystl.autodiff import SQRT_GUARD, Scalar, lift, value_of
from polystl.geometry import SIGMOID_SCALE, ConvexPolygon, PolygonTemplate, Pose2D, SmoothingConfig

ScalarPoint = tuple  # (Scalar, Scalar)


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


def place(template: PolygonTemplate, pose: Pose2D) -> types.SimpleNamespace:
    c = ad.cos(pose.theta)
    s = ad.sin(pose.theta)
    world = []
    for lx, ly in template.local_vertices:
        world.append((pose.x + c * lx - s * ly,
                      pose.y + s * lx + c * ly))
    return types.SimpleNamespace(vertices=world)


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
    fs = [(value_of(x), value_of(y)) for x, y in polygon.vertices]
    longest = max(math.dist(a, b) for a, b in zip(fs, fs[1:] + fs[:1]))
    return BoundarySamples(pts, longest / samples_per_edge)


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
    w = ad.sigmoid(SIGMOID_SCALE * m_in)
    return (1.0 - w) * m_out - w * m_in


def smooth_enclosure(inner: ConvexPolygon, outer: ConvexPolygon,
                     cfg: SmoothingConfig = SmoothingConfig()) -> Scalar:
    return ad.lse_max([point_polygon_signed_distance(v, outer, cfg) for v in inner.vertices],
                      cfg.tau)


def signed_clearance(A: ConvexPolygon, B: ConvexPolygon,
                     cfg: SmoothingConfig = SmoothingConfig()) -> Scalar:
    """Smooth signed clearance as scalar tape operations: every point
    a_i - b_j is a tape difference; the inside branch is the soft-min of
    the inward margins of M's edges, in the order
    ``exactgeo.minkowski_difference`` merges them, and the outside branch
    the soft-min of the distances to the 2 n m segments from a_i - b_j to
    a_(i+1) - b_j, then to a_i - b_(j+1)."""
    tau = cfg.tau
    va, vb = A.vertices, B.vertices
    n, m = len(va), len(vb)
    pt = [[(a[0] - b[0], a[1] - b[1]) for b in vb] for a in va]
    fa, fb = ([(value_of(x), value_of(y)) for x, y in vs] for vs in (va, vb))
    _, pairs = _exactgeo.minkowski_difference(fa, fb)
    ring = [pt[i][j] for i, j in pairs]
    M = types.SimpleNamespace(vertices=ring)
    margins = []
    for (vx, vy), (nx, ny) in zip(ring, edge_normals(M)):
        margins.append((0.0 - vx) * nx + (0.0 - vy) * ny)
    m_in = ad.lse_min(margins, tau)
    segs = ([(pt[i][j], pt[(i + 1) % n][j]) for i in range(n) for j in range(m)]
            + [(pt[i][j], pt[i][(j + 1) % m]) for i in range(n) for j in range(m)])
    m_out = ad.lse_min([point_segment_distance((0.0, 0.0), a, b) for a, b in segs], tau)
    w = ad.sigmoid(SIGMOID_SCALE * m_in)
    return (1.0 - w) * m_out - w * m_in


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def segments_intersect(a1, a2, b1, b2) -> bool:
    """Closed-segment intersection, collinear overlaps included."""
    d1 = _orient(b1, b2, a1)
    d2 = _orient(b1, b2, a2)
    d3 = _orient(a1, a2, b1)
    d4 = _orient(a1, a2, b2)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True

    def on_segment(p, q, r):
        return (min(p[0], r[0]) <= q[0] <= max(p[0], r[0]) and
                min(p[1], r[1]) <= q[1] <= max(p[1], r[1]))

    return ((d1 == 0 and on_segment(b1, a1, b2)) or (d2 == 0 and on_segment(b1, a2, b2))
            or (d3 == 0 and on_segment(a1, b1, a2)) or (d4 == 0 and on_segment(a1, b2, a2)))


def segment_distance(a1, a2, b1, b2) -> float:
    if segments_intersect(a1, a2, b1, b2):
        return 0.0
    return min(_exactgeo.point_segment_distance(a1, b1, b2),
               _exactgeo.point_segment_distance(a2, b1, b2),
               _exactgeo.point_segment_distance(b1, a1, a2),
               _exactgeo.point_segment_distance(b2, a1, a2))


def brute_clearance(A, B) -> float:
    """Signed clearance of two float polygons by brute force.

    Over both polygons' face normals, the push-out along a normal is
    min(a_max - b_min, b_max - a_min) of the two projections. If some
    push-out is negative, that normal separates the polygons, and the
    clearance is the smallest vertex-to-edge distance in either direction.
    Otherwise it is minus the smallest push-out, the depth."""
    push = math.inf
    for poly in (A, B):
        n = len(poly)
        for i in range(n):
            (ax, ay), (bx, by) = poly[i], poly[(i + 1) % n]
            nx, ny = ay - by, bx - ax
            length = math.hypot(nx, ny)
            pa = [(x * nx + y * ny) / length for x, y in A]
            pb = [(x * nx + y * ny) / length for x, y in B]
            push = min(push, max(pa) - min(pb), max(pb) - min(pa))
    if push >= 0.0:
        return -push
    return min(_exactgeo.point_segment_distance(p, dst[k], dst[(k + 1) % len(dst)])
               for src, dst in ((A, B), (B, A)) for p in src for k in range(len(dst)))

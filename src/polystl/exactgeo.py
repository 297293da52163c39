"""Exact reference geometry for convex polygons, plain floats only.

Deliberately independent of the smooth pipeline: hard separating-axis
tests, hard point/segment projections, hard min/max. Every smoothed
quantity in :mod:`polystl.geometry` is regression-tested against the
functions here.
"""
from __future__ import annotations

import math
from typing import Sequence, Tuple

Point = Tuple[float, float]

COLLINEAR_EPS = 1e-9


class GeometryError(ValueError):
    """Invalid polygon or degenerate query."""


def signed_area2(vertices: Sequence[Point]) -> float:
    """Twice the signed area; positive for counter-clockwise order."""
    total = 0.0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total


def validate_convex_ccw(vertices: Sequence[Point]) -> list[int]:
    """Raise unless vertices form a finite counter-clockwise convex polygon.

    The signed area, each edge's squared length, each vertex's squared
    norm and the cross products of consecutive edges must be finite, and
    the cross products >= -1e-9; zero-length edges are rejected. Returns
    the indices of the near-collinear corners, whose cross product lies
    inside that tolerance.
    """
    n = len(vertices)
    if n < 3:
        raise GeometryError(f"polygon needs at least 3 vertices, got {n}")
    for i, (x, y) in enumerate(vertices):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise GeometryError(f"non-finite coordinate at vertex {i}: ({x!r}, {y!r})")
    area2 = signed_area2(vertices)
    if not math.isfinite(area2):   # NaN would pass every test below
        raise GeometryError(f"signed area overflows ({area2!r}); coordinates too large")
    if area2 <= 0.0:
        raise GeometryError("vertices are clockwise; counter-clockwise order required")
    collinear = []
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        cx, cy = vertices[(i + 2) % n]
        e1x, e1y = bx - ax, by - ay
        e2x, e2y = cx - bx, cy - by
        len2 = e1x * e1x + e1y * e1y
        norm2 = ax * ax + ay * ay
        if not math.isfinite(len2):
            raise GeometryError(f"squared edge length at vertex {i} overflows ({len2!r}); "
                                "coordinates too large")
        if not math.isfinite(norm2):
            raise GeometryError(f"squared norm of vertex {i} overflows ({norm2!r}); "
                                "coordinates too large")
        if len2 < 1e-24:
            raise GeometryError(f"zero-length edge at vertex {i}")
        cross = e1x * e2y - e1y * e2x
        if not math.isfinite(cross):
            raise GeometryError(f"cross product at vertex {(i + 1) % n} overflows ({cross!r}); "
                                "coordinates too large")
        if cross < -COLLINEAR_EPS:
            raise GeometryError(
                f"reflex corner at vertex {(i + 1) % n} (cross product {cross:.3g})")
        if cross < COLLINEAR_EPS:
            collinear.append((i + 1) % n)
    return collinear


def inward_edge_normals(vertices: Sequence[Point]) -> list[Point]:
    """Unit normals pointing into the polygon, one per directed edge."""
    n = len(vertices)
    normals = []
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        length = math.hypot(ex, ey)
        if length == 0.0:
            raise GeometryError(f"zero-length edge at vertex {i}")
        # interior lies to the left of a counter-clockwise edge
        normals.append((-ey / length, ex / length))
    return normals


def centroid(vertices: Sequence[Point]) -> Point:
    n = len(vertices)
    return (sum(v[0] for v in vertices) / n, sum(v[1] for v in vertices) / n)


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    px, py = p
    ax, ay = a
    bx, by = b
    ex, ey = bx - ax, by - ay
    len2 = ex * ex + ey * ey
    if len2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * ex + (py - ay) * ey) / len2
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(px - (ax + t * ex), py - (ay + t * ey))


def _orient(a: Point, b: Point, c: Point) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def segments_intersect(a1: Point, a2: Point, b1: Point, b2: Point) -> bool:
    """Closed-segment intersection, collinear overlaps included."""
    d1 = _orient(b1, b2, a1)
    d2 = _orient(b1, b2, a2)
    d3 = _orient(a1, a2, b1)
    d4 = _orient(a1, a2, b2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and \
       ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True

    def on_segment(p, q, r):
        return (min(p[0], r[0]) <= q[0] <= max(p[0], r[0]) and
                min(p[1], r[1]) <= q[1] <= max(p[1], r[1]))

    if d1 == 0 and on_segment(b1, a1, b2):
        return True
    if d2 == 0 and on_segment(b1, a2, b2):
        return True
    if d3 == 0 and on_segment(a1, b1, a2):
        return True
    if d4 == 0 and on_segment(a1, b2, a2):
        return True
    return False


def _edges(vertices: Sequence[Point]):
    n = len(vertices)
    for i in range(n):
        yield vertices[i], vertices[(i + 1) % n]


def _axis_overlaps(A: Sequence[Point], B: Sequence[Point]):
    """Hard interval-overlap margin per combined edge normal.

    Margin for axis n is min(max proj A, max proj B) - max(min proj A,
    min proj B); negative on any axis means the polygons are separated.
    """
    for poly in (A, B):
        for nx, ny in inward_edge_normals(poly):
            a_min = a_max = A[0][0] * nx + A[0][1] * ny
            for vx, vy in A[1:]:
                p = vx * nx + vy * ny
                if p < a_min:
                    a_min = p
                elif p > a_max:
                    a_max = p
            b_min = b_max = B[0][0] * nx + B[0][1] * ny
            for vx, vy in B[1:]:
                p = vx * nx + vy * ny
                if p < b_min:
                    b_min = p
                elif p > b_max:
                    b_max = p
            yield min(a_max, b_max) - max(a_min, b_min)


def polygons_intersect(A: Sequence[Point], B: Sequence[Point]) -> bool:
    """Separating-axis test; touching counts as intersecting."""
    return all(margin >= 0.0 for margin in _axis_overlaps(A, B))


def exact_distance(A: Sequence[Point], B: Sequence[Point]) -> float:
    """Minimum boundary-to-boundary distance; 0 if the polygons intersect.

    Disjoint polygons have no two edges that meet, so the distance of every
    edge pair is attained at an endpoint, and the minimum over all pairs is
    the smallest vertex-edge distance in either direction."""
    if polygons_intersect(A, B):
        return 0.0
    return min(point_segment_distance(p, a, b)
               for src, dst in ((A, B), (B, A)) for p in src for a, b in _edges(dst))


def exact_penetration(A: Sequence[Point], B: Sequence[Point]) -> float:
    """Smallest interval-overlap margin over combined face normals,
    clamped at 0; positive only when the polygons intersect."""
    return max(0.0, min(_axis_overlaps(A, B)))


def exact_clearance(A: Sequence[Point], B: Sequence[Point]) -> float:
    """Distance when disjoint, negated penetration when intersecting."""
    d = exact_distance(A, B)
    if d > 0.0:
        return d
    return -exact_penetration(A, B)


def point_in_polygon(p: Point, vertices: Sequence[Point]) -> bool:
    """Half-plane membership test for a convex counter-clockwise polygon;
    boundary points count as inside."""
    px, py = p
    for (ax, ay), (bx, by) in _edges(vertices):
        if (bx - ax) * (py - ay) - (by - ay) * (px - ax) < 0.0:
            return False
    return True


def exact_point_signed_distance(p: Point, vertices: Sequence[Point]) -> float:
    """Distance from p to the polygon boundary, negative inside."""
    d = min(point_segment_distance(p, a, b) for a, b in _edges(vertices))
    return -d if point_in_polygon(p, vertices) else d


def polygon_contains_polygon(outer: Sequence[Point], inner: Sequence[Point]) -> bool:
    return all(point_in_polygon(v, outer) for v in inner)


def diameter(vertices: Sequence[Point]) -> float:
    n = len(vertices)
    return max(math.dist(vertices[i], vertices[j])
               for i in range(n) for j in range(i + 1, n))

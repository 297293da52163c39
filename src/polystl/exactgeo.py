"""Exact reference geometry for convex polygons, plain floats only.

Deliberately independent of the smooth pipeline: hard point/segment
projections, hard half-plane tests, hard min/max. Every pair quantity is
the origin's signed distance to the Minkowski difference
M = A + (-B) = {a - b}, which :func:`minkowski_difference` builds in
O(n + m): the origin lies in M iff the polygons intersect, its distance
to M outside is their distance, and its distance to M's boundary inside
is the depth that pushes them apart. Every smoothed quantity in
:mod:`polystl.geometry` is regression-tested against the functions here.
"""
from __future__ import annotations

import math
from operator import itemgetter
from typing import Sequence, Tuple

Point = Tuple[float, float]

COLLINEAR_EPS = 1e-9

_YX = itemgetter(1, 0)   # orders points by y, then x


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


def centroid(vertices: Sequence[Point]) -> Point:
    """Vertex mean, added left to right (``sum`` compensates from 3.12 on)."""
    sx, sy = vertices[0]
    for vx, vy in vertices[1:]:
        sx, sy = sx + vx, sy + vy
    return (sx / len(vertices), sy / len(vertices))


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


def _edges(vertices: Sequence[Point]):
    n = len(vertices)
    for i in range(n):
        yield vertices[i], vertices[(i + 1) % n]


def minkowski_difference(A: Sequence[Point],
                         B: Sequence[Point]) -> tuple[list[Point], list[tuple[int, int]]]:
    """Counter-clockwise vertices of M = A + (-B), and the index pair
    (i, j) of each vertex a_i - b_j.

    Both edge sequences start at their polygon's lowest (then leftmost)
    vertex, -B's being B's highest (then rightmost), and are merged by
    angle through the cross product of the two current edges. Exactly
    parallel edges are not merged: A's goes first, so M always has n + m
    vertices, and the two edges meet at a straight corner. M is convex by
    construction and is not validated again: near-parallel edges of A and
    B give near-collinear corners."""
    n, m = len(A), len(B)
    i0 = A.index(min(A, key=_YX))
    j0 = B.index(max(B, key=_YX))
    ra, rb = (A[i0:] + A[:i0]) * 2, (B[j0:] + B[:j0]) * 2
    verts, pairs = [], []
    i = j = 0
    while i < n or j < m:
        (ax, ay), (bx, by) = ra[i], rb[j]
        verts.append((ax - bx, ay - by))
        pairs.append(((i0 + i) % n, (j0 + j) % m))
        (cx, cy), (dx, dy) = ra[i + 1], rb[j + 1]
        # A's edge is c - a; -B's edge is -(d - b)
        cross = (cx - ax) * (by - dy) - (cy - ay) * (bx - dx)
        step_a = j == m or (i < n and cross >= 0.0)
        step_b = i == n or (j < m and cross < 0.0)
        i += step_a
        j += step_b
    return verts, pairs


def exact_clearance(A: Sequence[Point], B: Sequence[Point]) -> float:
    """Signed distance of the origin to M = A + (-B): the distance of the
    polygons when they are apart, minus the depth that pushes them apart
    when they overlap (also when one contains the other)."""
    return exact_point_signed_distance((0.0, 0.0), minkowski_difference(A, B)[0])


def exact_distance(A: Sequence[Point], B: Sequence[Point]) -> float:
    """Minimum distance; 0 if the polygons intersect: the clearance's
    positive part."""
    return max(0.0, exact_clearance(A, B))


def exact_penetration(A: Sequence[Point], B: Sequence[Point]) -> float:
    """Push-out depth, the shortest translation that separates the
    polygons; 0 when they are apart: the clearance's negated negative
    part."""
    return max(0.0, -exact_clearance(A, B))


def polygons_intersect(A: Sequence[Point], B: Sequence[Point]) -> bool:
    """Whether the origin lies in M; touching counts as intersecting."""
    return point_in_polygon((0.0, 0.0), minkowski_difference(A, B)[0])


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

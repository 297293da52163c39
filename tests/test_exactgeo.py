"""Reference geometry: hand-worked values, brute-force cross-checks, metric
properties on random shapes."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geometry_reference as ref
from polystl import exactgeo as xg
from polystl.randgeom import convex_hull, pair_for_index, random_convex_polygon

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def square(cx, cy, half):
    return [(cx - half, cy - half), (cx + half, cy - half),
            (cx + half, cy + half), (cx - half, cy + half)]


# -- validation -----------------------------------------------------------


def test_validate_accepts_ccw_square():
    xg.validate_convex_ccw(UNIT_SQUARE)


def test_validate_rejects_clockwise():
    with pytest.raises(xg.GeometryError, match="clockwise"):
        xg.validate_convex_ccw(list(reversed(UNIT_SQUARE)))


def test_validate_rejects_reflex():
    with pytest.raises(xg.GeometryError, match="reflex"):
        xg.validate_convex_ccw([(0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)])


def test_validate_rejects_too_few_vertices():
    with pytest.raises(xg.GeometryError, match="3 vertices"):
        xg.validate_convex_ccw([(0, 0), (1, 0)])


def test_validate_rejects_duplicate_vertex():
    with pytest.raises(xg.GeometryError, match="zero-length"):
        xg.validate_convex_ccw([(0, 0), (1, 0), (1, 0), (0, 1)])


def test_validate_rejects_non_finite_coordinates():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(xg.GeometryError, match="non-finite"):
            xg.validate_convex_ccw([(0, 0), (1, 0), (1, bad), (0, 1)])


def test_validate_returns_near_collinear_corners():
    assert xg.validate_convex_ccw(UNIT_SQUARE) == []
    assert xg.validate_convex_ccw([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)]) == [1]


def test_centroid_is_vertex_mean():
    assert xg.centroid(UNIT_SQUARE) == pytest.approx((0.5, 0.5))


# -- hand-worked distances --------------------------------------------------


def test_distance_axis_aligned_squares():
    # unit squares centered at (0.5,0.5) and (3.5,0.5): gap between x=1 and x=3
    assert xg.exact_distance(UNIT_SQUARE, square(3.5, 0.5, 0.5)) == pytest.approx(2.0)


def test_distance_zero_when_overlapping():
    assert xg.exact_distance(UNIT_SQUARE, square(1.0, 0.5, 0.5)) == 0.0


def test_distance_diagonal_corner_gap():
    b = [(2.0, 2.0), (3.0, 2.0), (3.0, 3.0), (2.0, 3.0)]
    assert xg.exact_distance(UNIT_SQUARE, b) == pytest.approx(math.sqrt(2.0))


def test_penetration_shifted_unit_squares():
    b = [(0.6, 0.0), (1.6, 0.0), (1.6, 1.0), (0.6, 1.0)]
    assert xg.exact_penetration(UNIT_SQUARE, b) == pytest.approx(0.4)
    assert xg.exact_clearance(UNIT_SQUARE, b) == pytest.approx(-0.4)


def test_penetration_zero_when_disjoint():
    assert xg.exact_penetration(UNIT_SQUARE, square(3.5, 0.5, 0.5)) == 0.0


def test_clearance_zero_when_touching():
    b = [(1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0)]
    assert xg.exact_clearance(UNIT_SQUARE, b) == 0.0


def test_point_signed_distance_inside_and_outside():
    assert xg.exact_point_signed_distance((0.5, 0.5), UNIT_SQUARE) == pytest.approx(-0.5)
    assert xg.exact_point_signed_distance((2.0, 0.5), UNIT_SQUARE) == pytest.approx(1.0)
    assert xg.exact_point_signed_distance((1.0, 0.5), UNIT_SQUARE) == 0.0
    # outside near a corner: euclidean distance to the vertex
    assert xg.exact_point_signed_distance((2.0, 2.0), UNIT_SQUARE) == pytest.approx(math.sqrt(2.0))


def test_segment_distance_parallel():
    assert ref.segment_distance((0, 0), (1, 0), (0, 1), (1, 1)) == pytest.approx(1.0)
    assert ref.segment_distance((0, 0), (1, 0), (0.5, -1), (0.5, 1)) == 0.0


def _edge_pair_distance(A, B):
    """exact_distance as first written: every edge pair's segment distance,
    each with its own intersection test."""
    if xg.polygons_intersect(A, B):
        return 0.0
    n, m = len(A), len(B)
    return min(ref.segment_distance(A[i], A[(i + 1) % n], B[k], B[(k + 1) % m])
               for i in range(n) for k in range(m))


TOUCHING_OR_COLLINEAR = [
    square(1.5, 0.5, 0.5),                              # a shared edge
    square(1.5, 1.5, 0.5),                              # corner to corner
    [(1.0, 0.5), (2.0, 0.0), (2.0, 1.0)],               # a vertex on an edge
    [(1.25, 0.5), (2.0, 0.0), (2.0, 1.0)],              # a vertex facing an edge
    square(2.5, 0.5, 0.5),                              # collinear top and bottom edges
    [(1.5, 0.0), (3.0, 0.0), (3.0, 0.5), (1.5, 0.5)],   # one collinear edge
    [(2.0, 2.0), (3.0, 1.0), (4.0, 2.0), (3.0, 3.0)],   # diamond on the diagonal
]


@pytest.mark.parametrize("other", TOUCHING_OR_COLLINEAR)
def test_distance_is_the_edge_pair_minimum_on_contact_and_collinear_edges(other):
    assert xg.exact_distance(UNIT_SQUARE, other) == _edge_pair_distance(UNIT_SQUARE, other)
    assert xg.exact_distance(other, UNIT_SQUARE) == _edge_pair_distance(other, UNIT_SQUARE)


def test_distance_is_the_edge_pair_minimum_on_random_pairs():
    separated = 0
    for i in range(300):
        a, b = pair_for_index(57, i)
        d = xg.exact_distance(a, b)
        scale = max(abs(c) for v in a + b for c in v)
        assert d == pytest.approx(_edge_pair_distance(a, b), abs=1e-12 * scale)
        assert xg.exact_distance(b, a) == d
        separated += d > 0.0
    assert separated >= 100


# -- the Minkowski difference against the brute-force reference -------------


def test_minkowski_difference_keeps_parallel_edges():
    # every edge of the inner square is parallel to one of the outer's;
    # A's edge goes first and the two meet at a straight corner
    verts, pairs = xg.minkowski_difference(square(2.0, 2.0, 2.0), square(2.0, 2.0, 0.2))
    assert pairs == [(0, 2), (1, 2), (1, 3), (2, 3), (2, 0), (3, 0), (3, 1), (0, 1)]
    assert verts[::2] == [(-2.2, -2.2), (2.2, -2.2), (2.2, 2.2), (-2.2, 2.2)]
    tri = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    verts, pairs = xg.minkowski_difference(tri, UNIT_SQUARE)
    assert len(pairs) == 7 and len(set(pairs)) == 7
    assert xg.validate_convex_ccw(verts) == [1, 6]   # the two straight corners


def test_nested_squares_clear_by_the_push_out_depth():
    outer, inner = square(2.0, 2.0, 2.0), square(2.0, 2.0, 0.2)
    for a, b in ((outer, inner), (inner, outer)):
        assert xg.exact_clearance(a, b) == pytest.approx(-2.2)
        assert xg.exact_penetration(a, b) == pytest.approx(2.2)
        assert xg.exact_distance(a, b) == 0.0 and xg.polygons_intersect(a, b)


@given(st.integers(min_value=0, max_value=10_000), st.floats(0.05, 1.0),
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_pair_geometry_matches_the_brute_force_reference(index, shrink, dx, dy):
    # b shrunk about its centroid and moved near a's, so that separated,
    # crossing and nested pairs all occur
    a, b = pair_for_index(58, index)
    (ax, ay), (bx, by) = xg.centroid(a), xg.centroid(b)
    b = [(ax + dx + shrink * (x - bx), ay + dy + shrink * (y - by)) for x, y in b]
    tol = 1e-12 * max(abs(c) for v in a + b for c in v)
    brute = ref.brute_clearance(a, b)
    assert xg.exact_distance(a, b) == pytest.approx(max(0.0, brute), abs=tol)
    assert xg.exact_penetration(a, b) == pytest.approx(max(0.0, -brute), abs=tol)
    assert xg.polygons_intersect(a, b) == (brute <= 0.0) or abs(brute) <= tol


# -- brute-force agreement ---------------------------------------------------


def _boundary_points(vertices, spacing):
    pts = []
    n = len(vertices)
    for i in range(n):
        a = np.asarray(vertices[i])
        b = np.asarray(vertices[(i + 1) % n])
        length = float(np.linalg.norm(b - a))
        steps = max(1, int(math.ceil(length / spacing)))
        ts = np.arange(steps) / steps
        pts.append(a[None, :] + ts[:, None] * (b - a)[None, :])
    return np.concatenate(pts, axis=0)


def _points_to_polygon_min_distance(pts, vertices):
    best = np.full(len(pts), np.inf)
    n = len(vertices)
    for i in range(n):
        a = np.asarray(vertices[i])
        b = np.asarray(vertices[(i + 1) % n])
        e = b - a
        len2 = float(e @ e)
        t = np.clip(((pts - a) @ e) / len2, 0.0, 1.0)
        d = np.linalg.norm(pts - (a + t[:, None] * e), axis=1)
        best = np.minimum(best, d)
    return best


def test_distance_agrees_with_dense_boundary_sampling():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(400):
        if checked >= 200:
            break
        a, b = pair_for_index(101, rng.randrange(1 << 30))
        if xg.polygons_intersect(a, b):
            continue  # brute force targets the positive-distance regime
        checked += 1
        brute = min(_points_to_polygon_min_distance(_boundary_points(a, 1e-4), b).min(),
                    _points_to_polygon_min_distance(_boundary_points(b, 1e-4), a).min())
        assert xg.exact_distance(a, b) == pytest.approx(brute, abs=1e-3)
    assert checked >= 150


def test_point_signed_distance_agrees_with_dense_sampling():
    rng = random.Random(7)
    for _ in range(50):
        poly = random_convex_polygon(rng)
        p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        brute = float(_points_to_polygon_min_distance(
            np.asarray([p]), poly)[0]) if not xg.point_in_polygon(p, poly) else None
        dense = _boundary_points(poly, 1e-4)
        d = float(np.linalg.norm(dense - np.asarray(p), axis=1).min())
        expected = -d if xg.point_in_polygon(p, poly) else d
        assert xg.exact_point_signed_distance(p, poly) == pytest.approx(expected, abs=1e-3)
        if brute is not None:
            assert abs(brute - d) < 1e-3


# -- metric/symmetry properties on random shapes ----------------------------


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_distance_symmetry_and_sign_consistency(index):
    a, b = pair_for_index(55, index)
    assert xg.exact_distance(a, b) == xg.exact_distance(b, a)
    assert xg.exact_penetration(a, b) == pytest.approx(xg.exact_penetration(b, a), abs=1e-12)
    d = xg.exact_distance(a, b)
    pen = xg.exact_penetration(a, b)
    if d > 0.0:
        assert not xg.polygons_intersect(a, b)
        assert pen == 0.0
    else:
        assert xg.polygons_intersect(a, b)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_clearance_matches_translation_to_contact(index):
    # moving a separated pair together by the clearance along the closest
    # direction brings them (nearly) into contact; crude sanity of scale
    a, b = pair_for_index(56, index)
    clr = xg.exact_clearance(a, b)
    assert clr == pytest.approx(xg.exact_clearance(b, a), abs=1e-12)
    assert abs(clr) <= xg.diameter(a) + xg.diameter(b) + 4.0


def test_convex_hull_is_ccw_convex():
    rng = random.Random(3)
    for _ in range(100):
        pts = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(4, 12))]
        hull = convex_hull(pts)
        if len(hull) >= 3:
            xg.validate_convex_ccw(hull)


def test_random_polygon_diameter_in_range():
    rng = random.Random(11)
    for _ in range(50):
        poly = random_convex_polygon(rng)
        xg.validate_convex_ccw(poly)
        assert 0.5 - 1e-9 <= xg.diameter(poly) <= 3.0 + 1e-9


def test_random_pair_never_nested():
    for i in range(200):
        a, b = pair_for_index(99, i)
        assert not xg.polygon_contains_polygon(a, b)
        assert not xg.polygon_contains_polygon(b, a)

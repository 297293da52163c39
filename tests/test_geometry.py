"""Smooth geometry vs the exact reference: frozen values, gradients,
invariances."""
import dataclasses
import math
import random

import pytest

from gradcheck import central_difference, check_gradient, max_gradient_error
import geometry_reference as ref
from polystl import autodiff as ad
from polystl import exactgeo as xg
from polystl import geometry as geo
from polystl.randgeom import pair_for_index

SHARP = geo.SmoothingConfig(tau=1e-3, samples_per_edge=32)

UNIT_SQUARE = geo.ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def square(cx, cy, half=0.5):
    return geo.ConvexPolygon([(cx - half, cy - half), (cx + half, cy - half),
                              (cx + half, cy + half), (cx - half, cy + half)])


def poly(vertices):
    return geo.ConvexPolygon(vertices)


def dot(p, size=1e-3):
    """A triangle ``size`` across at p: the enclosure kernel of a point."""
    px, py = p
    return poly([(px, py), (px + size, py), (px, py + size)])


# -- construction and sampling ----------------------------------------------


def test_polygon_rejects_bad_input():
    with pytest.raises(xg.GeometryError):
        geo.ConvexPolygon([(0, 0), (1, 0)])
    with pytest.raises(xg.GeometryError):
        geo.ConvexPolygon([(0, 0), (0, 1), (1, 1), (1, 0)])  # clockwise


@pytest.mark.parametrize("field", ["tau"])   # the one float setting
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_smoothing_config_rejects_non_finite_or_non_positive(field, bad):
    # NaN compares false with everything, so a plain <= 0 test lets it through
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        geo.SmoothingConfig(**{field: bad})


def test_smoothing_config_holds_only_the_settings_that_vary():
    # the blend steepness k is a constant of the semantics, not a setting
    assert [f.name for f in dataclasses.fields(geo.SmoothingConfig)] == [
        "tau", "samples_per_edge"]
    with pytest.raises(TypeError):
        geo.SmoothingConfig(sigmoid_scale=40.0)


def test_polygon_warns_once_per_near_collinear_corner():
    with pytest.warns(UserWarning, match="near-collinear corner at vertex 1") as record:
        geo.ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)])
    assert len(record) == 1
    assert record[0].filename == __file__   # reported at the caller


def test_template_world_vertices():
    tpl = geo.PolygonTemplate([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    world = tpl.at(geo.Pose2D(2.0, 1.0, math.pi / 2.0)).float_vertices()
    assert world[0] == pytest.approx((2.5, 0.5))  # R(90deg)(-.5,-.5) + (2,1)
    assert world[1] == pytest.approx((2.5, 1.5))


def test_template_pose_gradient_flows():
    tpl = geo.PolygonTemplate([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    t = ad.Tape()
    pose = geo.Pose2D(t.var(1.0), t.var(2.0), t.var(0.3))
    p = tpl.at(pose)
    assert len(t) == 3   # placement records nothing
    # world x of third vertex, its one partial folded onto the pose
    out = geo.lift_onto_poses(p.vertices[2][0], ((p, [0.0] * 4 + [1.0] + [0.0] * 3),), "x")
    g = ad.backward(out)
    assert g.wrt(pose.x) == pytest.approx(1.0)
    # d/dtheta [x + cos*lx - sin*ly] = -sin*lx - cos*ly
    assert g.wrt(pose.theta) == pytest.approx(-math.sin(0.3) * 0.5 - math.cos(0.3) * 0.5)


def test_boundary_sampling_counts_and_spacing():
    samples = ref.sample_boundary(UNIT_SQUARE, 16)
    assert len(samples.points) == 64
    assert samples.spacing == pytest.approx(1.0 / 16.0)
    # vertices appear exactly once
    floats = [(geo.value_of(x), geo.value_of(y)) for x, y in samples.points]
    assert floats.count((0.0, 0.0)) == 1
    assert floats.count((1.0, 1.0)) == 1


def test_edge_normals_point_inward():
    normals = ref.edge_normals(UNIT_SQUARE)
    flat = [geo.value_of(c) for n in normals for c in n]
    assert flat == pytest.approx([0.0, 1.0, -1.0, 0.0, 0.0, -1.0, 1.0, 0.0], abs=1e-12)


def test_centroid_is_vertex_mean():
    assert xg.centroid(square(2.0, 3.0).vertices) == pytest.approx((2.0, 3.0))


# -- frozen smooth values -----------------------------------------------------


def smooth_penetration(a, b, cfg):
    """The inside branch of the pair kernel clamped at 0, as the accuracy
    sweep reads it."""
    return max(0.0, geo.clearance_parts(a, b, cfg)[1])


def test_smooth_distance_separated_squares():
    d = geo.signed_clearance(square(0.5, 0.5), square(3.5, 0.5), SHARP)
    assert d == pytest.approx(2.0, abs=0.02)


def test_smooth_penetration_shifted_squares():
    b = poly([(0.6, 0.0), (1.6, 0.0), (1.6, 1.0), (0.6, 1.0)])
    pen = smooth_penetration(UNIT_SQUARE, b, SHARP)
    assert pen == pytest.approx(0.4, abs=0.01)


def test_smooth_penetration_zero_when_separated():
    assert smooth_penetration(square(0.5, 0.5), square(3.5, 0.5), SHARP) == 0.0


def test_nested_squares_clear_by_minus_the_push_out_depth():
    # a 0.4 square inside a 4x4 one: 2.2 to push it out, exact distance 0
    outer, inner = square(2.0, 2.0, 2.0), square(2.0, 2.0, 0.2)
    for a, b in ((outer, inner), (inner, outer)):
        assert geo.signed_clearance(a, b, SHARP) == pytest.approx(-2.2, abs=0.005)
        assert smooth_penetration(a, b, SHARP) == pytest.approx(2.2, abs=0.005)


def test_signed_distance_center_and_outside():
    sd_in = geo.smooth_enclosure(dot((0.5, 0.5)), UNIT_SQUARE, SHARP)
    sd_out = geo.smooth_enclosure(dot((2.0, 0.5)), UNIT_SQUARE, SHARP)
    assert sd_in == pytest.approx(-0.5, abs=0.01)
    assert sd_out == pytest.approx(1.0, abs=0.01)


def test_signed_clearance_two_regimes():
    apart = geo.signed_clearance(square(0.5, 0.5), square(3.5, 0.5), SHARP)
    overlap = geo.signed_clearance(UNIT_SQUARE, poly([(0.6, 0.0), (1.6, 0.0),
                                                      (1.6, 1.0), (0.6, 1.0)]), SHARP)
    assert apart == pytest.approx(2.0, abs=0.02)
    assert overlap == pytest.approx(-0.4, abs=0.05)


# -- agreement with the exact reference ---------------------------------------


def test_smooth_distance_tracks_exact_on_random_pairs():
    worst = 0.0
    for i in range(120):
        a_v, b_v = pair_for_index(31, i)
        a, b = poly(a_v), poly(b_v)
        exact = xg.exact_distance(a_v, b_v)
        if exact <= 0.0:
            continue
        smooth = geo.signed_clearance(a, b, SHARP)
        worst = max(worst, abs(smooth - exact))
    assert worst <= 0.05


def test_signed_clearance_sign_matches_exact():
    for i in range(150):
        a_v, b_v = pair_for_index(32, i)
        exact = xg.exact_clearance(a_v, b_v)
        if abs(exact) <= 0.05:
            continue
        smooth = geo.signed_clearance(poly(a_v), poly(b_v), SHARP)
        assert smooth * exact > 0.0, f"pair {i}: exact={exact} smooth={smooth}"


def test_point_signed_distance_sign_agreement():
    # the enclosure kernel on a dot, against the exact enclosure quantity
    cfg = SHARP
    rng = random.Random(17)
    for i in range(150):
        a_v, _ = pair_for_index(33, i)
        inner = dot((rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))
        exact = max(xg.exact_point_signed_distance(p, a_v) for p in inner.vertices)
        gate = max(cfg.tau * math.log(3 * len(a_v)), 3.0 / geo.SIGMOID_SCALE)
        if abs(exact) <= gate:
            continue
        smooth = geo.smooth_enclosure(inner, poly(a_v), cfg)
        assert smooth * exact > 0.0, f"pair {i}: exact={exact} smooth={smooth}"


def test_penetration_limits_to_exact_as_tau_vanishes():
    cfg = geo.SmoothingConfig(tau=1e-6)
    for i in range(60):
        a_v, b_v = pair_for_index(34, i)
        smooth = smooth_penetration(poly(a_v), poly(b_v), cfg)
        assert smooth == pytest.approx(xg.exact_penetration(a_v, b_v), abs=1e-4)


def test_distance_error_within_budget():
    checked = 0
    for s, tau in ((4, 1e-2), (16, 1e-2), (32, 1e-3)):
        cfg = geo.SmoothingConfig(tau=tau, samples_per_edge=s)
        for i in range(40):
            a_v, b_v = pair_for_index(35, i)
            a, b = poly(a_v), poly(b_v)
            if not (a.blunt or b.blunt):
                continue   # the budget is proved for blunt corners only
            checked += 1
            budget = geo.clearance_error_budget(a, b, cfg)
            clearance = geo.signed_clearance(a, b, cfg)
            assert abs(clearance - xg.exact_clearance(a_v, b_v)) <= budget
            assert abs(max(0.0, clearance) - xg.exact_distance(a_v, b_v)) <= budget
    assert checked >= 100


# -- structural invariances ----------------------------------------------------


def test_distance_and_penetration_symmetric():
    for i in range(40):
        a_v, b_v = pair_for_index(36, i)
        a, b = poly(a_v), poly(b_v)
        assert geo.signed_clearance(a, b, SHARP) == geo.signed_clearance(b, a, SHARP)
        assert smooth_penetration(a, b, SHARP) == pytest.approx(
            smooth_penetration(b, a, SHARP), abs=1e-12)


def test_rigid_motion_invariance():
    cfg = geo.SmoothingConfig(tau=1e-2, samples_per_edge=8)
    rng = random.Random(5)
    for i in range(20):
        a_v, b_v = pair_for_index(37, i)
        dx, dy, th = rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 2 * math.pi)
        c, s = math.cos(th), math.sin(th)

        def move(vs):
            return [(c * x - s * y + dx, s * x + c * y + dy) for x, y in vs]

        before_d = geo.signed_clearance(poly(a_v), poly(b_v), cfg)
        after_d = geo.signed_clearance(poly(move(a_v)), poly(move(b_v)), cfg)
        before_p = smooth_penetration(poly(a_v), poly(b_v), cfg)
        after_p = smooth_penetration(poly(move(a_v)), poly(move(b_v)), cfg)
        assert abs(after_d - before_d) < 1e-6
        assert abs(after_p - before_p) < 1e-6


# -- gradients -----------------------------------------------------------------


def _pose_quantity(fn, pose_xyz, tpl_a, other, cfg):
    """Evaluate a smooth quantity of (posed A, static other) as f(pose)."""
    def value(xs):
        pose = geo.Pose2D(*xs)
        return fn(tpl_a.at(pose), other, cfg)
    return value


# One kernel serves every pair quantity; the cases check its gradient where
# the pair is apart (the distance), where it overlaps (minus the
# penetration), and everywhere (the clearance).
GRAD_CASES = [
    ("distance", geo.signed_clearance),
    ("penetration", lambda a, b, cfg: -geo.signed_clearance(a, b, cfg)),
    ("clearance", geo.signed_clearance),
]


@pytest.mark.parametrize("name,fn", GRAD_CASES, ids=[c[0] for c in GRAD_CASES])
def test_pose_gradients_match_finite_differences(name, fn):
    cfg = geo.SmoothingConfig(tau=5e-2, samples_per_edge=4)
    tpl = geo.PolygonTemplate([(-0.4, -0.3), (0.4, -0.3), (0.5, 0.2), (0.0, 0.45), (-0.45, 0.25)])
    rng = random.Random(23)
    checked = 0
    attempts = 0
    while checked < 25 and attempts < 400:
        attempts += 1
        xs = [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(-math.pi, math.pi)]
        other_v, _ = pair_for_index(38, attempts)
        other = poly(other_v)
        clr = xg.exact_clearance(tpl.at(geo.Pose2D(*xs)).float_vertices(), other_v)
        if abs(clr) <= 0.05:
            continue
        if (name == "penetration" and clr > 0.0) or (name == "distance" and clr < 0.0):
            continue  # the other regime
        checked += 1
        t = ad.Tape()
        pose = geo.Pose2D(t.var(xs[0]), t.var(xs[1]), t.var(xs[2]))
        out = fn(tpl.at(pose), other, cfg)
        g = ad.backward(out)
        analytic = [g.wrt(pose.x), g.wrt(pose.y), g.wrt(pose.theta)]
        numeric = central_difference(_pose_quantity(fn, xs, tpl, other, cfg), xs, 1e-5)
        assert max_gradient_error(analytic, numeric) < 1e-4, f"{name} config {attempts}"
    assert checked == 25


def test_enclosure_pose_gradient():
    cfg = geo.SmoothingConfig(tau=5e-2)
    tpl = geo.PolygonTemplate([(-0.2, -0.15), (0.2, -0.15), (0.0, 0.25)])
    rng = random.Random(29)
    checked = 0
    for i in range(200):
        if checked >= 25:
            break
        poly_v, _ = pair_for_index(39, i)
        xs = [rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-math.pi, math.pi)]
        inner = tpl.at(geo.Pose2D(*xs))
        if min(abs(xg.exact_point_signed_distance(p, poly_v)) for p in inner.vertices) <= 0.05:
            continue
        checked += 1
        t = ad.Tape()
        pose = geo.Pose2D(*map(t.var, xs))
        g = ad.backward(geo.smooth_enclosure(tpl.at(pose), poly(poly_v), cfg))
        numeric = central_difference(
            lambda v: geo.smooth_enclosure(tpl.at(geo.Pose2D(*v)), poly(poly_v), cfg), xs, 1e-5)
        assert max_gradient_error([g.wrt(c) for c in pose], numeric) < 1e-4
    assert checked == 25


# -- fused kernels against the scalar Var-path reference ----------------------

REFERENCE_GRID = [(tau, s) for tau in (5e-3, 1e-3) for s in (8, 16)]
ADJOINT_TOL = 1e-9
# both operands take this rigid motion, which keeps the pair's regime
MOTION = (0.7, -0.4, 0.9)


def _placed(vertices):
    return geo.PolygonTemplate(vertices).at(geo.Pose2D(*MOTION))


def _pose_adjoints(fn, place, shapes, cfg):
    """Value of fn on the shapes, each a local vertex list that ``place``
    puts at MOTION through its own pose of tape variables, and the
    adjoint of every pose scalar."""
    t = ad.Tape()
    poses = [geo.Pose2D(*map(t.var, MOTION)) for _ in shapes]
    out = fn(*(place(geo.PolygonTemplate(v), p) for v, p in zip(shapes, poses)), cfg)
    g = ad.backward(out)
    return out.value, [g.wrt(c) for p in poses for c in p]


def _reference_pairs(seed, n):
    """Random pairs as drawn, and again with B's centroid moved next to A's,
    so that the penetration terms are active."""
    for i in range(n):
        a_v, b_v = pair_for_index(seed, i)
        (ax, ay), (bx, by) = xg.centroid(a_v), xg.centroid(b_v)
        dx, dy = ax - bx + 0.1, ay - by - 0.05
        yield a_v, b_v
        yield a_v, [(x + dx, y + dy) for x, y in b_v]


# The fused pair kernel runs the reference's arithmetic on the same floats,
# and placement the reference pose chain's, so values are equal. The cases
# split the pairs by regime: as drawn (mostly
# apart, the distance), moved together (overlapping, the penetration), and
# both (the clearance).
FUSED_CASES = [("distance", (0,)), ("penetration", (1,)), ("clearance", (0, 1))]


@pytest.mark.parametrize("name,regimes", FUSED_CASES, ids=[c[0] for c in FUSED_CASES])
def test_fused_pair_kernels_match_scalar_reference(name, regimes):
    active = 0
    for tau, s in REFERENCE_GRID:
        cfg = geo.SmoothingConfig(tau=tau, samples_per_edge=s)
        for k, (a_v, b_v) in enumerate(_reference_pairs(41, 5)):
            if k % 2 not in regimes:
                continue
            assert (geo.signed_clearance(poly(a_v), poly(b_v), cfg)
                    == ref.signed_clearance(poly(a_v), poly(b_v), cfg))
            value = geo.signed_clearance(_placed(a_v), _placed(b_v), cfg)
            got, adjoints = _pose_adjoints(geo.signed_clearance, geo.PolygonTemplate.at,
                                           (a_v, b_v), cfg)
            want, expected = _pose_adjoints(ref.signed_clearance, ref.place, (a_v, b_v), cfg)
            assert got == value == want
            assert max(abs(x - y) for x, y in zip(adjoints, expected)) <= ADJOINT_TOL
            active += any(y != 0.0 for y in expected)
    assert active >= 10 * len(regimes), f"{name}: only {active} cases with a non-zero gradient"


def test_fused_enclosure_matches_scalar_reference():
    # the inner polygon shrunk to a third about its centroid and moved to a
    # point near the outer one's, so its vertices lie inside and outside
    rng = random.Random(43)
    active = 0
    for tau, s in REFERENCE_GRID:
        cfg = geo.SmoothingConfig(tau=tau, samples_per_edge=s)
        for i in range(12):
            outer_v, v = pair_for_index(43, i)
            (cx, cy), (ix, iy) = xg.centroid(outer_v), xg.centroid(v)
            px, py = cx + rng.uniform(-1.5, 1.5), cy + rng.uniform(-1.5, 1.5)
            inner_v = [(px + (x - ix) / 3.0, py + (y - iy) / 3.0) for x, y in v]
            assert (geo.smooth_enclosure(poly(inner_v), poly(outer_v), cfg)
                    == ref.smooth_enclosure(poly(inner_v), poly(outer_v), cfg))
            value = geo.smooth_enclosure(_placed(inner_v), _placed(outer_v), cfg)
            got, adjoints = _pose_adjoints(geo.smooth_enclosure, geo.PolygonTemplate.at,
                                           (inner_v, outer_v), cfg)
            want, expected = _pose_adjoints(ref.smooth_enclosure, ref.place,
                                            (inner_v, outer_v), cfg)
            assert got == value == want
            assert max(abs(x - y) for x, y in zip(adjoints, expected)) <= ADJOINT_TOL
            active += any(y != 0.0 for y in expected)
    assert active >= 40


def test_fused_kernels_record_one_node():
    cfg = geo.SmoothingConfig(tau=5e-3, samples_per_edge=8)
    a_v, b_v = pair_for_index(44, 0)
    t = ad.Tape()
    a, b = (geo.PolygonTemplate(v).at(geo.Pose2D(*map(t.var, MOTION))) for v in (a_v, b_v))
    assert len(t) == 6
    out = geo.signed_clearance(a, b, cfg)
    assert isinstance(out, ad.Var) and len(t) == 7
    out = geo.smooth_enclosure(a, poly(b_v), cfg)
    assert isinstance(out, ad.Var) and len(t) == 8 and out.tape is t


# -- the Minkowski-difference kernel: containment and merge-order changes ------

ROTOR = geo.PolygonTemplate([(-0.3, -0.2), (0.3, -0.2), (0.3, 0.2), (-0.3, 0.2)])


def _pose_clearance(other, cfg):
    """The pair kernel of (ROTOR at a pose, other) as a float function of
    the pose, and its analytic pose gradient."""
    def value(xs):
        return geo.signed_clearance(ROTOR.at(geo.Pose2D(*xs)), other, cfg)

    def analytic(xs):
        t = ad.Tape()
        pose = geo.Pose2D(*(t.var(x) for x in xs))
        g = ad.backward(geo.signed_clearance(ROTOR.at(pose), other, cfg))
        return [g.wrt(pose.x), g.wrt(pose.y), g.wrt(pose.theta)]
    return value, analytic


@pytest.mark.parametrize("xs", [(2.0, 2.0, 0.3), (1.2, 2.4, -0.7), (2.5, 1.4, 1.9)])
def test_pair_kernel_gradient_under_containment(xs):
    # the rotor lies well inside the 4x4 square, so the exact distance is 0
    # and only the push-out depth moves
    outer = square(2.0, 2.0, 2.0)
    assert xg.polygon_contains_polygon(outer.float_vertices(),
                                       ROTOR.at(geo.Pose2D(*xs)).float_vertices())
    cfg = geo.SmoothingConfig(tau=5e-2)
    value, analytic = _pose_clearance(outer, cfg)
    assert value(xs) < -0.5
    check_gradient(value, list(xs), analytic(xs))


@pytest.mark.parametrize("theta", [-2e-6, 0.0, 2e-6])
def test_pair_kernel_gradient_across_a_merge_order_change(theta):
    # at theta = 0 every edge of the rotor is parallel to an edge of the
    # box; the central differences straddle the turn, where the merge order
    # of the two edge sequences flips and the vertex between two parallel
    # edges of M jumps along them. Apart, the distance is the smooth
    # soft-min over both near corners; the cases face the box side on, from
    # the left and from above, and across its corner. (Under overlap the
    # push-out depth has a kink there, as the exact one has: the deepest
    # corner changes.)
    other = poly([(1.0, -1.0), (2.0, -1.0), (2.0, 1.0), (1.0, 1.0)])
    cfg = geo.SmoothingConfig(tau=5e-2)
    value, analytic = _pose_clearance(other, cfg)
    for xs in ((0.1, 0.35, theta), (1.5, 1.5, theta), (0.6, 1.4, theta)):
        orders = {tuple(xg.minkowski_difference(
            ROTOR.at(geo.Pose2D(xs[0], xs[1], xs[2] + d)).float_vertices(),
            other.float_vertices())[1]) for d in (-1e-5, 1e-5)}
        assert len(orders) == 2   # the step crosses a merge-order change
        check_gradient(value, list(xs), analytic(xs))

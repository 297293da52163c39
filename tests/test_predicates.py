"""Spatial predicate semantics: frozen values, smooth/exact agreement,
gradients, operand validation."""
import math
import random
import warnings

import pytest
from hypothesis import assume, given, settings, strategies as st

from gradcheck import central_difference, max_gradient_error
from polystl import autodiff as ad
from polystl import exactgeo as xg
from polystl import geometry as geo
from polystl import predicates as pr
from polystl.predicates import (AxisAlignedBox3, PredicateKind as K, PredicateParams,
                                Scene, SceneObject)
from polystl.randgeom import pair_for_index

SHARP = geo.SmoothingConfig(tau=1e-3, samples_per_edge=32)


def square(cx, cy, half=0.5):
    return geo.ConvexPolygon([(cx - half, cy - half), (cx + half, cy - half),
                              (cx + half, cy + half), (cx - half, cy + half)])


def scene(**shapes):
    objs = []
    for name, shape in shapes.items():
        heading = None
        if isinstance(shape, tuple):
            shape, heading = shape
        objs.append(SceneObject(name, shape, heading))
    return Scene(objs)


def rob(sc, kind, names, smooth, cfg=SHARP, **params):
    return ad.value_of(pr.atom_robustness(sc, kind, names,
                                          PredicateParams(**params), smooth, cfg))


# -- frozen values ------------------------------------------------------------


def test_close_to_and_far_from():
    sc = scene(a=square(0.5, 0.5), b=square(3.5, 0.5))
    # gap is 2.0
    assert rob(sc, K.CLOSE_TO, ["a", "b"], True, eps_close=2.5) == pytest.approx(0.5, abs=0.02)
    assert rob(sc, K.FAR_FROM, ["a", "b"], True, eps_far=0.5) == pytest.approx(1.5, abs=0.02)
    assert rob(sc, K.CLOSE_TO, ["a", "b"], False, eps_close=2.5) == pytest.approx(0.5)
    assert rob(sc, K.FAR_FROM, ["a", "b"], False, eps_far=0.5) == pytest.approx(1.5)


def test_touch_at_contact():
    sc = scene(a=square(0.5, 0.5), b=square(1.5, 0.5))
    assert rob(sc, K.TOUCH, ["a", "b"], False, eps_touch=0.05) == pytest.approx(0.05)
    assert rob(sc, K.TOUCH, ["a", "b"], True, eps_touch=0.05) == pytest.approx(0.05, abs=0.01)


def test_ovlp_requires_margin_beyond_delta():
    sc = scene(a=square(0.5, 0.5), b=square(1.1, 0.5))  # penetration 0.4
    assert rob(sc, K.OVLP, ["a", "b"], False, delta_overlap=0.1) == pytest.approx(0.3)
    assert rob(sc, K.OVLP, ["a", "b"], True, delta_overlap=0.1) == pytest.approx(0.3, abs=0.05)


def test_encl_in_nested_squares():
    sc = scene(inner=square(0.5, 0.5, 0.1), outer=square(0.5, 0.5, 0.5))
    # inner vertices sit 0.4 inside the outer boundary
    assert rob(sc, K.ENCL_IN, ["inner", "outer"], False, delta_inside=0.1) == pytest.approx(0.3)
    assert rob(sc, K.ENCL_IN, ["inner", "outer"], True, delta_inside=0.1) == pytest.approx(0.3, abs=0.01)


def test_encl_in_same_polygon_costs_delta():
    sc = scene(a=square(0.5, 0.5), b=square(0.5, 0.5))
    assert rob(sc, K.ENCL_IN, ["a", "b"], False, delta_inside=0.1) == pytest.approx(-0.1)
    assert rob(sc, K.ENCL_IN, ["a", "b"], True, delta_inside=0.1) == pytest.approx(-0.1, abs=0.02)


def test_part_ovlp_three_clauses():
    # partially overlapping squares: overlap holds, neither encloses
    sc = scene(a=square(0.5, 0.5), b=square(1.1, 0.5))
    exact = rob(sc, K.PART_OVLP, ["a", "b"], False, delta_overlap=0.1, delta_inside=0.1)
    assert exact == pytest.approx(0.3)  # limited by the overlap clause
    smooth = rob(sc, K.PART_OVLP, ["a", "b"], True, delta_overlap=0.1, delta_inside=0.1)
    assert smooth == pytest.approx(exact, abs=0.05)
    # fully nested: partOvlp must reject
    nested = scene(a=square(0.5, 0.5, 0.1), b=square(0.5, 0.5, 0.5))
    assert rob(nested, K.PART_OVLP, ["a", "b"], False, delta_overlap=0.1, delta_inside=0.1) < 0.0


def test_left_of_frozen_window():
    sc = scene(a=geo.ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
               b=geo.ConvexPolygon([(3, 0), (4, 0), (4, 1), (3, 1)]))
    tau = 1e-2
    cfg = geo.SmoothingConfig(tau=tau)
    exact = rob(sc, K.LEFT_OF, ["a", "b"], False, kappa=0.5)
    smooth = rob(sc, K.LEFT_OF, ["a", "b"], True, cfg, kappa=0.5)
    assert exact == pytest.approx(1.5)
    assert 1.5 - 2.0 * tau * math.log(4.0) <= smooth <= 1.5
    assert rob(sc, K.RIGHT_OF, ["b", "a"], False, kappa=0.5) == pytest.approx(1.5)
    assert rob(sc, K.RIGHT_OF, ["a", "b"], False, kappa=0.5) == pytest.approx(-4.5)


def test_directional_yaxis():
    sc = scene(a=square(0.0, 0.0), b=square(0.0, 2.0))
    assert rob(sc, K.BEHIND, ["a", "b"], False, kappa=0.5) == pytest.approx(0.5)
    assert rob(sc, K.IN_FRONT_OF, ["b", "a"], False, kappa=0.5) == pytest.approx(0.5)


def test_between_px():
    sc = scene(a=square(0.0, 0.0), m=square(2.0, 0.0), c=square(4.0, 0.0))
    exact = rob(sc, K.BETWEEN_PX, ["a", "m", "c"], False, kappa=0.2)
    assert exact == pytest.approx(0.8)  # each gap is 1.0
    smooth = rob(sc, K.BETWEEN_PX, ["a", "m", "c"], True, kappa=0.2)
    assert smooth <= exact
    assert smooth == pytest.approx(exact, abs=0.02)
    assert rob(sc, K.BETWEEN_PX, ["c", "m", "a"], False, kappa=0.2) < 0.0


def test_oriented_same_heading():
    h = (1.0, 0.0)
    sc = scene(a=(square(0, 0), h), b=(square(2, 0), h))
    assert rob(sc, K.ORIENTED, ["a", "b"], False, kappa=0.2) == pytest.approx(0.2)
    assert rob(sc, K.ORIENTED, ["a", "b"], True, kappa=0.2) == pytest.approx(0.2)


def test_oriented_opposite_heading():
    sc = scene(a=(square(0, 0), (1.0, 0.0)), b=(square(2, 0), (-1.0, 0.0)))
    # ||u - v||^2 = 4 -> kappa - 2
    assert rob(sc, K.ORIENTED, ["a", "b"], False, kappa=0.2) == pytest.approx(-1.8)


def test_bearing_aligned_and_quarter_off():
    sc = scene(a=square(0.0, 0.0), b=square(1.0, 1.0))
    aligned = rob(sc, K.BEARING_TO, ["a", "b"], False, theta_ref=math.pi / 4.0, kappa=0.1)
    assert aligned == pytest.approx(0.1, abs=1e-9)
    off = rob(sc, K.BEARING_TO, ["a", "b"], False, theta_ref=math.pi / 4.0 - math.pi / 2.0, kappa=0.1)
    assert off == pytest.approx(0.1 - (math.pi / 2.0) ** 2, abs=1e-9)


def test_bearing_wraps_across_pi():
    sc = scene(a=square(0.0, 0.0), b=square(-2.0, 0.001))
    # bearing ~ pi; reference just below -pi+0.1 wraps to a small error
    r = rob(sc, K.BEARING_TO, ["a", "b"], False, theta_ref=-math.pi + 0.05, kappa=0.5)
    assert r > 0.4


def test_oriented_and_bearing_identical_across_modes():
    sc = scene(a=(square(0, 0), (0.6, 0.8)), b=(square(2, 1), (1.0, 0.0)))
    for kind, params in ((K.ORIENTED, dict(kappa=0.3)),
                         (K.BEARING_TO, dict(theta_ref=0.4, kappa=0.3))):
        assert rob(sc, kind, ["a", "b"], True, **params) == rob(sc, kind, ["a", "b"], False, **params)


# -- boxes ---------------------------------------------------------------------


def test_box_directional_uses_exact_corners():
    sc = scene(arm=AxisAlignedBox3((4.0, 1.0, 2.0), (4.5, 1.5, 2.5)),
               obs=AxisAlignedBox3((0.0, 0.0, 0.0), (2.0, 2.0, 1.0)))
    assert rob(sc, K.RIGHT_OF, ["arm", "obs"], False, kappa=0.5) == pytest.approx(1.5)
    assert rob(sc, K.RIGHT_OF, ["arm", "obs"], True, kappa=0.5) == pytest.approx(1.5)
    assert rob(sc, K.ABOVE, ["arm", "obs"], False, kappa=0.5) == pytest.approx(0.5)
    assert rob(sc, K.BELOW, ["obs", "arm"], False, kappa=0.5) == pytest.approx(0.5)


def test_directional_table_keys_are_the_directional_kinds_in_order():
    # DIRECTIONAL is read off the table, and its order is the retention
    # tie-break of mining's candidate enumeration
    assert tuple(pr.DIRECTIONAL_AXES) == pr.DIRECTIONAL == (
        K.LEFT_OF, K.RIGHT_OF, K.BEHIND, K.IN_FRONT_OF, K.BELOW, K.ABOVE)


@pytest.mark.parametrize("smooth", [False, True])
def test_each_directional_kind_reads_its_axis_and_side(smooth):
    # b is clear of a by 1, 2 and 3 along x, y and z
    sc = scene(a=AxisAlignedBox3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
               b=AxisAlignedBox3((2.0, 3.0, 4.0), (3.0, 4.0, 5.0)))
    expected = {K.LEFT_OF: 0.5, K.RIGHT_OF: -3.5, K.BEHIND: 1.5,
                K.IN_FRONT_OF: -4.5, K.BELOW: 2.5, K.ABOVE: -5.5}
    assert {k: rob(sc, k, ["a", "b"], smooth, kappa=0.5) for k in pr.DIRECTIONAL} == expected


def test_box_enclosure():
    sc = scene(inner=AxisAlignedBox3((0.4, 0.4, 0.4), (0.6, 0.6, 0.6)),
               outer=AxisAlignedBox3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
    assert rob(sc, K.ENCL_IN, ["inner", "outer"], False, delta_inside=0.1) == pytest.approx(0.3)
    smooth = rob(sc, K.ENCL_IN, ["inner", "outer"], True, delta_inside=0.1)
    assert smooth <= 0.3
    assert smooth == pytest.approx(0.3, abs=0.01)


def test_z_axis_requires_boxes():
    sc = scene(a=square(0, 0), b=square(2, 0))
    with pytest.raises(pr.SceneError, match="z axis"):
        rob(sc, K.ABOVE, ["a", "b"], False, kappa=0.1)


def test_distance_predicates_reject_boxes():
    sc = scene(a=AxisAlignedBox3((0, 0, 0), (1, 1, 1)), b=square(3, 0))
    with pytest.raises(pr.SceneError, match="polygon"):
        rob(sc, K.CLOSE_TO, ["a", "b"], False, eps_close=1.0)


# -- validation ----------------------------------------------------------------


def test_unknown_object_rejected():
    sc = scene(a=square(0, 0))
    with pytest.raises(pr.SceneError, match="unknown object"):
        rob(sc, K.CLOSE_TO, ["a", "missing"], False, eps_close=1.0)


@pytest.mark.parametrize("heading", [(math.nan, 0.0), (0.0, math.inf), (0.6, 0.6)])
def test_heading_must_be_unit_length(heading):
    with pytest.raises(pr.SceneError, match="object 'obs': heading"):
        SceneObject("obs", square(0, 0), heading)


def test_missing_parameter_rejected():
    sc = scene(a=square(0, 0), b=square(2, 0))
    with pytest.raises(pr.SceneError, match="eps_close"):
        rob(sc, K.CLOSE_TO, ["a", "b"], False)


def test_nonpositive_threshold_rejected():
    sc = scene(a=square(0, 0), b=square(2, 0))
    with pytest.raises(pr.SceneError, match="positive"):
        rob(sc, K.FAR_FROM, ["a", "b"], False, eps_far=-1.0)


def test_theta_ref_range_checked():
    sc = scene(a=square(0, 0), b=square(2, 0))
    with pytest.raises(pr.SceneError, match="theta_ref"):
        rob(sc, K.BEARING_TO, ["a", "b"], False, theta_ref=4.0, kappa=0.1)


def test_bearing_rejects_coincident_centroids():
    sc = scene(a=square(0, 0), b=square(0, 0))
    with pytest.raises(pr.SceneError, match="centroid"):
        rob(sc, K.BEARING_TO, ["a", "b"], False, theta_ref=0.0, kappa=0.1)


def test_oriented_requires_heading():
    sc = scene(a=square(0, 0), b=square(2, 0))
    with pytest.raises(pr.SceneError, match="heading"):
        rob(sc, K.ORIENTED, ["a", "b"], False, kappa=0.1)


def test_heading_must_be_unit():
    with pytest.raises(pr.SceneError, match="unit"):
        SceneObject("a", square(0, 0), heading=(2.0, 0.0))


def test_params_positional_binding():
    p = PredicateParams.for_kind(K.BEARING_TO, [0.3, 0.9])
    assert (p.theta_ref, p.kappa) == (0.3, 0.9)
    with pytest.raises(pr.SceneError, match="expected 2 parameter"):
        PredicateParams.for_kind(K.BEARING_TO, [0.3])


# -- smooth never above exact for directional/between ----------------------------


def test_directional_smooth_conservative_on_random_scenes():
    cfg = geo.SmoothingConfig(tau=1e-2)
    for i in range(200):
        a_v, b_v = pair_for_index(41, i)
        sc = scene(a=geo.ConvexPolygon(a_v), b=geo.ConvexPolygon(b_v))
        for kind in (K.LEFT_OF, K.RIGHT_OF, K.BEHIND, K.IN_FRONT_OF):
            smooth = rob(sc, kind, ["a", "b"], True, cfg, kappa=0.25)
            exact = rob(sc, kind, ["a", "b"], False, cfg, kappa=0.25)
            assert smooth <= exact + 1e-12


# -- gradients --------------------------------------------------------------------


GRAD_PREDICATES = [
    (K.CLOSE_TO, dict(eps_close=2.0)),
    (K.FAR_FROM, dict(eps_far=0.3)),
    (K.TOUCH, dict(eps_touch=0.2)),
    (K.OVLP, dict(delta_overlap=0.05)),
    (K.PART_OVLP, dict(delta_overlap=0.05, delta_inside=0.05)),
    (K.ENCL_IN, dict(delta_inside=0.05)),
    (K.LEFT_OF, dict(kappa=0.2)),
    (K.RIGHT_OF, dict(kappa=0.2)),
    (K.BEHIND, dict(kappa=0.2)),
    (K.IN_FRONT_OF, dict(kappa=0.2)),
    (K.BETWEEN_PX, dict(kappa=0.2)),
    (K.BETWEEN_PY, dict(kappa=0.2)),
    (K.ORIENTED, dict(kappa=0.3)),
    (K.BEARING_TO, dict(theta_ref=0.7, kappa=0.3)),
]

EE_TPL = geo.PolygonTemplate([(-0.3, -0.25), (0.3, -0.25), (0.35, 0.2), (0.0, 0.4), (-0.35, 0.2)])


def _predicate_scene(kind, pose, extra_static):
    """Scene with one posed polygon 'ee' plus static partners."""
    ee_poly = EE_TPL.at(pose)
    heading = pose.heading()
    objs = [SceneObject("ee", ee_poly, heading)]
    for name, shape in extra_static.items():
        h = (0.0, 1.0) if kind is K.ORIENTED else None
        objs.append(SceneObject(name, shape, h))
    return Scene(objs)


@pytest.mark.parametrize("kind,params", GRAD_PREDICATES, ids=[k.value for k, _ in GRAD_PREDICATES])
def test_predicate_pose_gradients(kind, params):
    cfg = geo.SmoothingConfig(tau=5e-2, samples_per_edge=4)
    rng = random.Random(71)
    names = ["ee", "b", "c"][:pr.ARITY[kind]]
    checked = 0
    attempts = 0
    while checked < 20 and attempts < 500:
        attempts += 1
        xs = [rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2), rng.uniform(-math.pi, math.pi)]
        b_v, c_v = pair_for_index(42, attempts)
        static = {"b": geo.ConvexPolygon(b_v)}
        if pr.ARITY[kind] == 3:
            static["c"] = geo.ConvexPolygon(c_v)

        def value(vec):
            sc = _predicate_scene(kind, geo.Pose2D(*vec), static)
            return ad.value_of(pr.atom_robustness(sc, kind, names,
                                                  PredicateParams(**params), True, cfg))

        # keep clear of kinks: contact boundary and bearing guard
        ee_f = EE_TPL.at(geo.Pose2D(*xs)).float_vertices()
        if abs(xg.exact_clearance(ee_f, b_v)) <= 0.05:
            continue
        if kind is K.BEARING_TO:
            c_ee = xg.centroid(ee_f)
            c_b = xg.centroid(b_v)
            if math.hypot(c_b[0] - c_ee[0], c_b[1] - c_ee[1]) < 0.3:
                continue
            bearing_err = ad.wrap_angle(math.atan2(c_b[1] - c_ee[1], c_b[0] - c_ee[0])
                                        - params["theta_ref"])
            if abs(abs(bearing_err) - math.pi) < 0.1:
                continue  # wrap discontinuity
        checked += 1
        t = ad.Tape()
        pose = geo.Pose2D(t.var(xs[0]), t.var(xs[1]), t.var(xs[2]))
        sc = _predicate_scene(kind, pose, static)
        out = pr.atom_robustness(sc, kind, names, PredicateParams(**params), True, cfg)
        g = ad.backward(out)
        analytic = [g.wrt(pose.x), g.wrt(pose.y), g.wrt(pose.theta)]
        numeric = central_difference(value, xs, 1e-5)
        assert max_gradient_error(analytic, numeric) < 1e-4, f"{kind.value} config {attempts}"
    assert checked == 20


def test_box_center_gradient():
    cfg = geo.SmoothingConfig(tau=1e-2)

    def value(vec):
        sc = Scene([SceneObject("arm", AxisAlignedBox3.from_center(*vec, (0.1, 0.1, 0.1))),
                    SceneObject("obs", AxisAlignedBox3((0, 0, 0), (2, 2, 1)))])
        return ad.value_of(pr.atom_robustness(sc, K.ABOVE, ["arm", "obs"],
                                              PredicateParams(kappa=0.2), True, cfg))

    xs = [1.0, 1.0, 2.0]
    t = ad.Tape()
    c = [t.var(v) for v in xs]
    sc = Scene([SceneObject("arm", AxisAlignedBox3.from_center(*c, (0.1, 0.1, 0.1))),
                SceneObject("obs", AxisAlignedBox3((0, 0, 0), (2, 2, 1)))])
    out = pr.atom_robustness(sc, K.ABOVE, ["arm", "obs"], PredicateParams(kappa=0.2), True, cfg)
    g = ad.backward(out)
    numeric = central_difference(value, xs, 1e-5)
    assert max_gradient_error([g.wrt(v) for v in c], numeric) < 1e-4


# -- one-sided smooth/exact gaps -------------------------------------------------

# the gaps are proved in real arithmetic; the two values are computed along
# different float paths, so each side gets this much rounding slack
ROUNDING = 1e-12


def _polygon_or_none(points):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # near-collinear corners are fine here
        try:
            return geo.ConvexPolygon(points)
        except xg.GeometryError:
            return None


@st.composite
def polygons(draw, near=None):
    """Convex polygons: points on a rotated ellipse (aspect up to 1:40, so
    thin shapes) or an isosceles needle with an apex of 0.5 to 90 degrees.
    ``near`` is a polygon whose vertices the new one is placed close to."""
    rot = draw(st.floats(0.0, 2.0 * math.pi))
    if draw(st.booleans()):
        n = draw(st.integers(3, 9))
        angles = sorted(draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=n,
                                      max_size=n, unique=True)))
        rx, ry = draw(st.floats(0.05, 2.0)), draw(st.floats(0.05, 2.0))
        local = [(rx * math.cos(a), ry * math.sin(a)) for a in angles]
    else:
        apex = math.radians(draw(st.floats(0.5, 90.0)))
        length = draw(st.floats(0.1, 3.0))
        half = length * math.tan(apex / 2.0)
        local = [(0.0, -half), (length, 0.0), (0.0, half)]
    if near is not None and draw(st.booleans()):
        vx, vy = draw(st.sampled_from(near.float_vertices()))
        r, phi = draw(st.floats(0.0, 0.6)), draw(st.floats(0.0, 2.0 * math.pi))
        cx, cy = vx + r * math.cos(phi), vy + r * math.sin(phi)
    else:
        cx, cy = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    c, s = math.cos(rot), math.sin(rot)
    poly = _polygon_or_none([(cx + c * x - s * y, cy + s * x + c * y) for x, y in local])
    assume(poly is not None)
    return poly


@st.composite
def smoothing(draw):
    return geo.SmoothingConfig(tau=draw(st.sampled_from([1e-1, 1e-2, 1e-3])),
                               samples_per_edge=draw(st.sampled_from([1, 2, 4, 16])))


def _check_gaps(sc, kind, names, cfg, **params):
    below, above = pr.smooth_gaps(sc, kind, names, cfg)
    exact = rob(sc, kind, names, False, cfg, **params)
    smooth = rob(sc, kind, names, True, cfg, **params)
    assert smooth >= exact - below - ROUNDING, (exact, smooth, below)
    assert smooth <= exact + above + ROUNDING, (exact, smooth, above)
    return below, above


def _touching(a, b):
    """b moved so that its leftmost vertex lands on a's rightmost one: the
    line x = that vertex's x separates them, and they share the vertex."""
    (ax, ay), (bx, by) = max(a.float_vertices()), min(b.float_vertices())
    return geo.ConvexPolygon([(x + ax - bx, y + ay - by) for x, y in b.float_vertices()])


@settings(max_examples=400, deadline=None)
@given(data=st.data(), cfg=smoothing(), touching=st.booleans())
def test_clearance_gaps_hold(data, cfg, touching):
    # apart, touching and overlapping pairs, needles among them: every side
    # is checked where it is claimed, closeTo's above and farFrom's below
    # only where the exact value proves the distance positive
    a = data.draw(polygons())
    b = data.draw(polygons(near=a))
    if touching:
        b = _touching(a, b)
    sc = scene(a=a, b=b)
    proved = (a.blunt or b.blunt) and a.long_edges and b.long_edges
    budget = geo.clearance_error_budget(a, b, cfg) if proved else math.inf
    assert _check_gaps(sc, K.OVLP, ["a", "b"], cfg, delta_overlap=0.1) == (budget, budget)
    assert _check_gaps(sc, K.FAR_FROM, ["a", "b"], cfg, eps_far=0.3) == (math.inf, budget)
    assert _check_gaps(sc, K.CLOSE_TO, ["a", "b"], cfg, eps_close=0.3) == (budget, math.inf)
    far, close = PredicateParams(eps_far=0.3), PredicateParams(eps_close=0.3)
    exact = rob(sc, K.FAR_FROM, ["a", "b"], False, cfg, eps_far=0.3)
    if pr.apart(K.FAR_FROM, far, exact, exact):
        assert rob(sc, K.FAR_FROM, ["a", "b"], True, cfg, eps_far=0.3) >= exact - budget - ROUNDING
    exact = rob(sc, K.CLOSE_TO, ["a", "b"], False, cfg, eps_close=0.3)
    if pr.apart(K.CLOSE_TO, close, exact, exact):
        assert rob(sc, K.CLOSE_TO, ["a", "b"], True, cfg, eps_close=0.3) <= exact + budget + ROUNDING


def test_clearance_budget_needs_long_edges():
    # b's first edge is 1e-9 long: the square-root guard shrinks its normal
    # to about 1e-3 of unit length, so the inside margin across it reads
    # about 0 where the pair overlaps by 0.33, and the smooth clearance
    # comes out positive; the budget does not cover that, so no gap
    a = geo.ConvexPolygon([(0.0, -0.708237145061396), (2.0, 0.0), (0.0, 0.708237145061396)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # near-collinear corners at the short edge
        b = geo.ConvexPolygon([(1.0, 0.0), (1.0, 1e-9), (0.5403023058681398, 0.8414709848078965)])
    cfg = geo.SmoothingConfig(tau=1e-2)
    exact = xg.exact_clearance(a.float_vertices(), b.float_vertices())
    assert exact < -0.3 and geo.signed_clearance(a, b, cfg) > 0.1
    assert a.blunt and a.long_edges and not b.long_edges
    assert abs(geo.signed_clearance(a, b, cfg) - exact) > 5.0 * geo.clearance_error_budget(a, b, cfg)
    sc = scene(a=a, b=b)
    for kind in (K.CLOSE_TO, K.FAR_FROM, K.OVLP):
        assert pr.smooth_gaps(sc, kind, ["a", "b"], cfg) == (math.inf, math.inf)


def test_far_from_falls_a_whole_depth_below_under_overlap():
    # squares overlapping by 0.4: the exact distance is 0 and the smooth
    # side reads minus the depth, far more than the budget below the exact
    # value; the exact value proves no positive distance, so the screen
    # keeps farFrom's below side open there
    sc = scene(a=square(0.0, 0.0), b=square(0.6, 0.0))
    cfg = geo.SmoothingConfig(tau=1e-2)
    budget = geo.clearance_error_budget(sc.get("a").shape, sc.get("b").shape, cfg)
    exact = rob(sc, K.FAR_FROM, ["a", "b"], False, cfg, eps_far=0.3)
    smooth = rob(sc, K.FAR_FROM, ["a", "b"], True, cfg, eps_far=0.3)
    assert exact == -0.3
    assert smooth < exact - 5.0 * budget
    assert pr.smooth_gaps(sc, K.FAR_FROM, ["a", "b"], cfg) == (math.inf, budget)
    assert not pr.apart(K.FAR_FROM, PredicateParams(eps_far=0.3), exact, exact)
    assert pr.apart(K.FAR_FROM, PredicateParams(eps_far=0.3), math.nextafter(-0.3, 0.0), 1.0)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), cfg=smoothing())
def test_enclosure_gap_holds(data, cfg):
    outer = data.draw(polygons())
    inner = data.draw(polygons(near=outer))
    below, above = _check_gaps(scene(i=inner, o=outer), K.ENCL_IN, ["i", "o"], cfg,
                               delta_inside=0.05)
    assert below == math.inf
    assert above == (geo.enclosure_error_budget(inner, outer, cfg)
                     if outer.blunt and outer.long_edges else math.inf)


def _boxed(shapes, boxes):
    """``shapes`` with the named polygons swapped for their bounding boxes,
    which have exact extremes and add no gap."""
    out = dict(shapes)
    for name in boxes:
        xs, ys = zip(*out[name].float_vertices())
        out[name] = AxisAlignedBox3((min(xs), min(ys), 0.0), (max(xs), max(ys), 1.0))
    return out


@settings(max_examples=300, deadline=None)
@given(a=polygons(), b=polygons(), cfg=smoothing(), kind=st.sampled_from(pr.DIRECTIONAL[:4]),
       box=st.sampled_from([None, "a", "b"]))
def test_directional_gaps_hold(a, b, cfg, kind, box):
    shapes = _boxed({"a": a, "b": b}, [box] if box is not None else [])
    gap = cfg.tau * sum(math.log(len(s)) for s in shapes.values()
                        if isinstance(s, geo.ConvexPolygon))
    assert _check_gaps(scene(**shapes), kind, ["a", "b"], cfg, kappa=0.1) == (gap, 0.0)


def test_directional_gaps_on_boxes_are_zero():
    sc = scene(a=AxisAlignedBox3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
               b=AxisAlignedBox3((0.5, 2.0, 4.0), (3.0, 4.0, 5.0)))
    for kind in pr.DIRECTIONAL:
        assert _check_gaps(sc, kind, ["a", "b"], SHARP, kappa=0.5) == (0.0, 0.0)


@settings(max_examples=300, deadline=None)
@given(a=polygons(), mid=polygons(), c=polygons(), cfg=smoothing(),
       kind=st.sampled_from([K.BETWEEN_PX, K.BETWEEN_PY]),
       boxes=st.sets(st.sampled_from(["a", "mid", "c"])))
def test_between_gaps_hold(a, mid, c, cfg, kind, boxes):
    shapes = _boxed({"a": a, "mid": mid, "c": c}, boxes)
    g = {name: math.log(len(s)) if isinstance(s, geo.ConvexPolygon) else 0.0
         for name, s in shapes.items()}
    gap = cfg.tau * (math.log(2.0) + max(g["a"] + g["mid"], g["mid"] + g["c"]))
    assert _check_gaps(scene(**shapes), kind, ["a", "mid", "c"], cfg, kappa=0.1) == (gap, 0.0)


def test_heading_and_bearing_gaps_are_zero():
    rng = random.Random(7)
    for _ in range(20):
        shapes = {}
        for name in ("a", "b"):
            theta = rng.uniform(-math.pi, math.pi)
            shape = square(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(0.1, 1.0))
            shapes[name] = (shape, (math.cos(theta), math.sin(theta)))
        sc = scene(**shapes)
        assert _check_gaps(sc, K.ORIENTED, ["a", "b"], SHARP, kappa=0.3) == (0.0, 0.0)
        assert _check_gaps(sc, K.BEARING_TO, ["a", "b"], SHARP,
                           theta_ref=rng.uniform(-3.0, 3.0), kappa=0.3) == (0.0, 0.0)
        assert (rob(sc, K.ORIENTED, ["a", "b"], True, kappa=0.3)
                == rob(sc, K.ORIENTED, ["a", "b"], False, kappa=0.3))


def test_kinds_without_a_proof_get_no_gap():
    sc = scene(a=(square(0, 0), (1.0, 0.0)), b=(square(3, 0.2), (0.0, 1.0)))
    for kind in (K.TOUCH, K.PART_OVLP):
        assert pr.smooth_gaps(sc, kind, ["a", "b"], SHARP) == (math.inf, math.inf)
    boxes = scene(a=AxisAlignedBox3((0, 0, 0), (1, 1, 1)), b=AxisAlignedBox3((0, 0, 0), (2, 2, 2)))
    assert pr.smooth_gaps(boxes, K.ENCL_IN, ["a", "b"], SHARP) == (math.inf, math.inf)


def test_enclosure_budget_fails_above_past_an_acute_corner():
    # a needle with a 2 degree tip and a small square 0.3 beyond it: the hard
    # inward margin there is only 0.3*sin(1 deg), so the sigmoid leaves much
    # weight on the inside branch and the smooth margin overshoots the budget
    half = 2.0 * math.tan(math.radians(1.0))
    outer = geo.ConvexPolygon([(0.0, -half), (2.0, 0.0), (0.0, half)])
    inner = square(2.31, 0.0, 0.01)
    cfg = geo.SmoothingConfig(tau=1e-2)
    sc = scene(i=inner, o=outer)
    over = (rob(sc, K.ENCL_IN, ["i", "o"], True, cfg, delta_inside=0.05)
            - rob(sc, K.ENCL_IN, ["i", "o"], False, cfg, delta_inside=0.05))
    assert over > 2.0 * geo.enclosure_error_budget(inner, outer, cfg)
    assert not outer.blunt
    assert pr.smooth_gaps(sc, K.ENCL_IN, ["i", "o"], cfg) == (math.inf, math.inf)


def test_enclosure_budget_fails_below_along_near_collinear_edges():
    # 60 nearly collinear bottom edges: a vertex just inside the middle one
    # sees many equal margins but one near distance, and the blend puts its
    # smooth signed distance above the exact one by more than the budget
    radius = 1e5
    chain = [(x, radius - math.sqrt(radius * radius - x * x)) for x in range(-60, 61, 2)]
    outer = geo.ConvexPolygon(chain + [(60.0, 5.0), (-60.0, 5.0)])
    cfg = geo.SmoothingConfig(tau=1e-1)
    under = 0.0
    for k in range(1, 80):
        sc = scene(i=geo.ConvexPolygon([(0.0, k * 0.01), (0.5, 2.0), (-0.5, 2.0)]), o=outer)
        under = max(under, rob(sc, K.ENCL_IN, ["i", "o"], False, cfg, delta_inside=0.05)
                    - rob(sc, K.ENCL_IN, ["i", "o"], True, cfg, delta_inside=0.05))
    assert under > geo.enclosure_error_budget(sc.get("i").shape, outer, cfg)
    assert outer.blunt
    assert pr.smooth_gaps(sc, K.ENCL_IN, ["i", "o"], cfg)[0] == math.inf


# -- motion bound ------------------------------------------------------------------


@st.composite
def motions(draw):
    """(dx, dy, angle, ox, oy): a turn by ``angle`` about (ox, oy), then a
    shift; half the draws are pure turns about an origin up to 300 away,
    which move every vertex a long way for a small angle."""
    angle = draw(st.floats(-0.3, 0.3))
    if draw(st.booleans()):
        r, phi = draw(st.floats(20.0, 300.0)), draw(st.floats(0.0, 2.0 * math.pi))
        return 0.0, 0.0, angle / r * draw(st.floats(0.1, 10.0)), r * math.cos(phi), r * math.sin(phi)
    return (draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)), angle,
            draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))


def _move(shape, motion):
    dx, dy, angle, ox, oy = motion
    if isinstance(shape, AxisAlignedBox3):   # boxes only shift
        return AxisAlignedBox3(tuple(c + d for c, d in zip(shape.lo, (dx, dy, angle))),
                               tuple(c + d for c, d in zip(shape.hi, (dx, dy, angle))))
    c, s = math.cos(angle), math.sin(angle)
    return geo.ConvexPolygon([(ox + c * (x - ox) - s * (y - oy) + dx,
                               oy + s * (x - ox) + c * (y - oy) + dy)
                              for x, y in shape.float_vertices()])


MOTION_PARAMS = {K.CLOSE_TO: {"eps_close": 0.3}, K.FAR_FROM: {"eps_far": 0.3},
                 K.ENCL_IN: {"delta_inside": 0.05}, K.BETWEEN_PX: {"kappa": 0.1},
                 K.BETWEEN_PY: {"kappa": 0.1},
                 **{k: {"kappa": 0.1} for k in pr.DIRECTIONAL}}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(index=st.integers(0, 10 ** 6), kind=st.sampled_from(sorted(pr.MOTION_BOUNDED,
                                                                   key=lambda k: k.value)),
       layout=st.sampled_from(["pair", "nested", "boxes"]),
       moves=st.lists(motions(), min_size=3, max_size=3))
def test_motion_bound_holds(index, kind, layout, moves):
    """Every kind in the table moves by at most the summed displacement of
    its operands under rigid motions (boxes: shifts), plus the rounding
    allowance; on randgeom pairs, a polygon nested in the other (enclIn's
    inside branch), or bounding boxes (which the z-axis kinds need and the
    distance kinds reject)."""
    a, b = (geo.ConvexPolygon(v) for v in pair_for_index(11, index))
    c = geo.ConvexPolygon(pair_for_index(12, index)[0])
    if layout == "nested":
        cx, cy = b.centroid()
        a = geo.ConvexPolygon([(cx + 0.3 * (x - cx), cy + 0.3 * (y - cy))
                               for x, y in b.float_vertices()])
    shapes = {"a": a, "b": b, "c": c}
    if (layout == "boxes" and kind not in (K.CLOSE_TO, K.FAR_FROM)) or kind in (K.BELOW, K.ABOVE):
        shapes = _boxed(shapes, shapes)
    names = ["a", "b", "c"][:pr.ARITY[kind]]
    before = scene(**shapes)
    after = scene(**{n: _move(s, m) for (n, s), m in zip(shapes.items(), moves)})
    v0 = rob(before, kind, names, False, **MOTION_PARAMS[kind])
    v1 = rob(after, kind, names, False, **MOTION_PARAMS[kind])
    delta = scale = 0.0
    for n in names:
        d, s = pr.displacement(before.get(n), after.get(n))
        delta += d
        scale += s
    assert abs(v1 - v0) <= delta + pr.MOTION_ROUNDING * (1.0 + abs(v0) + scale), (v0, v1, delta)


def test_kinds_read_through_turning_normals_or_headings_have_no_motion_bound():
    for kind in (K.TOUCH, K.OVLP, K.PART_OVLP, K.ORIENTED, K.BEARING_TO):
        assert kind not in pr.MOTION_BOUNDED


def test_displacement_is_infinite_between_unmatched_shapes():
    tri = geo.ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    box = AxisAlignedBox3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    for old, new in ((square(0, 0), tri), (square(0, 0), box)):
        assert pr.displacement(SceneObject("a", old), SceneObject("a", new))[0] == math.inf
    assert pr.displacement(SceneObject("a", square(0, 0)),
                           SceneObject("a", square(0.3, -0.4))) == (0.5, 0.9)

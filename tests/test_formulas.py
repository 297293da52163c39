"""Temporal layer: parsing, robustness semantics, negation duals, monitor."""
import math
import random

import pytest

from gradcheck import check_gradient
from polystl import autodiff as ad
from polystl import formulas
from polystl.formulas import (MAX_NESTING, Always, And, Atom, Evaluator, Eventually,
                              FormulaError, Not, Or, Trajectory, Until, atoms_of,
                              eval_exact, eval_smooth, parse, satisfies,
                              smoothing_budget, to_text)
from polystl.geometry import ConvexPolygon, PolygonTemplate, Pose2D, SmoothingConfig
from polystl.predicates import (ARITY, DIRECTIONAL, AxisAlignedBox3, PredicateKind,
                                PredicateParams, Scene, SceneObject)


def square(cx, cy, half=0.5):
    return ConvexPolygon([(cx - half, cy - half), (cx + half, cy - half),
                          (cx + half, cy + half), (cx - half, cy + half)])


UNIT_SQUARE = PolygonTemplate(square(0, 0).vertices)


def placed_square(x, y=0.0, theta=0.0):
    """A unit square placed at (x, y, theta), which may be tape variables."""
    return UNIT_SQUARE.at(Pose2D(x, y, theta))


def _ngon(cx, cy, n, r, rot=0.0):
    """Regular n-gon of circumradius r about (cx, cy)."""
    return ConvexPolygon([(cx + r * math.cos(rot + 2.0 * math.pi * k / n),
                           cy + r * math.sin(rot + 2.0 * math.pi * k / n)) for k in range(n)])


def pair_scene(d_ab, d_ac=None):
    """a at the origin, b at x=d_ab, optionally c at x=d_ac; unit squares.

    With axis-aligned unit squares, exact distance between a and b is
    d_ab - 1, so closeTo(a, b; eps) has robustness eps - (d_ab - 1).
    """
    objs = [SceneObject("a", square(0, 0)), SceneObject("b", square(d_ab, 0))]
    if d_ac is not None:
        objs.append(SceneObject("c", square(d_ac, 0)))
    return Scene(objs)


def close_to(x, y, eps):
    return Atom(PredicateKind.CLOSE_TO, (x, y),
                PredicateParams.for_kind(PredicateKind.CLOSE_TO, [eps]))


def traj_with_values(values, eps=4.0):
    """Trajectory where closeTo(a, b; eps) evaluates to values[t] exactly."""
    return Trajectory([pair_scene(1.0 + eps - v) for v in values])


# -- parser ---------------------------------------------------------------------


def test_parse_atom():
    f = parse("closeTo(a, b; 0.5)")
    assert isinstance(f, Atom)
    assert f.kind is PredicateKind.CLOSE_TO
    assert f.objects == ("a", "b")
    assert f.params.eps_close == 0.5


def test_parse_precedence():
    f = parse("closeTo(a,b;1) & farFrom(a,b;1) | leftOf(a,b;0.1)")
    assert isinstance(f, Or)
    assert isinstance(f.children[0], And)


def test_parse_temporal_and_until():
    f = parse("G[0,59] rightOf(arm, obs1; 0.1) & F[60,118] leftOf(arm, obs1; 0.1)")
    assert isinstance(f, And)
    g, ev = f.children
    assert isinstance(g, Always) and (g.lo, g.hi) == (0, 59)
    assert isinstance(ev, Eventually) and (ev.lo, ev.hi) == (60, 118)

    u = parse("closeTo(a,b;4) U[0,2] closeTo(a,c;6)")
    assert isinstance(u, Until) and (u.lo, u.hi) == (0, 2)


def test_parse_negation_and_parens():
    f = parse("!(closeTo(a,b;1) | ovlp(a,b;0.1))")
    assert isinstance(f, Not) and isinstance(f.child, Or)


def test_parse_bearing_params_in_order():
    f = parse("bearingTo(a, b; -1.5, 0.2)")
    assert f.params.theta_ref == -1.5
    assert f.params.kappa == 0.2


def test_parse_between_takes_three_objects():
    f = parse("betweenPx(a, b, c; 0.1)")
    assert f.objects == ("a", "b", "c")


@pytest.mark.parametrize("text", [
    "closeTo(a, b; 0.5) extra",           # trailing input
    "nearTo(a, b; 0.5)",                   # unknown predicate
    "U(a, b; 0.5)",                        # reserved word as predicate
    "G[3,1] closeTo(a,b;1)",               # lo > hi
    "G[-1,2] closeTo(a,b;1)",              # negative bound
    "G[0.5,2] closeTo(a,b;1)",             # non-integer bound
    "closeTo(a; 0.5)",                     # wrong arity
    "betweenPx(a, b; 0.1)",                # between needs three objects
    "closeTo(a, b; 0.5, 0.2)",             # too many parameters
    "closeTo(a, b; -0.5)",                 # nonpositive threshold
    "closeTo(a, b)",                       # missing parameter block
    "closeTo(a, b; 0.5",                   # unclosed paren
    "@closeTo(a,b;1)",                     # stray character
    "closeTo(a, b; 1e999)",                # overflows to infinity
    "closeTo(a, b; 1.2.3)",                # malformed number
])
def test_parse_rejects(text):
    with pytest.raises(FormulaError):
        parse(text)


def test_parse_rejects_non_finite_number_with_offset():
    with pytest.raises(FormulaError, match=r"non-finite number '1e999' at offset 26"):
        parse("G[0,16] closeTo(ee, goal; 1e999)")


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("!", ""), ("G[0,1] ", "")])
def test_parse_depth_limit(opener, closer):
    atom = "closeTo(a, b; 1)"
    inside = opener * (MAX_NESTING - 1) + atom + closer * (MAX_NESTING - 1)
    assert atoms_of(parse(inside)) == [parse(atom)]
    for depth in (MAX_NESTING, 2000):
        with pytest.raises(FormulaError, match="nests deeper"):
            parse(opener * depth + atom + closer * depth)


@pytest.mark.parametrize("text", [
    "closeTo(a, b; 0.5)",
    "!ovlp(a, b; 0.25)",
    "G[0,10](closeTo(a,b;1) & farFrom(a,c;2))",
    "F[2,5]!enclIn(a,b;0.05)",
    "(closeTo(a,b;4) | leftOf(a,b;0.1)) U[1,3] touch(a,c;0.2)",
    "bearingTo(a, b; 3.141592653589793, 0.5)",
    "betweenPy(a, b, c; 0.1) & oriented(a, b; 0.3)",
])
def test_roundtrip(text):
    f = parse(text)
    assert parse(to_text(f)) == f


def test_roundtrip_randomized():
    rng = random.Random(7)
    kinds = [PredicateKind.CLOSE_TO, PredicateKind.LEFT_OF, PredicateKind.OVLP]

    def gen(depth):
        if depth == 0 or rng.random() < 0.3:
            k = rng.choice(kinds)
            return Atom(k, ("a", "b"),
                        PredicateParams.for_kind(k, [round(rng.uniform(0.1, 2.0), 3)]))
        op = rng.randrange(6)
        if op == 0:
            return Not(gen(depth - 1))
        if op == 1:
            return And(tuple(gen(depth - 1) for _ in range(rng.randint(2, 3))))
        if op == 2:
            return Or(tuple(gen(depth - 1) for _ in range(2)))
        lo = rng.randint(0, 3)
        hi = lo + rng.randint(0, 3)
        if op == 3:
            return Always(lo, hi, gen(depth - 1))
        if op == 4:
            return Eventually(lo, hi, gen(depth - 1))
        return Until(lo, hi, gen(depth - 1), gen(depth - 1))

    for _ in range(120):
        f = gen(3)
        assert parse(to_text(f)) == f


def test_window_validation_at_construction():
    with pytest.raises(FormulaError):
        Always(2, 1, close_to("a", "b", 1.0))
    with pytest.raises(FormulaError):
        Eventually(-1, 2, close_to("a", "b", 1.0))


# -- temporal semantics, frozen values -------------------------------------------
# Streams are realized geometrically: closeTo(a, b; 4) on unit squares at
# center distance d gives robustness 4 - (d - 1), so distances are chosen to
# hit each stream value exactly.


def test_always_takes_worst_step():
    traj = traj_with_values([1.0, 3.0, -2.0])
    f = Always(0, 2, close_to("a", "b", 4.0))
    ev = Evaluator(traj, smooth=False)
    res = eval_exact(f, traj, evaluator=ev)
    assert res.value == pytest.approx(-2.0, abs=1e-9)
    assert not res.satisfied
    assert [ev.eval(f.child, u) for u in range(3)] == pytest.approx([1.0, 3.0, -2.0], abs=1e-9)


def test_eventually_takes_best_step():
    traj = traj_with_values([-1.0, 2.0, 0.0])
    f = Eventually(0, 2, close_to("a", "b", 4.0))
    res = eval_exact(f, traj)
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert res.satisfied


def test_until_releases_at_best_feasible_instant():
    # phi1 = closeTo(a,b;7) held at 5 throughout; phi2 = closeTo(a,c;6)
    # runs -1, -1, 4. Release at t=2 is the only positive candidate.
    scenes = []
    for v2 in (-1.0, -1.0, 4.0):
        scenes.append(pair_scene(1.0 + 7.0 - 5.0, 1.0 + 6.0 - v2))
    traj = Trajectory(scenes)
    f = Until(0, 2, close_to("a", "b", 7.0), close_to("a", "c", 6.0))
    res = eval_exact(f, traj)
    assert res.value == pytest.approx(4.0, abs=1e-9)
    assert satisfies(f, traj)


def test_until_capped_by_held_operand():
    # phi1 dips to -3 at t=1, which caps every release from t=1 onward.
    scenes = [pair_scene(1.0 + 7.0 - v1, 1.0 + 6.0 - v2)
              for v1, v2 in [(5.0, -1.0), (-3.0, -1.0), (5.0, 4.0)]]
    traj = Trajectory(scenes)
    f = Until(0, 2, close_to("a", "b", 7.0), close_to("a", "c", 6.0))
    res = eval_exact(f, traj)
    # candidates: min(-1,5)=-1, min(-1,5,-3)=-3, min(4,5,-3,5)=-3; best -1
    assert res.value == pytest.approx(-1.0, abs=1e-9)
    assert not satisfies(f, traj)


def test_nested_anchoring():
    # F[0,1] G[0,1] phi over stream [1, 3, -2]: G at 0 -> 1, G at 1 -> -2.
    traj = traj_with_values([1.0, 3.0, -2.0])
    f = Eventually(0, 1, Always(0, 1, close_to("a", "b", 4.0)))
    assert eval_exact(f, traj).value == pytest.approx(1.0, abs=1e-9)


def test_window_clips_to_horizon():
    traj = traj_with_values([1.0, 3.0, -2.0])
    f = Always(0, 10, close_to("a", "b", 4.0))
    assert eval_exact(f, traj).value == pytest.approx(-2.0, abs=1e-9)


def test_empty_window_after_clipping_is_an_error():
    traj = traj_with_values([1.0, 3.0, -2.0])
    f = Eventually(3, 5, close_to("a", "b", 4.0))
    with pytest.raises(FormulaError, match="empty"):
        eval_exact(f, traj)
    with pytest.raises(FormulaError):
        satisfies(f, traj)


def test_anchor_outside_horizon_is_an_error():
    traj = traj_with_values([1.0, 3.0])
    with pytest.raises(FormulaError):
        eval_exact(close_to("a", "b", 4.0), traj, t=5)


def test_zero_robustness_is_not_satisfying():
    traj = traj_with_values([0.0])
    res = eval_exact(close_to("a", "b", 4.0), traj)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert not res.satisfied
    assert not satisfies(close_to("a", "b", 4.0), traj)


def test_negation_and_connectives():
    traj = traj_with_values([2.0])
    phi = close_to("a", "b", 4.0)  # 2.0
    assert eval_exact(Not(phi), traj).value == pytest.approx(-2.0)
    both = And((phi, Not(phi)))
    assert eval_exact(both, traj).value == pytest.approx(-2.0)
    either = Or((phi, Not(phi)))
    assert eval_exact(either, traj).value == pytest.approx(2.0)


# -- smooth semantics --------------------------------------------------------------


def test_smooth_eventually_bounds_exact():
    # lse-max over the window upper-bounds the hard max by at most tau*log N.
    traj = traj_with_values([-1.0, 2.0, 0.0])
    f = Eventually(0, 2, close_to("a", "b", 4.0))
    cfg = SmoothingConfig(tau=0.01)
    exact = eval_exact(f, traj).value
    smooth = eval_smooth(f, traj, cfg=cfg).value
    # atoms are sampled, so allow their approximation on top of the lse gap
    atom_slack = 0.05
    assert smooth >= exact - atom_slack
    assert smooth <= exact + cfg.tau * math.log(3.0) + atom_slack


def _budget(formula, traj, tau, t=0):
    """smoothing_budget over a fresh smooth evaluator at ``tau``."""
    return smoothing_budget(formula, Evaluator(traj, True, SmoothingConfig(tau=tau)), t)


def test_smooth_always_within_budget_for_directional_formula():
    # Box atoms have exact extremes, so the only smooth/exact gap is the
    # temporal lse; smoothing_budget must cover it.
    def box_scene(x):
        return Scene([
            SceneObject("a", AxisAlignedBox3.from_center(x, 0.0, 0.0, (0.5, 0.5, 0.5))),
            SceneObject("b", AxisAlignedBox3.from_center(4.0, 0.0, 0.0, (0.5, 0.5, 0.5))),
        ])

    traj = Trajectory([box_scene(x) for x in (0.0, 0.5, 1.0, 1.5)])
    f = Always(0, 3, Atom(PredicateKind.LEFT_OF, ("a", "b"),
                          PredicateParams.for_kind(PredicateKind.LEFT_OF, [0.1])))
    cfg = SmoothingConfig(tau=0.05)
    exact = eval_exact(f, traj).value
    smooth = eval_smooth(f, traj, cfg=cfg).value
    budget = _budget(f, traj, cfg.tau)
    assert budget == pytest.approx(0.05 * math.log(4.0))
    assert abs(smooth - exact) <= budget + 1e-12


def test_smoothing_budget_directional_polygons():
    traj = Trajectory([pair_scene(3.0)])
    f = Atom(PredicateKind.LEFT_OF, ("a", "b"),
             PredicateParams.for_kind(PredicateKind.LEFT_OF, [0.1]))
    budget = _budget(f, traj, 0.01)
    # two squares, four vertices each
    assert budget == pytest.approx(0.01 * 2 * math.log(4.0))
    exact = eval_exact(f, traj).value
    smooth = eval_smooth(f, traj, cfg=SmoothingConfig(tau=0.01)).value
    assert abs(smooth - exact) <= budget + 1e-12


def test_smoothing_budget_none_for_sampled_atoms():
    traj = traj_with_values([1.0])
    assert _budget(close_to("a", "b", 4.0), traj, 0.01) is None


def test_smooth_matches_exact_as_tau_shrinks():
    traj = traj_with_values([1.0, 3.0, -2.0])
    f = Always(0, 2, close_to("a", "b", 4.0))
    exact = eval_exact(f, traj).value
    errs = [abs(eval_smooth(f, traj, cfg=SmoothingConfig(tau=t)).value - exact)
            for t in (0.1, 0.01, 0.001)]
    assert errs[2] < 0.01


def test_smooth_result_carries_tape_node():
    tape = ad.Tape()
    x = tape.var(2.5)
    objs = [SceneObject("a", square(0, 0)), SceneObject("b", placed_square(x))]
    traj = Trajectory([Scene(objs)])
    res = eval_smooth(close_to("a", "b", 4.0), traj)
    assert isinstance(res.node, ad.Var)
    g = ad.backward(res.node)
    # moving b away decreases closeTo robustness
    assert g.wrt(x) < 0.0


def test_gradient_through_temporal_operators():
    # d/dx_t of a smooth G over three steps, against central differences.
    def build(xs):
        return Trajectory([Scene([SceneObject("a", square(0, 0)),
                                  SceneObject("b", placed_square(x))]) for x in xs])

    f = Always(0, 2, close_to("a", "b", 4.0))
    cfg = SmoothingConfig(tau=0.05)
    xs = [2.0, 2.6, 3.1]

    tape = ad.Tape()
    vs = [tape.var(x) for x in xs]
    res = eval_smooth(f, build(vs), cfg=cfg)
    g = ad.backward(res.node)
    analytic = [g.wrt(v) for v in vs]

    def value(at):
        return eval_smooth(f, build(at), cfg=cfg).value

    check_gradient(value, xs, analytic)


def test_memo_shares_subformula_work():
    # The same child object under two windows must agree at shared steps.
    traj = traj_with_values([1.0, 3.0, -2.0, 0.5])
    phi = close_to("a", "b", 4.0)
    f = And((Always(0, 2, phi), Eventually(1, 3, phi)))
    res = eval_exact(f, traj)
    assert res.value == pytest.approx(min(-2.0, max(3.0, -2.0, 0.5)), abs=1e-9)


# -- boolean monitor cross-check ---------------------------------------------------


def random_formula(rng, depth, pairs=(("a", "b"),),
                   kinds=(PredicateKind.CLOSE_TO, PredicateKind.FAR_FROM, PredicateKind.LEFT_OF)):
    """A random formula over atoms of the given kinds (closeTo/farFrom/leftOf
    by default) on the object pairs; an atom takes the tuples of ``pairs``
    that match its arity."""
    kinds = list(kinds)

    def gen(depth):
        if depth == 0 or rng.random() < 0.35:
            k = rng.choice(kinds)
            fits = [p for p in pairs if len(p) == ARITY[k]]
            objects = fits[0] if len(fits) == 1 else rng.choice(fits)
            return Atom(k, objects,
                        PredicateParams.for_kind(k, [round(rng.uniform(0.2, 3.0), 2)]))
        op = rng.randrange(6)
        if op == 0:
            return Not(gen(depth - 1))
        if op == 1:
            return And(tuple(gen(depth - 1) for _ in range(2)))
        if op == 2:
            return Or(tuple(gen(depth - 1) for _ in range(2)))
        lo = rng.randint(0, 2)
        hi = lo + rng.randint(0, 2)
        if op == 3:
            return Always(lo, hi, gen(depth - 1))
        if op == 4:
            return Eventually(lo, hi, gen(depth - 1))
        return Until(lo, hi, gen(depth - 1), gen(depth - 1))

    return gen(depth)


def test_monitor_agrees_with_robustness_sign():
    rng = random.Random(20260815)
    traj = Trajectory([pair_scene(d) for d in (1.3, 2.0, 3.4, 1.8, 2.7)])
    checked = 0
    for _ in range(150):
        f = random_formula(rng, 3)
        try:
            rho = eval_exact(f, traj).value
        except FormulaError:
            continue  # window fell off the horizon
        if abs(rho) < 1e-9:
            continue
        assert satisfies(f, traj) == (rho > 0.0), to_text(f)
        checked += 1
    assert checked > 100


def _plain_satisfies(formula, trajectory, t=0):
    """satisfies as first written: the same recursion with no memo."""
    horizon = trajectory.horizon

    def check(f, u):
        if isinstance(f, Atom):
            return ad.value_of(formulas.atom_robustness(trajectory.scene(u), f.kind, f.objects,
                                                        f.params, smooth=False)) > 0.0
        if isinstance(f, Not):
            return not check(f.child, u)
        if isinstance(f, And):
            return all(check(c, u) for c in f.children)
        if isinstance(f, Or):
            return any(check(c, u) for c in f.children)
        if isinstance(f, Always):
            return all(check(f.child, v) for v in formulas._window(u, f.lo, f.hi, horizon, "G"))
        if isinstance(f, Eventually):
            return any(check(f.child, v) for v in formulas._window(u, f.lo, f.hi, horizon, "F"))
        if isinstance(f, Until):
            for v in formulas._window(u, f.lo, f.hi, horizon, "U"):
                if check(f.right, v) and all(check(f.left, w) for w in range(u, v + 1)):
                    return True
            return False
        raise FormulaError(f"not a formula: {f!r}")

    return check(formula, t)


def _verdict_or_error(monitor, f, traj, t):
    try:
        return monitor(f, traj, t)
    except FormulaError as exc:   # a window fell off the horizon
        return str(exc)


def test_memoized_monitor_matches_the_plain_recursion():
    rng = random.Random(20261020)
    traj = Trajectory([pair_scene(d, d_ac) for d, d_ac in
                       ((1.3, 2.2), (2.0, 1.6), (3.4, 3.0), (1.8, 2.5), (2.7, 1.4), (1.1, 3.3))])
    verdicts = set()
    for _ in range(200):
        f = random_formula(rng, 4, pairs=(("a", "b"), ("a", "c")))
        for t in range(traj.horizon + 1):
            got = _verdict_or_error(satisfies, f, traj, t)
            assert got == _verdict_or_error(_plain_satisfies, f, traj, t), to_text(f)
            verdicts.add(got)
    assert {True, False} <= verdicts


def test_monitor_evaluates_each_atom_once_per_step_under_nested_windows(monkeypatch):
    # G[0,1] nested 18 deep over a trajectory where the atom always holds:
    # no all() stops early, and the plain recursion evaluates the atom 2^18
    # times at the root; the memo evaluates it once per step.
    depth = 18
    traj = traj_with_values([1.0] * (depth + 1))
    f = close_to("a", "b", 4.0)
    for _ in range(depth):
        f = Always(0, 1, f)
    calls = []
    real = formulas.atom_robustness

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(formulas, "atom_robustness", counting)
    assert satisfies(f, traj)
    assert len(calls) == depth + 1


# -- one evaluator reused across anchors and formulas --------------------------------


def _result_or_error(ev, f, t):
    try:
        return ev.result(f, t)
    except FormulaError as exc:   # a window fell off the horizon
        return str(exc)


@pytest.mark.parametrize("smooth", [False, True])
def test_reused_evaluator_matches_fresh_ones(smooth):
    """Formulas are built, evaluated at every anchor on one shared evaluator
    and dropped in turn, so later formulas reuse the memory (and the ids) of
    earlier ones; every result must equal a fresh evaluator's."""
    rng = random.Random(20261018)
    traj = Trajectory([pair_scene(d, d_ac) for d, d_ac in
                       ((1.3, 2.2), (2.0, 1.6), (3.4, 3.0), (1.8, 2.5), (2.7, 1.4))])
    cfg = SmoothingConfig(tau=0.05)
    shared = Evaluator(traj, smooth, cfg)
    compared = 0
    for _ in range(200):
        f = random_formula(rng, 3, pairs=(("a", "b"), ("a", "c")))
        for t in range(traj.horizon + 1):
            got = _result_or_error(shared, f, t)
            assert got == _result_or_error(Evaluator(traj, smooth, cfg), f, t), to_text(f)
            compared += not isinstance(got, str)
        del f
    assert compared > 500


def test_structurally_equal_atoms_share_one_evaluation(monkeypatch):
    from polystl import formulas
    calls = []
    real = formulas.atom_robustness

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(formulas, "atom_robustness", counting)
    traj = traj_with_values([1.0, 3.0, -2.0, 0.5])
    ev = Evaluator(traj, smooth=False)
    formulas = [cls(0, 3 - t, close_to("a", "b", 4.0))   # all alive at once
                for t in range(4) for cls in (Always, Eventually)]
    for k, f in enumerate(formulas):
        ev.result(f, k // 2)
    assert len(calls) == 4


@pytest.mark.parametrize("eps", [math.inf, math.nan])
def test_exact_evaluator_rejects_non_finite_robustness(eps):
    """Parsed formulas cannot carry such a threshold; the guard is the last
    line of defence for any other way in."""
    traj = traj_with_values([1.0, 3.0])
    for f in (close_to("a", "b", eps), Not(Always(0, 1, close_to("a", "b", eps)))):
        with pytest.raises(FormulaError, match="not finite"):
            eval_exact(f, traj)
        eval_smooth(f, traj)   # the smooth value is evidence, never a verdict


@pytest.mark.parametrize("nan_first", [True, False], ids=["nan_first", "nan_second"])
def test_non_finite_exact_atom_raises_in_either_operand_order(monkeypatch, nan_first):
    """A hard min that met the NaN after a finite operand would skip it, so
    the guard sits on each atom value, not on the result."""
    real = formulas.atom_robustness

    def nan_far_from(scene, kind, objects, params, smooth, cfg):
        if kind is PredicateKind.FAR_FROM and not smooth:
            return math.nan
        return real(scene, kind, objects, params, smooth, cfg)

    monkeypatch.setattr(formulas, "atom_robustness", nan_far_from)
    far = Atom(PredicateKind.FAR_FROM, ("a", "b"),
               PredicateParams.for_kind(PredicateKind.FAR_FROM, [0.3]))
    operands = (Always(0, 2, far), Eventually(0, 2, close_to("a", "b", 4.0)))
    f = And(operands if nan_first else operands[::-1])
    with pytest.raises(FormulaError) as info:
        eval_exact(f, traj_with_values([1.0, 2.0, 3.0]))
    assert str(info.value) == "exact robustness of farFrom(a, b; 0.3) at t=0 is not finite"


# -- negation duals ----------------------------------------------------------------


def test_negation_equals_its_dual_form_bit_for_bit():
    """The evaluator negates a child's value, and lse_min(x) is computed as
    -lse_max(-x), so each De Morgan / temporal dual gives the identical
    float in exact mode and at every smoothing temperature."""
    traj = Trajectory([pair_scene(d) for d in (1.3, 2.0, 3.4, 1.8)])
    phi = close_to("a", "b", 2.0)
    psi = Atom(PredicateKind.FAR_FROM, ("a", "b"),
               PredicateParams.for_kind(PredicateKind.FAR_FROM, [1.5]))
    cases = [
        (Not(Always(0, 3, phi)), Eventually(0, 3, Not(phi))),
        (Not(Or((phi, Not(psi)))), And((Not(phi), psi))),
        (Not(Eventually(0, 2, And((phi, psi)))),
         Always(0, 2, Or((Not(phi), Not(psi))))),
        (Not(Not(Always(1, 3, Or((phi, psi))))), Always(1, 3, Or((phi, psi)))),
    ]
    for f, dual in cases:
        assert eval_exact(f, traj).value == eval_exact(dual, traj).value, to_text(f)
        for tau in (1e-1, 1e-2, 1e-3):
            cfg = SmoothingConfig(tau=tau)
            assert (eval_smooth(f, traj, cfg=cfg).value
                    == eval_smooth(dual, traj, cfg=cfg).value), (to_text(f), tau)


# -- misc -------------------------------------------------------------------------


def test_atoms_of_walks_everything():
    phi = close_to("a", "b", 1.0)
    psi = close_to("a", "c", 2.0)
    f = Until(0, 1, Not(And((phi, psi))), Or((phi, Always(0, 1, psi))))
    assert len(atoms_of(f)) == 4


def test_trajectory_requires_scenes():
    with pytest.raises(FormulaError):
        Trajectory([])


# -- screened smooth windows ----------------------------------------------------------


def _far_from(x, y, eps):
    return Atom(PredicateKind.FAR_FROM, (x, y),
                PredicateParams.for_kind(PredicateKind.FAR_FROM, [eps]))


def _three_squares(steps, tape=None):
    """a at the origin, b and c at the given x per step (c lifted by 0.3),
    turned by a quarter turn per whole unit of that x, so that they stay
    axis-aligned (a along the x axis); with a tape, b's and c's poses are
    tape variables, returned as well."""
    scenes, xs = [], []
    for d_ab, d_ac in steps:
        poses = [(d_ab, 0.0, math.pi / 2 * math.floor(d_ab)),
                 (d_ac, 0.3, math.pi / 2 * math.floor(d_ac))]
        if tape is not None:
            poses = [tuple(map(tape.var, p)) for p in poses]
            xs += [c for p in poses for c in p]
        scenes.append(Scene([
            SceneObject("a", square(0, 0), (1.0, 0.0)),
            SceneObject("b", placed_square(*poses[0])),
            SceneObject("c", placed_square(*poses[1]))]))
    return Trajectory(scenes), xs


def _counting_atoms(monkeypatch):
    calls = []
    real = formulas.atom_robustness

    def counting(*args):
        calls.append(args[4])   # the smooth flag
        return real(*args)

    monkeypatch.setattr(formulas, "atom_robustness", counting)
    return calls


def _value_or_error(ev, f, t):
    try:
        return ev.eval(f, t)
    except FormulaError as exc:   # a window fell off the horizon
        return str(exc)


def _per_step(f, t, horizon):
    """(child, step) of each per-step value under ``f`` anchored at ``t``:
    a temporal root's child (the right operand of ``U``) over its window,
    else ``f`` itself at ``t``."""
    if not isinstance(f, (Always, Eventually, Until)):
        return [(f, t)]
    child = f.right if isinstance(f, Until) else f.child
    return [(child, u) for u in range(t + f.lo, min(t + f.hi, horizon) + 1)]


@pytest.mark.parametrize("tau", [0.05, 0.01])
def test_screened_windows_match_unscreened(tau, monkeypatch):
    """Every anchor of random formulas over random trajectories whose steps
    overlap, touch (distance 0), nearly touch or lie far apart: the screened
    value equals the unscreened one, and so do the tape gradients and,
    computed last, the per-step values under each anchor (``_per_step``)."""
    rng = random.Random(20261102)
    cfg = SmoothingConfig(tau=tau)
    kinds = (PredicateKind.CLOSE_TO, PredicateKind.FAR_FROM, PredicateKind.LEFT_OF,
             PredicateKind.BETWEEN_PX, PredicateKind.ORIENTED)
    calls = _counting_atoms(monkeypatch)
    counts = {"screened": 0, "full": 0}
    compared = 0
    for _ in range(12):
        steps = [tuple(rng.choice([1.0, 0.6, rng.uniform(1.0, 1.05), rng.uniform(1.0, 2.0),
                                   rng.uniform(2.0, 8.0)]) for _ in range(2))
                 for _ in range(6)]
        for _ in range(6):
            f = random_formula(rng, 3, pairs=(("a", "b"), ("a", "c"), ("a", "b", "c")),
                               kinds=kinds)
            tape = ad.Tape()
            traj, xs = _three_squares(steps, tape)
            exact = Evaluator(traj, smooth=False)
            evs = {"screened": Evaluator(traj, True, cfg, exact=exact),
                   "full": Evaluator(traj, True, cfg)}
            for t in range(traj.horizon + 1):
                got = {}
                for name, ev in evs.items():
                    before = len(calls)
                    got[name] = _value_or_error(ev, f, t)
                    counts[name] += calls[before:].count(True)
                mine, full = got["screened"], got["full"]
                if isinstance(full, str):
                    assert mine == full, to_text(f)
                    continue
                assert abs(ad.value_of(mine) - ad.value_of(full)) <= 1e-15 * abs(ad.value_of(full))
                if isinstance(full, ad.Var):
                    g_mine, g_full = ad.backward(mine), ad.backward(full)
                    for x in xs:
                        assert abs(g_mine.wrt(x) - g_full.wrt(x)) <= 1e-12, to_text(f)
                compared += 1
            for t in range(traj.horizon + 1):
                if isinstance(_value_or_error(evs["full"], f, t), str):
                    continue
                for child, u in _per_step(f, t, traj.horizon):
                    mine, full = (ad.value_of(ev.eval(child, u)) for ev in evs.values())
                    assert mine == full, to_text(f)
    assert compared > 150
    assert counts["screened"] < counts["full"]   # some steps were left out


def _directional(kind, x, y, kappa):
    return Atom(kind, (x, y), PredicateParams.for_kind(kind, [kappa]))


def test_screen_skips_the_steps_far_from_the_obstacle(monkeypatch):
    # the obstacle comes near at steps 5 and 11 only; at every other step
    # leftOf's gap sits about 6.5 above them, and rightOf's as far below,
    # far past tau*(CULL_GAP + log 17); directional kinds have proved gaps
    steps = [8.0] * 17
    steps[5], steps[11] = 1.5, 1.6
    traj = Trajectory([pair_scene(d) for d in steps])
    cfg = SmoothingConfig(tau=1e-2)
    exact = Evaluator(traj, smooth=False)
    calls = _counting_atoms(monkeypatch)
    for f in (Always(0, 16, _directional(PredicateKind.LEFT_OF, "a", "b", 0.3)),
              Eventually(0, 16, _directional(PredicateKind.RIGHT_OF, "a", "b", 0.3))):
        exact.result(f)
        full = eval_smooth(f, traj, cfg=cfg).value
        del calls[:]
        screened = Evaluator(traj, True, cfg, exact=exact)
        assert screened.eval(f, 0) == full
        assert calls == [True, True], to_text(f)
        # a skipped step is computed on demand
        unscreened = Evaluator(traj, True, cfg)
        assert ([screened.eval(f.child, u) for u in range(17)]
                == [unscreened.eval(f.child, u) for u in range(17)])


def _needle(cx, tip=10.0):
    """An isosceles triangle along x with a ``tip``-degree apex, every corner
    sharper than the clearance budget covers."""
    half = math.tan(math.radians(tip / 2.0))
    return ConvexPolygon([(cx, -half), (cx + 1.0, 0.0), (cx, half)])


def test_screen_needs_a_proved_gap_and_an_atom_child(monkeypatch):
    steps = [8.0] * 17
    steps[5] = 1.5
    traj = Trajectory([pair_scene(d) for d in steps])
    needles = Trajectory([Scene([SceneObject("a", _needle(0.0)), SceneObject("b", _needle(d))])
                          for d in steps])
    calls = _counting_atoms(monkeypatch)
    touch = Atom(PredicateKind.TOUCH, ("a", "b"),
                 PredicateParams.for_kind(PredicateKind.TOUCH, [0.1]))
    for f, tr in ((Always(0, 16, touch), traj),                           # no proved gap
                  (Eventually(0, 16, _far_from("a", "b", 0.3)), needles),  # sharp corners
                  (Always(0, 16, Not(close_to("a", "b", 0.3))), traj)):   # not an atom
        exact = Evaluator(tr, smooth=False)
        del calls[:]
        eval_smooth(f, tr, cfg=SmoothingConfig(tau=1e-2), exact=exact)
        assert calls.count(True) == 17, to_text(f)
    # on squares, F farFrom has its gap above, and the screen leaves out
    # step 5, where b comes near and the value lies far below the maximum
    exact = Evaluator(traj, smooth=False)
    del calls[:]
    eval_smooth(Eventually(0, 16, _far_from("a", "b", 0.3)), traj,
                cfg=SmoothingConfig(tau=1e-2), exact=exact)
    assert calls.count(True) == 16


def test_screen_keeps_the_overlapping_steps_of_a_far_from_window(monkeypatch):
    # b overlaps a at steps 3 and 9, where farFrom's exact value is -eps
    # and proves no positive distance: the smooth value may fall a whole
    # depth below it, so those steps have no gap below and are kept. Step 5
    # (distance 0.5) is the screen's first step; the far steps are left out
    steps = [8.0] * 17
    steps[3], steps[9], steps[5] = 0.5, 0.6, 1.5
    traj = Trajectory([pair_scene(d) for d in steps])
    cfg = SmoothingConfig(tau=1e-2)
    f = Always(0, 16, _far_from("a", "b", 0.3))
    exact = Evaluator(traj, smooth=False)
    exact.eval(f, 0)
    assert [exact.eval(f.child, u) for u in (3, 9)] == [-0.3, -0.3]
    full = eval_smooth(f, traj, cfg=cfg).value
    calls = _counting_atoms(monkeypatch)
    screened = Evaluator(traj, True, cfg, exact=exact)
    assert screened.eval(f, 0) == full
    assert calls == [True, True, True]
    assert sorted(screened._atom_tables[f.child]) == [3, 5, 9]


def test_exact_partner_must_be_exact_over_as_many_steps():
    traj = traj_with_values([1.0, 3.0, -2.0])
    with pytest.raises(FormulaError, match="exact partner"):
        Evaluator(traj, True, exact=Evaluator(traj, smooth=True))
    with pytest.raises(FormulaError, match="exact partner"):
        Evaluator(traj, True, exact=Evaluator(traj_with_values([1.0]), smooth=False))
    with pytest.raises(FormulaError, match="exact partner"):   # a copy of the scenes
        Evaluator(traj, True, exact=Evaluator(traj_with_values([1.0, 3.0, -2.0]), smooth=False))
    with pytest.raises(FormulaError, match="exact and over this trajectory"):
        eval_exact(close_to("a", "b", 4.0), traj,
                   evaluator=Evaluator(traj_with_values([1.0, 3.0, -2.0]), smooth=False))


# -- carried intervals -------------------------------------------------------------------

CARRIED_KINDS = (PredicateKind.CLOSE_TO, PredicateKind.FAR_FROM, PredicateKind.ENCL_IN,
                 PredicateKind.LEFT_OF, PredicateKind.BETWEEN_PX, PredicateKind.ORIENTED)
THREE = (("a", "b"), ("a", "c"), ("a", "b", "c"))


def _walks(rng, runs, steps=7):
    """``runs`` walks of 5 step lists for ``_three_squares``, each moving
    the one before by nothing, a little or a lot, as an optimizer's
    iterates do; with formulas over them, two with windows as long as the
    trajectory."""
    for _ in range(runs):
        cur = [(rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0)) for _ in range(steps)]
        walk = [cur]
        for _ in range(4):
            size = rng.choice([0.0, 1e-3, 0.02, 0.2, 2.0])
            cur = [(x + rng.uniform(-size, size), y + rng.uniform(-size, size)) for x, y in cur]
            walk.append(cur)
        fs = [random_formula(rng, 3, pairs=THREE, kinds=CARRIED_KINDS) for _ in range(4)]
        fs += [Always(0, steps - 1, random_formula(rng, 0, pairs=THREE, kinds=CARRIED_KINDS)),
               Eventually(0, steps - 1, random_formula(rng, 0, pairs=THREE, kinds=CARRIED_KINDS))]
        yield walk, fs


def _bits(x):
    return x if isinstance(x, str) else ad.value_of(x).hex()


def test_carried_intervals_give_the_same_values_bit_for_bit(monkeypatch):
    """Every anchor of random formulas along walks of trajectories: an
    exact evaluator that carries the last one's values gives the values of
    a fresh one, bit for bit, with fewer atom evaluations."""
    rng = random.Random(20261018)
    calls = _counting_atoms(monkeypatch)
    counts = {"carried": 0, "fresh": 0}
    compared = 0
    for walk, fs in _walks(rng, 12):
        prior = None
        for steps in walk:
            traj = _three_squares(steps)[0]
            evs = {"carried": Evaluator(traj, False, prior=prior), "fresh": Evaluator(traj, False)}
            for f in fs:
                for t in range(traj.horizon + 1):
                    got = {}
                    for name, ev in evs.items():
                        before = len(calls)
                        got[name] = _bits(_value_or_error(ev, f, t))
                        counts[name] += len(calls) - before
                    assert got["carried"] == got["fresh"], to_text(f)
                    compared += not got["fresh"].startswith(("G", "F", "U"))
            prior = evs["carried"]
    assert compared > 1000
    assert counts["carried"] < counts["fresh"]


@pytest.mark.parametrize("tau", [0.05, 0.01])
def test_carried_partner_leaves_the_smooth_pass_unchanged(tau):
    """Run first, as in ``optimize``, an exact partner that carries
    intervals leaves its smooth evaluator the same kept steps and values
    as a fresh partner does."""
    rng = random.Random(20261019)
    cfg = SmoothingConfig(tau=tau)
    for walk, fs in _walks(rng, 6):
        prior = None
        for steps in walk:
            traj = _three_squares(steps)[0]
            exacts = {"carried": Evaluator(traj, False, prior=prior),
                      "fresh": Evaluator(traj, False)}
            for ev in exacts.values():
                for f in fs:
                    _value_or_error(ev, f, 0)
            smooths = {name: Evaluator(traj, True, cfg, exact=ev) for name, ev in exacts.items()}
            for f in fs:
                got = {name: _bits(_value_or_error(ev, f, 0)) for name, ev in smooths.items()}
                assert got["carried"] == got["fresh"], to_text(f)
            kept = [{atom: sorted(table) for atom, table in ev._atom_tables.items()}
                    for ev in smooths.values()]
            assert kept[0] == kept[1]
            prior = exacts["carried"]


def test_prior_must_be_exact_over_as_many_steps():
    traj = traj_with_values([1.0, 3.0, -2.0])
    with pytest.raises(FormulaError, match="the prior must be"):
        Evaluator(traj, False, prior=Evaluator(traj, smooth=True))
    with pytest.raises(FormulaError, match="the prior must be"):
        Evaluator(traj, False, prior=Evaluator(traj_with_values([1.0]), smooth=False))
    with pytest.raises(FormulaError, match="only an exact evaluator"):
        Evaluator(traj, True, prior=Evaluator(traj, smooth=False))


def test_carried_window_evaluates_only_the_steps_that_can_hold_its_extreme(monkeypatch):
    # b stays 6.5 clear of a except at steps 5 and 11, and moves by 0.01 a
    # pass: with the prior, G farFrom and F closeTo each need step 5 alone,
    # since step 11 is 0.1 worse
    steps = [8.0] * 17
    steps[5], steps[11] = 1.5, 1.6
    prior = None
    calls = _counting_atoms(monkeypatch)
    for shift in (0.0, 0.01):
        traj = Trajectory([pair_scene(d + shift) for d in steps])
        ev = Evaluator(traj, smooth=False, prior=prior)
        used = 0
        for f in (Always(0, 16, _far_from("a", "b", 0.3)),
                  Eventually(0, 16, close_to("a", "b", 0.3))):
            want = eval_exact(f, traj).value
            before = len(calls)
            assert ev.eval(f, 0) == want
            used += len(calls) - before
        assert used == (34 if prior is None else 2)
        prior = ev


# -- smoothing budget -------------------------------------------------------------------


def _plain_smoothing_budget(formula, trajectory, tau, t=0):
    """smoothing_budget as first written: its own recursion with no memo,
    its own gaps for directional and sampled atoms (the kinds the tests
    below draw) and one closed form for ``U``."""
    sampled = {PredicateKind.CLOSE_TO, PredicateKind.FAR_FROM, PredicateKind.TOUCH,
               PredicateKind.OVLP, PredicateKind.PART_OVLP, PredicateKind.ENCL_IN}

    def extreme_gap(name):
        shape = trajectory.scene(0).get(name).shape
        return math.log(len(shape.vertices)) if hasattr(shape, "vertices") else 0.0

    def budget(f, u):
        if isinstance(f, Atom):
            if f.kind in sampled:
                return None
            assert f.kind in DIRECTIONAL, f.kind
            return tau * sum(extreme_gap(n) for n in f.objects)
        if isinstance(f, Not):
            return budget(f.child, u)
        if isinstance(f, (And, Or)):
            parts = [budget(c, u) for c in f.children]
            if any(p is None for p in parts):
                return None
            return tau * math.log(len(f.children)) + max(parts)
        if isinstance(f, (Always, Eventually)):
            ts = formulas._window(u, f.lo, f.hi, trajectory.horizon, "G")
            parts = [budget(f.child, v) for v in ts]
            if any(p is None for p in parts):
                return None
            return tau * math.log(len(ts)) + max(parts)
        if isinstance(f, Until):
            ts = formulas._window(u, f.lo, f.hi, trajectory.horizon, "U")
            parts = [budget(f.right, v) for v in ts]
            parts += [budget(f.left, v) for v in range(u, ts.stop)]
            if any(p is None for p in parts):
                return None
            width = ts.stop - u
            return tau * (math.log(len(ts)) + math.log(width + 1)) + max(parts)
        raise FormulaError(f"not a formula: {f!r}")

    return budget(formula, t)


def _budget_or_error(budget, f, traj, t):
    try:
        return budget(f, traj, 0.01, t)
    except FormulaError:   # a window fell off the horizon
        return FormulaError


def test_memoized_budget_matches_the_plain_recursion():
    """The budget composed on ``Evaluator``'s recursion equals the old one
    bit for bit on formulas with no ``U``; on ``U`` it composes one soft-min
    per release step and the soft-max over them, which is never larger than
    the old closed form. Both raise on the same anchors, if not always with
    the same window's message."""
    rng = random.Random(20261103)
    squares = Trajectory([pair_scene(d, d_ac) for d, d_ac in
                          ((1.3, 2.2), (2.0, 1.6), (3.4, 3.0), (1.8, 2.5), (2.7, 1.4), (1.1, 3.3))])
    mixed = Trajectory([Scene([SceneObject("a", _ngon(0.0, 0.0, 3, 0.5)),
                               SceneObject("b", _ngon(d, 0.0, 7, 0.5)),
                               SceneObject("c", AxisAlignedBox3.from_center(
                                   d_ac, 0.0, 0.0, (0.5, 0.5, 0.5)))])
                        for d, d_ac in ((1.3, 2.2), (2.0, 1.6), (3.4, 3.0), (1.8, 2.5))])
    kinds = (PredicateKind.LEFT_OF, PredicateKind.BEHIND, PredicateKind.CLOSE_TO)
    seen = set()
    for traj in (squares, mixed):
        for _ in range(200):
            f = random_formula(rng, 4, pairs=(("a", "b"), ("a", "c")), kinds=kinds)
            until = "U[" in to_text(f)
            for t in range(traj.horizon + 1):
                got = _budget_or_error(_budget, f, traj, t)
                old = _budget_or_error(_plain_smoothing_budget, f, traj, t)
                seen.add(got if got in (None, FormulaError) else type(got))
                if until and isinstance(old, float):
                    assert got <= old * (1.0 + 1e-12), to_text(f)
                else:
                    assert got == old, to_text(f)
    assert seen == {float, None, FormulaError}


def test_until_budget_composes_each_release_step():
    # leftOf(a, a) U[0,1] F[0,3] leftOf(a, b) over steps 0..3, anchored at 0:
    # release at 0 takes a soft-min over 2 terms whose largest bound is
    # F's at 0 (P + tau*log 4), release at 1 one over 3 terms whose largest
    # is F's at 1 (P + tau*log 3); the soft-max over the two adds tau*log 2.
    # The old closed form paired the largest bound with the widest soft-min.
    traj = traj_with_values([1.0] * 4)
    left_of = Atom(PredicateKind.LEFT_OF, ("a", "b"),
                   PredicateParams.for_kind(PredicateKind.LEFT_OF, [0.1]))
    held = Atom(PredicateKind.LEFT_OF, ("a", "a"),
                PredicateParams.for_kind(PredicateKind.LEFT_OF, [0.1]))
    f = Until(0, 1, held, Eventually(0, 3, left_of))
    tau = 0.01
    p = tau * 2.0 * math.log(4.0)
    assert _budget(f, traj, tau) == pytest.approx(p + tau * math.log(18.0))
    assert _plain_smoothing_budget(f, traj, tau) == pytest.approx(p + tau * math.log(24.0))


def test_budget_takes_linear_time_under_nested_windows(monkeypatch):
    # G[0,1] nested 18 deep: the plain recursion opens 2^18 - 1 windows at
    # the root, the memo one per (node, step)
    depth = 18
    traj = traj_with_values([1.0] * (depth + 1))
    f = Atom(PredicateKind.LEFT_OF, ("a", "b"),
             PredicateParams.for_kind(PredicateKind.LEFT_OF, [0.1]))
    for _ in range(depth):
        f = Always(0, 1, f)
    windows = []
    real = formulas._window

    def counting(*args):
        windows.append(args)
        return real(*args)

    monkeypatch.setattr(formulas, "_window", counting)
    budget = _budget(f, traj, 0.01)
    assert len(windows) <= depth * (depth + 1)
    # every level but the innermost sees two steps; the atom adds two soft extremes
    assert budget == pytest.approx(0.01 * (depth * math.log(2.0) + 2.0 * math.log(4.0)))


def test_between_budget_covers_the_mid_to_c_clause():
    # a 4-gon, then two small 40-gons: the second clause, c's soft-min less
    # mid's soft-max, binds and falls tau*(log 40 + log 40) short at most;
    # a bound that counted the 4-gon there instead would read 0.577
    traj = Trajectory([Scene([SceneObject("a", _ngon(0.0, 0.0, 4, 0.05)),
                              SceneObject("mid", _ngon(2.0, 0.0, 40, 0.05)),
                              SceneObject("c", _ngon(3.0, 0.0, 40, 0.05))])])
    f = Atom(PredicateKind.BETWEEN_PX, ("a", "mid", "c"),
             PredicateParams.for_kind(PredicateKind.BETWEEN_PX, [0.1]))
    gap = abs(eval_smooth(f, traj, cfg=SmoothingConfig(tau=0.1)).value - eval_exact(f, traj).value)
    budget = _budget(f, traj, 0.1)
    assert gap == pytest.approx(0.650, abs=1e-3)
    assert budget == pytest.approx(0.1 * (math.log(2.0) + 2.0 * math.log(40.0)))
    assert gap <= budget


@pytest.mark.parametrize("tau", [0.1, 0.02])
def test_smooth_stays_within_the_budget(tau):
    """|smooth - exact| <= smoothing_budget at every anchor of random
    formulas, ``U`` among them, over directional, between, oriented and
    ovlp atoms on polygons of 3 to 40 vertices that move and turn."""
    rng = random.Random(20261104)
    cfg = SmoothingConfig(tau=tau)
    kinds = (PredicateKind.LEFT_OF, PredicateKind.BEHIND, PredicateKind.BETWEEN_PX,
             PredicateKind.ORIENTED, PredicateKind.OVLP)
    groups = (("a", "b"), ("b", "c"), ("a", "b", "c"))
    checked = until = 0
    for _ in range(8):
        scenes = []
        for _ in range(5):
            objs = []
            for name, x in (("a", -1.5), ("b", 0.0), ("c", 1.5)):
                heading = rng.uniform(-math.pi, math.pi)
                shape = _ngon(x + rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                              rng.choice([3, 4, 7, 40]), rng.uniform(0.05, 0.8),
                              rng.uniform(0.0, math.pi))
                objs.append(SceneObject(name, shape, (math.cos(heading), math.sin(heading))))
            scenes.append(Scene(objs))
        traj = Trajectory(scenes)
        exact = Evaluator(traj, smooth=False)
        smooth = Evaluator(traj, True, cfg, exact=exact)
        for _ in range(8):
            f = random_formula(rng, 3, pairs=groups, kinds=kinds)
            for t in range(traj.horizon + 1):
                try:
                    budget = smoothing_budget(f, smooth, t)
                except FormulaError:   # a window fell off the horizon
                    continue
                gap = abs(smooth.eval(f, t) - exact.eval(f, t))
                assert gap <= budget + 1e-12, (to_text(f), t)
                checked += 1
                until += "U[" in to_text(f)
    assert checked > 150 and until > 20


def test_budget_reads_the_gaps_of_the_smooth_pass(monkeypatch):
    # the screened G window computed leftOf's gaps at every step; the budget
    # over the same smooth evaluator reads them and computes none itself
    traj = traj_with_values([1.0, 3.0, -2.0, 0.5])
    f = Always(0, 3, Atom(PredicateKind.LEFT_OF, ("a", "b"),
                          PredicateParams.for_kind(PredicateKind.LEFT_OF, [0.1])))
    exact = Evaluator(traj, smooth=False)
    smooth = Evaluator(traj, True, SmoothingConfig(tau=0.01), exact=exact)
    exact.eval(f, 0)
    smooth.eval(f, 0)
    calls = []
    real = formulas.smooth_gaps

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(formulas, "smooth_gaps", counting)
    assert smoothing_budget(f, smooth) == _budget(f, traj, 0.01)
    assert len(calls) == 4   # all from the budget with no smooth pass behind it
    # the budget bounds a smooth value; an exact evaluator has none
    with pytest.raises(FormulaError, match="smoothing_budget: the evaluator must be smooth"):
        smoothing_budget(f, Evaluator(traj, smooth=False))

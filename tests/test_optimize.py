"""Optimizer loop: loss shape, step rule, convergence on small problems."""
import dataclasses
import importlib
import os
import math
import random

import pytest

import geometry_reference as gref
import tape_reference as ref
from gradcheck import central_difference, max_gradient_error
from polystl import autodiff as ad
from polystl import exactgeo as xg
from polystl.formulas import Evaluator, atoms_of, eval_exact, eval_smooth, parse, to_text
from polystl.geometry import ConvexPolygon, PolygonTemplate, Pose2D, SmoothingConfig
from polystl.optimize import (POLYAK_CAP, Movable, OptimizationError, OptimizerConfig,
                              Problem, build_trajectory, optimize,
                              _poses_from_flat, _smoothness_penalty)
from polystl.predicates import (AxisAlignedBox3, PredicateKind, PredicateParams, Scene,
                                SceneObject, atom_robustness)
from polystl.scenario import load_scenario


def square_template(half):
    return PolygonTemplate([(-half, -half), (half, -half), (half, half), (-half, half)])


def static_square(name, cx, cy, half):
    return SceneObject(name, ConvexPolygon([(cx - half, cy - half), (cx + half, cy - half),
                                            (cx + half, cy + half), (cx - half, cy + half)]))


def line_poses(n, x0=0.0, dx=0.0):
    return [(x0 + dx * t, 0.0, 0.0) for t in range(n)]


def reach_problem(eps=1.0, steps=5):
    """Movable square far from a goal; F(closeTo) starts violated."""
    formula = parse(f"F[0,{steps - 1}] closeTo(ee, goal; {eps})")
    return Problem(
        formula=formula,
        statics=[static_square("goal", 3.0, 0.0, 0.5)],
        movables=[Movable("ee", square_template(0.2),
                          [(0.01 * t, 0.0, 0.0) for t in range(steps)])],
    )


# -- construction and validation ----------------------------------------------


def test_problem_rejects_no_movables():
    with pytest.raises(OptimizationError, match="movable"):
        Problem(parse("closeTo(a, b; 1)"), [static_square("a", 0, 0, 0.5),
                                            static_square("b", 2, 0, 0.5)], [])


def test_problem_rejects_horizon_mismatch():
    with pytest.raises(OptimizationError, match="horizon"):
        Problem(parse("closeTo(a, b; 1)"),
                [static_square("b", 2, 0, 0.5)],
                [Movable("a", square_template(0.2), line_poses(3)),
                 Movable("c", square_template(0.2), line_poses(4))])


def test_problem_rejects_duplicate_names():
    with pytest.raises(OptimizationError, match="duplicate"):
        Problem(parse("closeTo(a, b; 1)"),
                [static_square("a", 0, 0, 0.5), static_square("b", 2, 0, 0.5)],
                [Movable("a", square_template(0.2), line_poses(3))])


def test_problem_rejects_unknown_formula_object():
    with pytest.raises(OptimizationError, match="ghost"):
        Problem(parse("closeTo(ghost, b; 1)"),
                [static_square("b", 2, 0, 0.5)],
                [Movable("a", square_template(0.2), line_poses(3))])


def test_movable_needs_two_poses():
    with pytest.raises(OptimizationError):
        Movable("a", square_template(0.2), [(0.0, 0.0, 0.0)])


def test_config_validation():
    with pytest.raises(OptimizationError):
        OptimizerConfig(iterations=0)
    with pytest.raises(OptimizationError):
        OptimizerConfig(step_size=-1.0)
    for bad in (math.nan, math.inf, 0.0):
        with pytest.raises(OptimizationError,
                           match=f"^step_size must be positive and finite, got {bad}$"):
            OptimizerConfig(step_size=bad)


def test_config_shares_no_field_with_smoothing_config():
    # the smoothing settings have one home: OptimizerConfig holds them
    optimizer = {f.name for f in dataclasses.fields(OptimizerConfig)}
    smoothing = {f.name for f in dataclasses.fields(SmoothingConfig)}
    assert optimizer.isdisjoint(smoothing)
    assert OptimizerConfig().smoothing == SmoothingConfig()


# -- penalties -------------------------------------------------------------------


def test_smoothness_penalty_zero_for_constant_velocity():
    prob = Problem(parse("closeTo(ee, goal; 1)"),
                   [static_square("goal", 5, 0, 0.5)],
                   [Movable("ee", square_template(0.2), line_poses(6, dx=0.3))])
    poses = {"ee": line_poses(6, dx=0.3)}
    assert _smoothness_penalty(prob, poses) == pytest.approx(0.0, abs=1e-15)


def test_smoothness_penalty_sees_a_kink():
    prob = Problem(parse("closeTo(ee, goal; 1)"),
                   [static_square("goal", 5, 0, 0.5)],
                   [Movable("ee", square_template(0.2), line_poses(3))])
    poses = {"ee": [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)]}
    assert _smoothness_penalty(prob, poses) == pytest.approx(4.0)


def test_smoothness_penalty_wraps_heading():
    # steady rotation through the +-pi seam is smooth, not a jump
    prob = Problem(parse("closeTo(ee, goal; 1)"),
                   [static_square("goal", 5, 0, 0.5)],
                   [Movable("ee", square_template(0.2), line_poses(3))])
    thetas = [math.pi - 0.1, math.pi, -math.pi + 0.1]
    poses = {"ee": [(0.0, 0.0, th) for th in thetas]}
    assert _smoothness_penalty(prob, poses) == pytest.approx(0.0, abs=1e-12)
    # same positions with a genuine reversal is penalized
    poses2 = {"ee": [(0.0, 0.0, 0.0), (0.0, 0.0, 0.5), (0.0, 0.0, 0.0)]}
    assert _smoothness_penalty(prob, poses2) == pytest.approx(1.0)


def test_step_zero_is_pinned():
    prob = reach_problem()
    flat = [9.0] * (3 * (len(prob.movables[0].initial_poses) - 1))
    poses = _poses_from_flat(prob, flat)
    assert poses["ee"][0] == prob.movables[0].initial_poses[0]
    assert poses["ee"][1] == (9.0, 9.0, 9.0)


def test_build_trajectory_shapes_and_heading():
    prob = reach_problem(steps=3)
    poses = {"ee": [(0.0, 0.0, 0.0), (1.0, 0.0, math.pi / 2), (2.0, 0.0, 0.0)]}
    traj = build_trajectory(prob, poses)
    assert traj.horizon == 2
    ee = traj.scene(1).get("ee")
    ux, uy = ee.shape.cs   # a placed polygon's heading is its pose's
    assert (ux, uy) == pytest.approx((0.0, 1.0), abs=1e-12)


# -- descent behaviour -----------------------------------------------------------


def test_already_satisfying_returns_immediately():
    prob = Problem(parse("G[0,2] closeTo(ee, goal; 3)"),
                   [static_square("goal", 1.5, 0.0, 0.5)],
                   [Movable("ee", square_template(0.2), line_poses(3))])
    cfg = OptimizerConfig(iterations=50, smoothing=SmoothingConfig(samples_per_edge=8))
    res = optimize(prob, cfg)
    assert res.reached_margin
    assert res.iterations_run == 1
    assert res.success
    assert res.poses["ee"] == line_poses(3)


def test_reach_repair_with_plain_descent():
    prob = reach_problem()
    cfg = OptimizerConfig(iterations=250, smoothing=SmoothingConfig(samples_per_edge=8))
    res = optimize(prob, cfg)
    assert res.success, f"exact robustness stayed at {res.robustness_exact}"
    assert res.robustness_exact > 0.0
    assert res.trace[-1].loss < res.trace[0].loss
    # pinned start
    assert res.poses["ee"][0] == (0.0, 0.0, 0.0)
    # trace rows are well formed
    row = res.trace[0]
    assert row.iteration == 0
    assert all(math.isfinite(r.loss) for r in res.trace)


def test_reach_repair_takes_capped_polyak_steps():
    # each iteration moves the decision vector by step * |g|, with the step
    # loss / |g|^2 clamped to [step_size, POLYAK_CAP * step_size]; at
    # step_size 0.1 the run meets both ends of the clamp
    prob = reach_problem()
    cfg = OptimizerConfig(iterations=250, step_size=0.1,
                          smoothing=SmoothingConfig(samples_per_edge=8))
    res = optimize(prob, cfg, snapshot_iterations=range(250))
    assert res.success and res.iterations_run < 10
    flat = [[c for pose in res.snapshots[it]["ee"][1:] for c in pose]
            for it in range(res.iterations_run)]
    clamps = set()
    for row, a, b in zip(res.trace, flat, flat[1:]):
        step = min(POLYAK_CAP * cfg.step_size,
                   max(cfg.step_size, row.loss / row.gradient_norm ** 2))
        clamps.add(step / cfg.step_size)
        assert math.dist(a, b) == pytest.approx(step * row.gradient_norm, rel=1e-9)
    assert {1.0, POLYAK_CAP} <= clamps


def test_result_reports_best_iterate():
    prob = reach_problem()
    cfg = OptimizerConfig(iterations=120, smoothing=SmoothingConfig(samples_per_edge=8))
    res = optimize(prob, cfg)
    best = max(r.robustness_exact for r in res.trace)
    # returned robustness can exceed the trace maximum only if the final
    # (untraced) step improved it; it must never be worse
    assert res.robustness_exact >= best - 1e-12


def test_reruns_are_deterministic():
    prob = reach_problem()
    cfg = OptimizerConfig(iterations=40, smoothing=SmoothingConfig(samples_per_edge=8))
    a = optimize(prob, cfg)
    b = optimize(reach_problem(), cfg)
    assert [(r.loss, r.robustness_smooth, r.robustness_exact, r.gradient_norm)
            for r in a.trace] == \
           [(r.loss, r.robustness_smooth, r.robustness_exact, r.gradient_norm)
            for r in b.trace]
    assert a.poses == b.poses


def test_zero_gradient_ends_the_run():
    # formula ignores the movable entirely and the poses are already smooth:
    # the gradient is exactly zero, so no later iteration could move them
    prob = Problem(parse("closeTo(g1, g2; 1)"),
                   [static_square("g1", 0, 0, 0.5), static_square("g2", 4, 0, 0.5)],
                   [Movable("ee", square_template(0.2), line_poses(3))])
    res = optimize(prob, OptimizerConfig(iterations=15,
                                         smoothing=SmoothingConfig(samples_per_edge=4)))
    assert res.iterations_run == 1
    assert not res.success  # robustness is fixed and negative
    assert [r.gradient_norm for r in res.trace] == [0.0]


def evaluate_poses(problem, poses, cfg):
    """(smooth, exact) robustness of the formula at the given float poses."""
    traj = build_trajectory(problem, poses)
    smooth = eval_smooth(problem.formula, traj, cfg=cfg.smoothing).value
    exact = eval_exact(problem.formula, traj).value
    return smooth, exact


def test_evaluate_poses_matches_trace_head():
    prob = reach_problem()
    cfg = OptimizerConfig(iterations=1, smoothing=SmoothingConfig(samples_per_edge=8))
    res = optimize(prob, cfg)
    poses = {"ee": [(0.01 * t, 0.0, 0.0) for t in range(5)]}
    smooth, exact = evaluate_poses(prob, poses, cfg)
    assert smooth == pytest.approx(res.trace[0].robustness_smooth, abs=1e-12)
    assert exact == pytest.approx(res.trace[0].robustness_exact, abs=1e-12)


def test_directional_objective_moves_the_box_world():
    # movable must end up left of a static box; uses box statics to keep
    # the exact/smooth gap at just the temporal lse
    formula = parse("F[0,3] leftOf(ee, wall; 0.2)")
    prob = Problem(
        formula,
        statics=[SceneObject("wall", AxisAlignedBox3.from_center(0.0, 0.0, 0.0,
                                                                 (0.5, 0.5, 0.5)))],
        movables=[Movable("ee", square_template(0.2),
                          [(1.0 + 0.01 * t, 0.0, 0.0) for t in range(4)])],
    )
    cfg = OptimizerConfig(iterations=300, smoothing=SmoothingConfig(samples_per_edge=4))
    res = optimize(prob, cfg)
    assert res.success
    xs = [p[0] for p in res.poses["ee"]]
    assert min(xs[1:]) < -0.7  # crossed to the far side with the margin

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scenarios")
SINGLE_OBSTACLE = os.path.join(SCENARIOS, "single_obstacle.json")

EVERY_KIND = ("closeTo(ee, obs; 1.0) & farFrom(ee, obs; 0.3) & touch(ee, obs; 0.1)"
              " & ovlp(ee, obs; 0.05) & partOvlp(ee, obs; 0.05, 0.05) & enclIn(ee, goal; 0.05)"
              " & leftOf(ee, wall; 0.1) & rightOf(ee, obs; 0.1) & behind(ee, goal; 0.1)"
              " & inFrontOf(ee, obs; 0.1) & below(wall, shelf; 0.1) & above(shelf, wall; 0.1)"
              " & betweenPx(obs, ee, goal; 0.1) & betweenPy(obs, ee, goal; 0.1)"
              " & oriented(ee, goal; 0.3) & bearingTo(ee, goal; 0.5, 0.3)")


def test_exact_pass_over_tape_scenes_reads_floats_and_records_no_node():
    # the scenes optimize builds from tape poses: a polygon movable placed
    # at a pose of Vars, float polygon and box statics. Every atom kind
    # gives the bits of a float copy of the scenes, and the tape gains no node
    formula = parse(EVERY_KIND)
    assert {atom.kind for atom in atoms_of(formula)} == set(PredicateKind)
    statics = [SceneObject("goal", static_square("goal", 3.0, 1.0, 0.6).shape, (0.6, 0.8)),
               static_square("obs", 2.0, 0.5, 0.3),
               SceneObject("wall", AxisAlignedBox3.from_center(-2.0, 0.0, 0.0, (0.5, 0.5, 0.5))),
               SceneObject("shelf", AxisAlignedBox3((-3.0, -1.0, 2.0), (-1.0, 1.0, 3.0)))]
    poses = [(0.8 * t, 0.5 + 0.1 * t, 0.4 * t - 1.0) for t in range(6)]
    problem = Problem(formula, statics, [Movable("ee", square_template(0.2), poses)])
    tape = ad.Tape()
    on_tape = build_trajectory(problem, {"ee": [tuple(map(tape.var, p)) for p in poses]})
    nodes = len(tape)
    exacts = [Evaluator(traj, smooth=False)
              for traj in (on_tape, build_trajectory(problem, {"ee": poses}))]
    for atom in atoms_of(formula):
        for t in range(len(poses)):
            got, want = (ev.eval(atom, t) for ev in exacts)
            assert type(got) is float and got.hex() == want.hex(), (to_text(atom), t)
    assert eval_exact(formula, on_tape, evaluator=exacts[0]).value == eval_exact(
        formula, exacts[1].traj).value
    assert len(tape) == nodes


def test_one_trajectory_per_iteration(monkeypatch):
    # the exact and the smooth pass read the same scenes, so single_obstacle's
    # 10 iterations build 10 trajectories, not a float copy besides each
    opt = importlib.import_module("polystl.optimize")   # the package exports optimize()
    built = []
    real = opt.build_trajectory

    def counting(problem, poses):
        built.append(poses)
        return real(problem, poses)

    monkeypatch.setattr(opt, "build_trajectory", counting)
    scn = load_scenario(SINGLE_OBSTACLE)
    res = optimize(scn.problem, scn.optimizer)
    assert res.iterations_run == 10
    assert len(built) == 10


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_non_finite_loss_is_reported_after_the_exact_pass(monkeypatch, bad):
    # each iteration hands its exact evaluator to the smooth pass; a smooth
    # value that is not finite still stops the run with OptimizationError,
    # NaN included: the hinge must not clamp it to 0
    opt = importlib.import_module("polystl.optimize")   # the package exports optimize()
    partners = []
    real = opt.eval_smooth

    def bad_at_third(formula, traj, t=0, cfg=SmoothingConfig(), exact=None):
        partners.append(exact)
        res = real(formula, traj, t, cfg=cfg, exact=exact)
        if len(partners) == 3:
            res.value = bad
            res.node = None
        return res

    monkeypatch.setattr(opt, "eval_smooth", bad_at_third)
    with pytest.raises(OptimizationError, match="non-finite loss at iteration 2"):
        optimize(reach_problem(),
                 OptimizerConfig(iterations=10, smoothing=SmoothingConfig(samples_per_edge=4)))
    assert len(partners) == 3
    assert all(isinstance(e, Evaluator) and not e.smooth for e in partners)


def test_exact_pass_evaluates_only_what_the_carried_intervals_leave_open(monkeypatch):
    # single_obstacle's 10 iterations would evaluate both atoms at all 17
    # steps, 340 exact atom calls; the carried intervals leave 72, and the
    # smooth screen's keys 4 more, under a quarter of that. The smooth pass
    # screens farFrom with its proved gap wherever the carried intervals
    # show the path clear of the obstacle
    from polystl import formulas
    scn = load_scenario(SINGLE_OBSTACLE)
    calls = []
    real = formulas.atom_robustness

    def counting(*args):
        calls.append(args[4])   # the smooth flag
        return real(*args)

    monkeypatch.setattr(formulas, "atom_robustness", counting)
    res = optimize(scn.problem, scn.optimizer)
    assert res.success and res.iterations_run == 10
    every = res.iterations_run * len(atoms_of(scn.formula)) * (scn.horizon + 1)
    assert every == 340
    assert calls.count(False) < every // 4
    assert calls.count(True) == 88


# single_obstacle with the obstacle a 1.8 x 2 box across the straight path:
# the start pose runs through it, so the repair must push ee out of the
# inside of the box
BOX = [(1.6, 1.0), (3.4, 1.0), (3.4, 3.0), (1.6, 3.0)]


@pytest.mark.parametrize("step_size", [0.02, 0.03, 0.05, 0.1, 0.2])
@pytest.mark.parametrize("name", ["single_obstacle", "corridor", "free_space", "box"])
def test_shipped_scenarios_repair_at_every_base_step(name, step_size):
    # a fixed step of step_size runs out of iterations at -0.3 on
    # single_obstacle at 0.02, 0.03 and 0.1 and on corridor at 0.02 and 0.03;
    # the sampled boundary distance ran the box for 500 iterations at -0.3
    base = "single_obstacle" if name == "box" else name
    scn = load_scenario(os.path.join(SCENARIOS, f"{base}.json"))
    if name == "box":
        for s in scn.problem.statics:
            if s.name == "obs":
                s.shape = ConvexPolygon(BOX)
    res = optimize(scn.problem, dataclasses.replace(scn.optimizer, step_size=step_size))
    assert res.success and res.reached_margin, (res.iterations_run, res.robustness_exact)


# -- placement and the smoothness penalty, one node each ------------------------


def _poses(rng, steps, crossing):
    """Float poses; with ``crossing`` the heading turns steadily across +-pi,
    otherwise it is drawn at random, so consecutive steps often straddle it."""
    out = []
    for t in range(steps):
        theta = ad.wrap_angle(math.pi - 0.3 + 0.25 * t) if crossing \
            else rng.uniform(-math.pi, math.pi)
        out.append((rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), theta))
    return out


def _recorded(place, penalty, problem, poses):
    """Every movable placed at every step, then the penalty, in the order
    optimize records them; the step-0 pose stays float. Returns the tape
    size after placement, the bits of every vertex coordinate and of the
    loss, and the adjoint of every pose scalar."""
    tape = ad.Tape()
    taped = {name: [p if t == 0 else tuple(map(tape.var, p)) for t, p in enumerate(ps)]
             for name, ps in poses.items()}
    coords = [c for m in problem.movables for pose in taped[m.name]
              for vertex in place(m.template, Pose2D(*pose)).vertices for c in vertex]
    placed = len(tape)
    loss = 0.01 * penalty(problem, taped)
    grads = ad.backward(loss) if isinstance(loss, ad.Var) else ad.Gradients([])
    leaves = [c for ps in taped.values() for p in ps[1:] for c in p]
    return (placed, [ad.value_of(c).hex() for c in coords], ad.value_of(loss).hex(),
            [grads.wrt(v).hex() for v in leaves])


def _two_movables(steps):
    return Problem(parse("closeTo(ee, goal; 1)"), [static_square("goal", 5, 0, 0.5)],
                   [Movable("ee", square_template(0.2), line_poses(steps)),
                    Movable("arm", PolygonTemplate([(-0.3, -0.1), (0.4, -0.2), (0.1, 0.5)]),
                            line_poses(steps))])


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("crossing", [True, False], ids=["crossing", "random"])
def test_one_node_placement_and_penalty_keep_every_bit(seed, crossing):
    # against the generic arithmetic they replaced: the same vertices and
    # penalty, and the same adjoint for every pose scalar, compared as bits
    rng = random.Random(seed)
    problem = _two_movables(7)
    poses = {m.name: _poses(rng, 7, crossing) for m in problem.movables}
    got = _recorded(PolygonTemplate.at, _smoothness_penalty, problem, poses)
    want = _recorded(gref.place, ref.smoothness_penalty, problem, poses)
    assert got[1:] == want[1:]
    assert got[0] == 2 * 6 * 3   # placement records nothing: the pose leaves alone


def test_penalty_over_horizon_1_is_the_float_zero():
    rng = random.Random(7)
    problem = _two_movables(2)
    poses = {m.name: _poses(rng, 2, True) for m in problem.movables}
    tape = ad.Tape()
    taped = {name: [ps[0], tuple(map(tape.var, ps[1]))] for name, ps in poses.items()}
    for penalty in (_smoothness_penalty, ref.smoothness_penalty):
        value = penalty(problem, taped)
        assert type(value) is float and value == 0.0
    assert len(tape) == 6
    got = _recorded(PolygonTemplate.at, _smoothness_penalty, problem, poses)
    assert got[1:] == _recorded(gref.place, ref.smoothness_penalty, problem, poses)[1:]


def test_placement_records_nothing():
    # scenes built on tape poses: the tape holds the pose leaves alone, and
    # every vertex and heading (a placed polygon's cos and sin) is a float
    problem = _two_movables(5)
    rng = random.Random(3)
    tape = ad.Tape()
    poses = {m.name: [tuple(map(tape.var, p)) for p in _poses(rng, 5, False)]
             for m in problem.movables}
    traj = build_trajectory(problem, poses)
    assert len(tape) == 2 * 5 * 3
    for t in range(traj.horizon + 1):
        objs = traj.scene(t).objects
        for obj in objs.values():
            assert all(type(c) is float for v in obj.shape.vertices for c in v)
        for name in ("ee", "arm"):
            assert all(type(c) is float for c in objs[name].shape.cs)


BOTH_ON_TAPE = [(PredicateKind.FAR_FROM, [0.3]), (PredicateKind.OVLP, [0.05]),
                (PredicateKind.ENCL_IN, [0.05])]


@pytest.mark.parametrize("kind,params", BOTH_ON_TAPE, ids=[k.value for k, _ in BOTH_ON_TAPE])
def test_pose_gradients_with_both_operands_on_the_tape(kind, params):
    # all six pose partials of one kernel whose operands are both movables,
    # against central differences; configurations near a kink are skipped
    movables = _two_movables(2).movables
    pp = PredicateParams.for_kind(kind, params)
    cfg = SmoothingConfig(tau=5e-2)

    def scene(xs):
        return Scene([SceneObject(m.name, m.template.at(Pose2D(*xs[3 * k:3 * k + 3])))
                      for k, m in enumerate(movables)])

    def value(xs):
        return atom_robustness(scene(xs), kind, ("ee", "arm"), pp, True, cfg)

    rng = random.Random(5)
    checked = 0
    while checked < 10:
        xs = [rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6), rng.uniform(-math.pi, math.pi),
              rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6), rng.uniform(-math.pi, math.pi)]
        ee, arm = (o.shape.vertices for o in scene(xs).objects.values())
        near = ([xg.exact_clearance(ee, arm)] if kind is not PredicateKind.ENCL_IN
                else [xg.exact_point_signed_distance(p, arm) for p in ee])
        if min(map(abs, near)) <= 0.05:
            continue
        checked += 1
        tape = ad.Tape()
        leaves = [tape.var(x) for x in xs]
        g = ad.backward(value(leaves))
        analytic = [g.wrt(v) for v in leaves]
        assert max_gradient_error(analytic, central_difference(value, xs, 1e-5)) < 1e-6


def test_first_iteration_tape_stays_small(monkeypatch):
    # 48 pose leaves and 26 formula nodes: placement records nothing, each
    # kernel one node and the penalty one; the generic arithmetic they
    # replaced made this tape 908 nodes long
    sizes = []
    real = ad.backward

    def sizing(output):
        sizes.append(len(output.tape))
        return real(output)

    monkeypatch.setattr(ad, "backward", sizing)
    scn = load_scenario(SINGLE_OBSTACLE)
    optimize(scn.problem, dataclasses.replace(scn.optimizer, iterations=1))
    assert sizes == [74]

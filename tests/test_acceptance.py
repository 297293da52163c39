"""Release acceptance suite: one test per shipped guarantee.

Each check prints a single `[check N] PASS/FAIL` line with its headline
numbers, so

    pytest tests/test_acceptance.py -v -s

doubles as the release checklist. Checks carry wall-clock budgets; a slow
box fails them honestly rather than skipping. The heavy sweeps and
optimizer runs live in session fixtures so the determinism check (8) can
reuse the first run and only pay for the second.
"""
from __future__ import annotations

import math
import random
from pathlib import Path
from time import perf_counter

import pytest

import geometry_reference as ref
from gradcheck import central_difference, max_gradient_error
import polystl.autodiff as ad
import polystl.exactgeo as xg
import polystl.geometry as geo
import polystl.predicates as pr
import polystl.scenario as sio
from polystl.accuracy import (FROZEN_BOUNDS, QUANTITIES, max_errors, run_sweep,
                              sign_disagreements)
from polystl.formulas import Trajectory, eval_exact, eval_smooth, parse
from polystl.mining import make_demo_set, mine, planted_candidates
from polystl.optimize import build_trajectory, optimize
from polystl.predicates import (AxisAlignedBox3, PredicateKind as K,
                                PredicateParams, Scene, SceneObject)
from polystl.randgeom import pair_for_index

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIO_NAMES = ("free_space", "single_obstacle", "corridor")


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[check {num}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"check {num}: {detail}"


# -- session fixtures for the expensive runs -----------------------------------


@pytest.fixture(scope="session")
def sweep_1000():
    t0 = perf_counter()
    rows = run_sweep(1000, taus=(1e-3,), samples_list=(32,), seed=0)
    return rows, perf_counter() - t0


def _run_scenario(name: str, snapshot_every_iteration: bool = False):
    scn = sio.load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    cfg = scn.optimizer
    snapshots = range(cfg.iterations) if snapshot_every_iteration else ()
    return scn, cfg, optimize(scn.problem, cfg, snapshot_iterations=snapshots)


@pytest.fixture(scope="session")
def scenario_runs():
    t0 = perf_counter()
    runs = {name: _run_scenario(name, snapshot_every_iteration=(name == "single_obstacle"))
            for name in SCENARIO_NAMES}
    return runs, perf_counter() - t0


@pytest.fixture(scope="session")
def mined_30():
    t0 = perf_counter()
    demos = make_demo_set(seed=0, n_demos=30)
    return demos, mine(demos), perf_counter() - t0


# -- 1: soft extrema bracket the hard ones -------------------------------------


def test_1_soft_extrema_bracket_hard_extrema():
    t0 = perf_counter()
    rng = random.Random(20260815)
    checks = 0
    violations = 0
    for _ in range(10_000):
        n = rng.randint(1, 64)
        tau = rng.choice((1.0, 0.1, 0.01))
        xs = [rng.uniform(-100.0, 100.0) for _ in range(n)]
        gap = tau * math.log(n)
        hi = ad.lse_max(xs, tau)
        lo = ad.lse_min(xs, tau)
        checks += 1
        if not (max(xs) <= hi <= max(xs) + gap + 1e-12):
            violations += 1
        if not (min(xs) - gap - 1e-12 <= lo <= min(xs)):
            violations += 1
    elapsed = perf_counter() - t0
    ok = violations == 0 and elapsed < 5.0
    _verdict(1, ok, f"{checks} vectors, {violations} bracket violations, {elapsed:.2f}s")


# -- 2: analytic gradients match central differences ---------------------------

MOVER = geo.PolygonTemplate([(-0.3, -0.25), (0.3, -0.25), (0.38, 0.15),
                             (0.05, 0.38), (-0.33, 0.22)])

GRAD_CASES = [
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
    (K.BELOW, dict(kappa=0.2)),
    (K.ABOVE, dict(kappa=0.2)),
    (K.BETWEEN_PX, dict(kappa=0.2)),
    (K.BETWEEN_PY, dict(kappa=0.2)),
    (K.ORIENTED, dict(kappa=0.3)),
    (K.BEARING_TO, dict(theta_ref=0.7, kappa=0.3)),
]

CONFIGS_EACH = 100
GRAD_STEP = 1e-5
GRAD_REL_TOL = 1e-4
# the guarded sqrt rounds the distance cone only below ~1e-6, so a finite
# difference straddling a boundary sample that sits on the partner boundary
# reads a reversed slope; keep every sample well clear of that event
KINK_GAP = 1e-3


def _sample_gap(a: geo.ConvexPolygon, b: geo.ConvexPolygon,
                samples_per_edge: int) -> float:
    """Smallest distance from either polygon's boundary samples to the other
    polygon's boundary."""
    gap = math.inf
    for src, dst in ((a, b), (b, a)):
        edges = ref.polygon_edges(dst)
        for p in ref.sample_boundary(src, samples_per_edge).points:
            for e0, e1 in edges:
                gap = min(gap, ref.point_segment_distance(p, e0, e1))
    return gap


def _pose_scene(kind, pose, static):
    objs = [SceneObject("ee", MOVER.at(pose))]
    for name, shape in static.items():
        heading = (0.0, 1.0) if kind is K.ORIENTED else None
        objs.append(SceneObject(name, shape, heading))
    return Scene(objs)


def _check_pose_kind(kind, params, cfg) -> tuple[int, int]:
    """(configs checked, gradient failures) for one polygon predicate."""
    rng = random.Random(sum(map(ord, kind.value)))
    names = ["ee", "b", "c"][:pr.ARITY[kind]]
    pp = PredicateParams(**params)
    checked = 0
    failures = 0
    attempts = 0
    while checked < CONFIGS_EACH and attempts < 4000:
        attempts += 1
        xs = [rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2),
              rng.uniform(-math.pi, math.pi)]
        b_v, c_v = pair_for_index(9000 + attempts % 7, attempts)
        static = {"b": geo.ConvexPolygon(b_v)}
        if pr.ARITY[kind] == 3:
            static["c"] = geo.ConvexPolygon(c_v)

        # keep clear of kinks: contact boundary, sample-on-boundary events,
        # and the bearing wrap
        ee_poly = MOVER.at(geo.Pose2D(*xs))
        ee_f = ee_poly.float_vertices()
        if abs(xg.exact_clearance(ee_f, b_v)) <= 0.05:
            continue
        if _sample_gap(ee_poly, static["b"], cfg.samples_per_edge) <= KINK_GAP:
            continue
        if "c" in static and _sample_gap(
                ee_poly, static["c"], cfg.samples_per_edge) <= KINK_GAP:
            continue
        if kind is K.BEARING_TO:
            c_ee = xg.centroid(ee_f)
            c_b = xg.centroid(b_v)
            if math.hypot(c_b[0] - c_ee[0], c_b[1] - c_ee[1]) < 0.3:
                continue
            err = ad.wrap_angle(math.atan2(c_b[1] - c_ee[1], c_b[0] - c_ee[0])
                                - params["theta_ref"])
            if abs(abs(err) - math.pi) < 0.1:
                continue
        checked += 1

        def value(vec):
            sc = _pose_scene(kind, geo.Pose2D(*vec), static)
            return ad.value_of(pr.atom_robustness(sc, kind, names, pp, True, cfg))

        tape = ad.Tape()
        pose = geo.Pose2D(tape.var(xs[0]), tape.var(xs[1]), tape.var(xs[2]))
        out = pr.atom_robustness(_pose_scene(kind, pose, static), kind, names,
                                 pp, True, cfg)
        g = ad.backward(out)
        analytic = [g.wrt(pose.x), g.wrt(pose.y), g.wrt(pose.theta)]
        numeric = central_difference(value, xs, GRAD_STEP)
        if max_gradient_error(analytic, numeric) >= GRAD_REL_TOL:
            failures += 1
    return checked, failures


def _check_box_kind(kind, params, cfg) -> tuple[int, int]:
    """Vertical-order predicates act on boxes; vary the moving box center."""
    rng = random.Random(sum(map(ord, kind.value)))
    pp = PredicateParams(**params)
    partner = AxisAlignedBox3((-0.4, -0.4, -0.4), (0.4, 0.4, 0.4))
    checked = 0
    failures = 0
    for _ in range(CONFIGS_EACH):
        xs = [rng.uniform(-1.5, 1.5) for _ in range(3)]
        checked += 1

        def value(vec):
            sc = Scene([SceneObject("ee", AxisAlignedBox3.from_center(*vec, (0.2, 0.2, 0.2))),
                        SceneObject("b", partner)])
            return ad.value_of(pr.atom_robustness(sc, kind, ("ee", "b"), pp, True, cfg))

        tape = ad.Tape()
        center = [tape.var(v) for v in xs]
        sc = Scene([SceneObject("ee", AxisAlignedBox3.from_center(*center, (0.2, 0.2, 0.2))),
                    SceneObject("b", partner)])
        out = pr.atom_robustness(sc, kind, ("ee", "b"), pp, True, cfg)
        g = ad.backward(out)
        analytic = [g.wrt(v) for v in center]
        numeric = central_difference(value, xs, GRAD_STEP)
        if max_gradient_error(analytic, numeric) >= GRAD_REL_TOL:
            failures += 1
    return checked, failures


FIXTURE_FORMULAS = [
    "G[0,2] farFrom(ee, b; 0.3) & F[0,2] closeTo(ee, b; 2.0)",
    "closeTo(ee, b; 2.5) U[0,2] ovlp(ee, b; 0.05)",
    "(leftOf(ee, b; 0.1) | !inFrontOf(ee, b; 0.2)) & G[0,2] enclIn(ee, arena; 0.05)",
]


def _formula_statics():
    b = geo.ConvexPolygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    arena = geo.ConvexPolygon([(-6.0, -6.0), (6.0, -6.0), (6.0, 6.0), (-6.0, 6.0)])
    return b, arena


def _formula_traj(vec):
    b, arena = _formula_statics()
    scenes = []
    for k in range(0, 9, 3):
        pose = geo.Pose2D(*vec[k:k + 3])
        scenes.append(Scene([SceneObject("ee", MOVER.at(pose)),
                             SceneObject("b", b), SceneObject("arena", arena)]))
    return scenes


def _check_formula(text, cfg) -> tuple[int, int]:
    f = parse(text)
    b_f = _formula_statics()[0].float_vertices()
    rng = random.Random(sum(map(ord, text)))
    checked = 0
    failures = 0
    attempts = 0
    while checked < CONFIGS_EACH and attempts < 4000:
        attempts += 1
        vec = []
        for _ in range(3):
            vec += [rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2),
                    rng.uniform(-math.pi, math.pi)]
        # every step must sit off the contact boundary and off
        # sample-on-boundary events
        steps = [MOVER.at(geo.Pose2D(*vec[k:k + 3])) for k in range(0, 9, 3)]
        if any(abs(xg.exact_clearance(s.float_vertices(), b_f)) <= 0.05
               for s in steps):
            continue
        if any(_sample_gap(s, _formula_statics()[0], cfg.samples_per_edge)
               <= KINK_GAP for s in steps):
            continue
        checked += 1

        def value(at):
            return eval_smooth(f, Trajectory(_formula_traj(at)), cfg=cfg).value

        tape = ad.Tape()
        vars_ = [tape.var(v) for v in vec]
        b, arena = _formula_statics()
        scenes = []
        for k in range(0, 9, 3):
            pose = geo.Pose2D(vars_[k], vars_[k + 1], vars_[k + 2])
            scenes.append(Scene([SceneObject("ee", MOVER.at(pose)),
                                 SceneObject("b", b), SceneObject("arena", arena)]))
        res = eval_smooth(f, Trajectory(scenes), cfg=cfg)
        g = ad.backward(res.node)
        analytic = [g.wrt(v) for v in vars_]
        numeric = central_difference(value, vec, GRAD_STEP)
        if max_gradient_error(analytic, numeric) >= GRAD_REL_TOL:
            failures += 1
    return checked, failures


def test_2_gradients_match_central_differences():
    t0 = perf_counter()
    cfg = geo.SmoothingConfig(tau=5e-2, samples_per_edge=4)
    cfg_formula = geo.SmoothingConfig(tau=5e-2, samples_per_edge=2)
    starved = []
    failed = []
    for kind, params in GRAD_CASES:
        if kind in (K.BELOW, K.ABOVE):
            checked, failures = _check_box_kind(kind, params, cfg)
        else:
            checked, failures = _check_pose_kind(kind, params, cfg)
        if checked < CONFIGS_EACH:
            starved.append(f"{kind.value}:{checked}")
        if failures:
            failed.append(f"{kind.value}:{failures}")
    for text in FIXTURE_FORMULAS:
        checked, failures = _check_formula(text, cfg_formula)
        tag = text.split(" ", 1)[0]
        if checked < CONFIGS_EACH:
            starved.append(f"{tag}:{checked}")
        if failures:
            failed.append(f"{tag}:{failures}")
    elapsed = perf_counter() - t0
    ok = not starved and not failed and elapsed < 60.0
    detail = (f"{len(GRAD_CASES)} predicates + {len(FIXTURE_FORMULAS)} formulas x "
              f"{CONFIGS_EACH} configs, failures {failed or 'none'}, "
              f"starved {starved or 'none'}, {elapsed:.1f}s")
    _verdict(2, ok, detail)


# -- 3: smooth tracks exact within the frozen bounds ---------------------------


def test_3_smooth_tracks_exact_within_frozen_bounds(sweep_1000):
    rows, fixture_elapsed = sweep_1000
    t0 = perf_counter()
    errs = max_errors(rows)
    over = {q: errs[(q, 1e-3, 32)] for q in QUANTITIES
            if errs[(q, 1e-3, 32)] > FROZEN_BOUNDS[q]}
    flips = sign_disagreements(rows)
    elapsed = fixture_elapsed + (perf_counter() - t0)
    ok = not over and not flips and elapsed < 120.0
    worst = ", ".join(f"{q}={errs[(q, 1e-3, 32)]:.4f}/{FROZEN_BOUNDS[q]:.4f}"
                      for q in QUANTITIES)
    _verdict(3, ok, f"1000 pairs, {worst}, sign flips {len(flips)}, {elapsed:.1f}s")


# -- 4: conservativeness and per-pair budgets -----------------------------------


def test_4_conservative_and_budgeted_smoothing():
    t0 = perf_counter()
    cfg = geo.SmoothingConfig(tau=1e-2, samples_per_edge=8)
    kappa = PredicateParams(kappa=0.25)
    encl = PredicateParams(delta_inside=0.05)
    rng = random.Random(20260815)
    n_scenes = 1000
    dir_violations = 0
    budget_violations = 0
    oriented_mismatches = 0
    for i in range(n_scenes):
        va, vb = pair_for_index(71, i)
        vc, _ = pair_for_index(72, i)
        pa, pb = geo.ConvexPolygon(va), geo.ConvexPolygon(vb)
        sc = Scene([SceneObject("a", pa), SceneObject("b", pb),
                    SceneObject("c", geo.ConvexPolygon(vc))])

        # (i) one-sided: the smooth side may only under-report
        for kind in (K.LEFT_OF, K.RIGHT_OF, K.BEHIND, K.IN_FRONT_OF):
            smooth = pr.atom_robustness(sc, kind, ("a", "b"), kappa, True, cfg)
            exact = pr.atom_robustness(sc, kind, ("a", "b"), kappa, False)
            if smooth > exact + 1e-12:
                dir_violations += 1
        for kind in (K.BETWEEN_PX, K.BETWEEN_PY):
            smooth = pr.atom_robustness(sc, kind, ("a", "b", "c"), kappa, True, cfg)
            exact = pr.atom_robustness(sc, kind, ("a", "b", "c"), kappa, False)
            if smooth > exact + 1e-12:
                dir_violations += 1
        lo = [rng.uniform(-1.0, 0.0) for _ in range(3)]
        box_a = AxisAlignedBox3(tuple(lo), tuple(v + rng.uniform(0.2, 1.0) for v in lo))
        lo2 = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        box_b = AxisAlignedBox3(tuple(lo2), tuple(v + rng.uniform(0.2, 1.0) for v in lo2))
        sb = Scene([SceneObject("a", box_a), SceneObject("b", box_b)])
        for kind in (K.BELOW, K.ABOVE):
            smooth = pr.atom_robustness(sb, kind, ("a", "b"), kappa, True, cfg)
            exact = pr.atom_robustness(sb, kind, ("a", "b"), kappa, False)
            if smooth > exact + 1e-12:
                dir_violations += 1

        # (ii) the pair kernel and the nested predicate stay inside their
        # own budgets; the clearance budget is proved for blunt corners
        clr, m_in = geo.clearance_parts(pa, pb, cfg)
        c_budget = (geo.clearance_error_budget(pa, pb, cfg)
                    if pa.blunt or pb.blunt else math.inf)
        p_budget = cfg.tau * math.log(len(va) + len(vb))
        d_err = abs(max(0.0, clr) - xg.exact_distance(va, vb))
        c_err = abs(clr - xg.exact_clearance(va, vb))
        p_err = abs(max(0.0, m_in) - xg.exact_penetration(va, vb))
        e_err = abs(pr.atom_robustness(sc, K.ENCL_IN, ("a", "b"), encl, True, cfg)
                    - pr.atom_robustness(sc, K.ENCL_IN, ("a", "b"), encl, False))
        if (d_err > c_budget or c_err > c_budget or p_err > p_budget
                or e_err > geo.enclosure_error_budget(pa, pb, cfg)):
            budget_violations += 1

        # (iii) the orientation comparison has no smoothing to pay for
        ha = rng.uniform(-math.pi, math.pi)
        hb = rng.uniform(-math.pi, math.pi)
        so = Scene([SceneObject("a", pa, (math.cos(ha), math.sin(ha))),
                    SceneObject("b", pb, (math.cos(hb), math.sin(hb)))])
        smooth = pr.atom_robustness(so, K.ORIENTED, ("a", "b"),
                                    PredicateParams(kappa=0.3), True, cfg)
        exact = pr.atom_robustness(so, K.ORIENTED, ("a", "b"),
                                   PredicateParams(kappa=0.3), False)
        if ad.value_of(smooth) != exact:
            oriented_mismatches += 1

    elapsed = perf_counter() - t0
    ok = (dir_violations == 0 and budget_violations == 0
          and oriented_mismatches == 0 and elapsed < 60.0)
    _verdict(4, ok, f"{n_scenes} scenes: one-sided violations {dir_violations}, "
                    f"budget breaches {budget_violations}, "
                    f"oriented mismatches {oriented_mismatches}, {elapsed:.1f}s")


# -- 5: error shrinks with temperature and sampling density ---------------------


def test_5_error_monotone_in_tau_and_samples():
    # Both legs follow the README's practical rule, "drop tau first, then
    # refine S": the tau leg lowers the temperature at S=16, and the S leg
    # refines the sampling at the finest temperature of the tau leg. Any
    # increase of the max error along either leg, for any quantity, fails.
    #
    # No smooth kernel samples the boundary any more, so S changes no value
    # and the S leg sees equal errors, which its strict comparison passes.
    # (When the pair kernels sampled, the S leg was not promised at
    # tau=1e-2: each 4x refinement of a separated pair deepened the soft-min
    # floor by about tau*log(4), more than the sampling gained.)
    t0 = perf_counter()
    taus = (1e-1, 1e-2, 1e-3)
    samples = (4, 16, 64)
    tau_s = taus[-1]
    errs_tau = max_errors(run_sweep(200, taus=taus, samples_list=(16,), seed=0))
    errs_s = max_errors(run_sweep(200, taus=(tau_s,), samples_list=samples, seed=0))
    breaches = []
    for q in QUANTITIES:
        along_tau = [errs_tau[(q, t, 16)] for t in taus]
        along_s = [errs_s[(q, tau_s, s)] for s in samples]
        if any(b > a for a, b in zip(along_tau, along_tau[1:])):
            breaches.append(f"{q}/tau:{['%.2e' % e for e in along_tau]}")
        if any(b > a for a, b in zip(along_s, along_s[1:])):
            breaches.append(f"{q}/S:{['%.2e' % e for e in along_s]}")
    elapsed = perf_counter() - t0
    ok = not breaches
    _verdict(5, ok, f"200-pair suite, monotone along tau {taus} at S=16 and "
                    f"S {samples} at tau={tau_s:g}, "
                    f"breaches {breaches or 'none'}, {elapsed:.1f}s")


# -- 6: the optimizer reaches exact satisfaction --------------------------------


def _window_minima(losses, width=10):
    return [min(losses[k:k + width]) for k in range(0, len(losses), width)]


def test_6_optimizer_reaches_satisfaction(scenario_runs):
    runs, elapsed = scenario_runs
    failures = []
    iters = {}
    for name, (scn, cfg, result) in runs.items():
        iters[name] = result.iterations_run
        if not result.success or result.iterations_run > 500:
            failures.append(f"{name}: not satisfied in {result.iterations_run} iters")
            continue
        minima = _window_minima([r.loss for r in result.trace])
        if any(b > a + 1e-9 for a, b in zip(minima, minima[1:])):
            failures.append(f"{name}: loss window minima increase {minima}")

    # the contact scenario must pass through all three stages, in order:
    # overlapping, separated but short of the margin, at the margin
    scn, cfg, result = runs["single_obstacle"]
    rho = {r.iteration: r.robustness_exact for r in result.trace}
    stages = []
    for it in sorted(result.snapshots):
        traj = build_trajectory(scn.problem, result.snapshots[it])
        clear = min(
            xg.exact_clearance(traj.scene(t).get("ee").shape.float_vertices(),
                               traj.scene(t).get("obs").shape.float_vertices())
            for t in range(traj.horizon + 1))
        stages.append(0 if clear < 0.0 else (1 if rho[it] < cfg.satisfaction_margin else 2))
    if sorted(stages) != stages or set(stages) != {0, 1, 2}:
        failures.append(f"single_obstacle: stage sequence broken ({sorted(set(stages))})")

    ok = not failures and elapsed < 180.0
    detail = ", ".join(f"{n}:{iters[n]} iters" for n in SCENARIO_NAMES)
    _verdict(6, ok, f"{detail}, {failures or 'no failures'}, {elapsed:.1f}s")


# -- 7: mining recovers the planted specification --------------------------------


def test_7_mining_recovers_planted_spec(mined_30):
    demos, result, elapsed = mined_30
    failures = []

    planted = {(c.temporal, c.kind, c.phase.name, c.obstacle)
               for c in planted_candidates()}
    retained = {(r.candidate.temporal, r.candidate.kind, r.candidate.phase.name,
                 r.candidate.obstacle) for r in result.retained}
    if retained != planted:
        failures.append(f"retained {retained ^ planted} differs from planted")
    if any(r.worst <= 0.0 for r in result.retained):
        failures.append("an unsatisfied candidate was retained")

    worst_gap = 0.0
    for r, m in zip(result.retained, result.margins):
        closed = max(0.0, min(
            eval_exact(r.candidate.formula(demos.subject, result.base_kappa), traj).value
            for traj in demos.trajectories))
        if m.margin != closed:
            failures.append(f"{r.candidate.describe()}: margin is not the closed form")
        worst_gap = max(worst_gap, abs(m.margin_estimate - closed))
        if abs(m.margin_estimate - closed) > 0.05:
            failures.append(f"{r.candidate.describe()}: ascent estimate off by "
                            f"{abs(m.margin_estimate - closed):.3f}")
        # soundness: every demo satisfies the widened formula...
        widened = m.candidate.formula(demos.subject, result.base_kappa + m.margin)
        if any(eval_exact(widened, traj).value < -1e-9 for traj in demos.trajectories):
            failures.append(f"{r.candidate.describe()}: widening breaks a demo")
        # ...and tightness: one hair more would break one
        over = m.candidate.formula(demos.subject, result.base_kappa + m.margin + 1e-6)
        if min(eval_exact(over, traj).value for traj in demos.trajectories) >= 0.0:
            failures.append(f"{r.candidate.describe()}: margin is not tight")

    ok = not failures and elapsed < 120.0
    _verdict(7, ok, f"30 demos, {len(result.retained)} retained == planted, "
                    f"worst estimate gap {worst_gap:.4f}, "
                    f"{failures or 'no failures'}, {elapsed:.1f}s")


# -- 8: identical seeds give byte-identical CSVs ---------------------------------


def _write_accuracy(out: Path, rows) -> list[Path]:
    full = out / "accuracy.csv"
    summary = out / "accuracy_summary.csv"
    sio.write_accuracy_csv(str(full), rows)
    sio.write_accuracy_summary_csv(str(summary), sio.accuracy_summary(rows))
    return [full, summary]


def _write_optimize(out: Path, result) -> list[Path]:
    traj = out / "trajectory.csv"
    trace = out / "trace.csv"
    sio.write_trajectory_csv(str(traj), result.poses)
    sio.write_trace_csv(str(trace), result.trace)
    return [traj, trace]


def test_8_reruns_are_byte_identical(sweep_1000, scenario_runs, mined_30,
                                     tmp_path_factory):
    t0 = perf_counter()
    first = tmp_path_factory.mktemp("rerun_a")
    second = tmp_path_factory.mktemp("rerun_b")
    pairs: list[tuple[Path, Path]] = []

    rows, _ = sweep_1000
    rows_again = run_sweep(1000, taus=(1e-3,), samples_list=(32,), seed=0)
    pairs += zip(_write_accuracy(first, rows), _write_accuracy(second, rows_again))

    runs, _ = scenario_runs
    for name in SCENARIO_NAMES:
        _, _, result = runs[name]
        _, _, again = _run_scenario(name)
        a_dir = first / name
        b_dir = second / name
        a_dir.mkdir()
        b_dir.mkdir()
        pairs += zip(_write_optimize(a_dir, result), _write_optimize(b_dir, again))

    demos, result, _ = mined_30
    again = mine(make_demo_set(seed=0, n_demos=30))
    mine_a = first / "mined_spec.csv"
    mine_b = second / "mined_spec.csv"
    sio.write_mining_csv(str(mine_a), result.retained, result.margins)
    sio.write_mining_csv(str(mine_b), again.retained, again.margins)
    pairs.append((mine_a, mine_b))

    differing = [a.name for a, b in pairs if a.read_bytes() != b.read_bytes()]
    elapsed = perf_counter() - t0
    ok = not differing
    _verdict(8, ok, f"{len(pairs)} CSVs re-generated, "
                    f"mismatches {differing or 'none'}, {elapsed:.1f}s")

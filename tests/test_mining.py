"""Specification mining: candidate pool, retention, margin widening."""
import math
import os
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tape_reference import tape_ascent
from polystl import autodiff as ad
from polystl.formulas import Trajectory, eval_exact, satisfies
from polystl.mining import (RETREAT, Candidate, DemonstrationSet,
                            MiningError, Phase, RetainedFormula, discover,
                            enumerate_candidates, learn_margins, make_demo_set, mine,
                            planted_candidates, weighty_residuals, window_extremes)
from polystl.predicates import AxisAlignedBox3, PredicateKind, Scene, SceneObject
from polystl.scenario import read_demo_dir, write_demo_dir


@pytest.fixture(scope="module")
def demos():
    return make_demo_set(seed=42, n_demos=5)


# -- demonstration set shape ------------------------------------------------------


def test_make_demo_set_shape(demos):
    assert demos.subject == "arm"
    assert demos.obstacles == ["o1", "o2", "o3"]
    assert [p.name for p in demos.phases] == ["approach", "retreat"]
    assert len(demos.trajectories) == 5
    assert all(t.horizon == 118 for t in demos.trajectories)


def test_make_demo_set_deterministic():
    a = make_demo_set(seed=7, n_demos=2)
    b = make_demo_set(seed=7, n_demos=2)
    for ta, tb in zip(a.trajectories, b.trajectories):
        for t in range(0, ta.horizon + 1, 17):
            assert ta.scene(t).get("arm").shape.lo == tb.scene(t).get("arm").shape.lo


def test_demo_set_rejects_overlapping_phases():
    base = make_demo_set(seed=1, n_demos=1)
    with pytest.raises(MiningError, match="overlap"):
        DemonstrationSet("arm", base.obstacles,
                         [Phase("a", 0, 60), Phase("b", 60, 118)],
                         base.trajectories)


def test_demo_set_rejects_phase_past_horizon():
    base = make_demo_set(seed=1, n_demos=1)
    with pytest.raises(MiningError, match="horizon"):
        DemonstrationSet("arm", base.obstacles, [Phase("a", 0, 500)],
                         base.trajectories)


def test_demo_set_rejects_mismatched_horizons():
    base = make_demo_set(seed=1, n_demos=2)
    short = Trajectory(base.trajectories[0].scenes[:50])
    with pytest.raises(MiningError, match="horizon"):
        DemonstrationSet("arm", base.obstacles, [Phase("a", 0, 10)],
                         [base.trajectories[1], short])


def test_phase_window_validation():
    with pytest.raises(MiningError):
        Phase("bad", 5, 2)


# -- candidate pool ---------------------------------------------------------------


def test_candidate_pool_size(demos):
    cands = enumerate_candidates(demos)
    # 2 temporal ops x 6 relations x 3 obstacles x 2 phases
    assert len(cands) == 72
    assert len(set(cands)) == 72


def test_candidate_formula_window():
    c = Candidate("G", PredicateKind.ABOVE, RETREAT, "o2")
    f = c.formula("arm", 0.05)
    assert f.lo == 60 and f.hi == 118
    assert f.child.objects == ("arm", "o2")
    assert f.child.params.kappa == 0.05


# -- discovery ----------------------------------------------------------------------


def test_discovery_recovers_planted_specification(demos):
    retained = discover(demos, base_kappa=0.05, keep_per_group=2)
    assert len(retained) == 12
    assert set(r.candidate for r in retained) == set(planted_candidates())
    for r in retained:
        assert r.worst > 0.0


def test_discovery_is_sound(demos):
    # every retained formula holds on every demonstration, per the
    # independent boolean monitor
    retained = discover(demos)
    for r in retained:
        f = r.candidate.formula(demos.subject, 0.05)
        for traj in demos.trajectories:
            assert satisfies(f, traj)


def test_retention_caps_each_group(demos):
    retained = discover(demos, keep_per_group=1)
    assert len(retained) == 6
    groups = {(r.candidate.phase.name, r.candidate.obstacle) for r in retained}
    assert len(groups) == 6
    # keep=1 keeps the single most robust, which the sweep makes the
    # horizontal-clearance formula in every group
    kinds = {r.candidate.kind for r in retained}
    assert kinds == {PredicateKind.RIGHT_OF, PredicateKind.LEFT_OF}


@pytest.mark.parametrize("keep", [0, -1])
def test_retention_rejects_keep_below_one(demos, keep):
    with pytest.raises(MiningError, match="keep_per_group"):
        discover(demos, keep_per_group=keep)


def test_retention_orders_by_worst_case(demos):
    retained = discover(demos)
    by_group = {}
    for r in retained:
        by_group.setdefault((r.candidate.phase.name, r.candidate.obstacle),
                            []).append(r)
    for group in by_group.values():
        assert len(group) == 2
        assert group[0].worst >= group[1].worst


def robustness_matrix(candidates, demos, kappa):
    """Exact robustness from the window extremes, rows per candidate."""
    return [RetainedFormula(c, ext, flo, kappa).per_demo
            for c, ext, flo in zip(candidates, *window_extremes(candidates, demos, kappa))]


def test_shared_evaluators_give_the_per_candidate_matrix():
    demos = make_demo_set(seed=0)
    cands = enumerate_candidates(demos)
    assert len(cands) == 72
    fresh = [[eval_exact(c.formula(demos.subject, 0.05), traj).value
              for traj in demos.trajectories] for c in cands]
    assert robustness_matrix(cands, demos, 0.05) == fresh


_coord = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
_half = st.floats(0.01, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def box_demo_sets(draw):
    """Random box worlds: a subject box moving among 1-2 static boxes, with
    1-3 demonstrations and non-overlapping phases, one-step windows among
    them."""
    horizon = draw(st.integers(1, 8))
    starts = sorted(draw(st.sets(st.integers(0, horizon), min_size=1, max_size=4)))
    ends = [lo - 1 for lo in starts[1:]] + [horizon]
    phases = [Phase(f"p{i}", lo, min(end, lo + draw(st.integers(0, 2))))
              for i, (lo, end) in enumerate(zip(starts, ends))]
    statics = []
    for k in range(draw(st.integers(1, 2))):
        lo = tuple(draw(_coord) for _ in range(3))
        statics.append(SceneObject(f"o{k}", AxisAlignedBox3(
            lo, tuple(c + draw(_half) for c in lo))))
    half = tuple(draw(_half) for _ in range(3))
    trajectories = []
    for _ in range(draw(st.integers(1, 3))):
        scenes = []
        for _ in range(horizon + 1):
            subject = AxisAlignedBox3.from_center(*(draw(_coord) for _ in range(3)), half)
            scenes.append(Scene([SceneObject("s", subject)] + statics))
        trajectories.append(Trajectory(scenes))
    return DemonstrationSet("s", [o.name for o in statics], phases, trajectories)


@settings(max_examples=40, deadline=None)
@given(box_demo_sets(), st.floats(1e-3, 3.0), st.floats(0.0, 3.0))
def test_window_extremes_are_the_exact_evaluator_bit_for_bit(demos, kappa, widen):
    # the demos go through their files, as learn reads them
    with tempfile.TemporaryDirectory() as tmp:
        write_demo_dir(os.path.join(tmp, "demos"), demos)
        demos = read_demo_dir(os.path.join(tmp, "demos"))
    cands = enumerate_candidates(demos)
    for c, ext, flo in zip(cands, *window_extremes(cands, demos, kappa)):
        r = RetainedFormula(c, ext, flo, kappa)
        for k, values in ((kappa, r.per_demo), (kappa + widen, r.robustness(kappa + widen))):
            f = c.formula(demos.subject, k)
            assert values == [eval_exact(f, traj).value for traj in demos.trajectories]


def test_window_extremes_read_each_axis_once_per_step(demos, monkeypatch):
    # 4 objects x 3 axes x 119 steps per demonstration, where every
    # (kind, obstacle) series at every step read both objects' extremes
    # again: 2 phases x 3 obstacles x 6 kinds x ~60 steps x 2 objects
    from polystl import mining, predicates
    reads = []

    def counting(obj, axis, *args):
        reads.append((obj.name, axis))
        return predicates.axis_extremes(obj, axis, *args)

    monkeypatch.setattr(mining, "axis_extremes", counting)
    cands = enumerate_candidates(demos)
    window_extremes(cands, demos, 0.05)
    assert len(reads) == 5 * 4 * 3 * 119
    assert Counter(reads)[("arm", 2)] == 5 * 119


def test_worst_case_filter_drops_negative_candidates(demos):
    cands = enumerate_candidates(demos)
    matrix = robustness_matrix(cands, demos, 0.05)
    retained_keys = {r.candidate for r in discover(demos)}
    for c, row in zip(cands, matrix):
        if min(row) <= 0.0:
            assert c not in retained_keys


def test_behind_and_in_front_never_survive(demos):
    # the arm corridor sits inside every obstacle's y span by construction
    retained = discover(demos)
    for r in retained:
        assert r.candidate.kind not in (PredicateKind.BEHIND,
                                        PredicateKind.IN_FRONT_OF)


# -- margins ------------------------------------------------------------------------


def test_margin_matches_closed_form(demos):
    result = mine(demos)
    assert len(result.margins) == 12
    for r, m in zip(result.retained, result.margins):
        assert m.candidate == r.candidate
        assert m.margin == pytest.approx(max(0.0, r.worst))


def test_margin_estimate_agrees_with_closed_form(demos):
    result = mine(demos)
    for m in result.margins:
        assert m.estimate_agrees, (m.candidate.describe(), m.margin,
                                   m.margin_estimate)
        assert abs(m.margin_estimate - m.margin) <= 0.05


def test_margins_are_sound_and_tight(demos):
    # widened formulas still hold on every demo; widening any further by a
    # hair breaks at least one demo
    result = mine(demos)
    for m in result.margins:
        base = result.base_kappa
        for traj in demos.trajectories:
            widened = m.candidate.formula(demos.subject, base + m.margin)
            assert eval_exact(widened, traj).value >= -1e-9
        over = m.candidate.formula(demos.subject, base + m.margin + 1e-6)
        assert min(eval_exact(over, traj).value
                   for traj in demos.trajectories) < 0.0


def test_robustness_decreases_with_widening(demos):
    # additivity: widening kappa by d shifts robustness down by exactly d
    traj = demos.trajectories[0]
    c = planted_candidates()[0]
    base = eval_exact(c.formula("arm", 0.05), traj).value
    for d in (0.1, 0.5, 2.0):
        shifted = eval_exact(c.formula("arm", 0.05 + d), traj).value
        assert shifted == pytest.approx(base - d, abs=1e-9)


def test_learn_margins_empty_input():
    assert learn_margins([]) == []


@pytest.mark.parametrize("tau", [0.0, -1e-3, float("nan")])
def test_learn_margins_rejects_bad_temperature(demos, tau):
    with pytest.raises(MiningError, match="tau must be positive"):
        learn_margins(discover(demos), tau=tau)


def hand_built(rows):
    """Retained formulas whose robustness per demonstration is ``rows``."""
    cands = enumerate_candidates(make_demo_set(seed=0, n_demos=1))
    return [RetainedFormula(c, list(row), list(row), 0.0) for c, row in zip(cands, rows)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_margin_estimate_is_the_tape_ascent_bit_for_bit(seed):
    retained = discover(make_demo_set(seed=seed))
    estimates = [m.margin_estimate for m in learn_margins(retained)]
    assert estimates == tape_ascent(retained)


@pytest.mark.parametrize("kwargs", [{}, {"tau": 1e-2, "step_size": 2e-2, "iterations": 400,
                                         "penalty_weight": 7.5}])
def test_active_hinge_ascent_is_the_tape_ascent_bit_for_bit(kwargs):
    # margins climb into the hinge and stop near their closed forms;
    # without the hinge every margin would climb past step_size *
    # iterations / 2
    rows = [(0.31, 0.27, 0.9), (1.2, 0.08, 0.5), (0.03, 0.4, 0.4), (0.6, 0.6, 0.6)]
    retained = hand_built(rows)
    margins = learn_margins(retained, **kwargs)
    assert [m.margin_estimate for m in margins] == tape_ascent(retained, **kwargs)
    for m, row in zip(margins, rows):
        assert m.margin == max(0.0, min(row))
        assert m.estimate_agrees


def test_thirty_demo_ascent_is_the_tape_ascent_bit_for_bit():
    # the CLI default; with 30 demonstrations the cut leaves out most terms
    retained = discover(make_demo_set(seed=1, n_demos=30))
    assert [m.margin_estimate for m in learn_margins(retained)] == tape_ascent(retained)


def test_single_demo_ascent_is_the_tape_ascent_bit_for_bit():
    retained = hand_built([(0.45,), (2.0,), (0.05,)])
    margins = learn_margins(retained, iterations=1500)
    assert [m.margin_estimate for m in margins] == tape_ascent(retained, iterations=1500)
    assert all(m.estimate_agrees for m in margins)


def test_learn_margins_skips_the_soft_min_while_the_hinge_is_off(monkeypatch):
    # the estimates stay the tape's bit for bit (the tests above)
    retained = discover(make_demo_set(seed=1))
    calls = []
    lse_parts = ad.lse_parts

    def counted(*args):
        calls.append(1)
        return lse_parts(*args)

    monkeypatch.setattr(ad, "lse_parts", counted)
    learn_margins(retained, iterations=3000)
    assert 0 < len(calls) < 3000


def test_learn_margins_forms_the_soft_min_over_the_terms_that_carry_weight(monkeypatch):
    # learn --synthetic 30 --seed 1; without the cut each of these 1,636
    # soft-mins would stack all 360 residuals, 588,960 terms in all
    retained = discover(make_demo_set(seed=1, n_demos=30))
    terms = []
    lse_parts = ad.lse_parts

    def counted(vals, *args):
        terms.append(len(vals))
        return lse_parts(vals, *args)

    monkeypatch.setattr(ad, "lse_parts", counted)
    learn_margins(retained)
    assert sum(len(r.per_demo) for r in retained) == 360
    assert len(terms) == 1636
    assert sum(terms) == 52077


residual_rows = st.lists(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=12),
                         min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(residual_rows, st.data(), st.sampled_from([1e-3, 1e-2, 1e-1]))
def test_cut_soft_min_is_the_full_soft_min(rows, data, tau):
    eps = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(rows), max_size=len(rows)))
    worst = [min(row) for row in rows]
    stacked = [[d - e for d in row] for row, e in zip(rows, eps)]
    flat = [x for xs in stacked for x in xs]
    lo = min(flat)
    kept = weighty_residuals(rows, worst, eps, lo + ad.cull_width(tau, len(flat)))
    full, ws, s = ad.lse_parts(flat, tau, -1.0)
    cut, _, _ = ad.lse_parts([x for _, xs in kept for x in xs], tau, -1.0)
    assert abs(cut - full) <= tau * math.exp(-ad.CULL_GAP) + 4 * math.ulp(full)

    # each margin keeps a subsequence of its residuals, and every term left
    # out weighs less than e^-CULL_GAP / N of the full sum
    weight = dict(zip(flat, (w / s for w in ws)))
    kept_rows = dict(kept)
    for k, xs in enumerate(stacked):
        ks, ys = kept_rows.get(k, []), iter(xs)
        assert all(any(x == y for y in ys) for x in ks)
        for x in (Counter(xs) - Counter(ks)).elements():
            assert weight[x] < math.exp(-ad.CULL_GAP) / len(flat)


def test_learn_margins_records_no_tape(demos, monkeypatch):
    def no_tape(*args, **kwargs):
        raise AssertionError("learn_margins built a tape")

    retained = discover(demos)
    monkeypatch.setattr(ad, "Tape", no_tape)
    monkeypatch.setattr(ad, "backward", no_tape)
    assert len(learn_margins(retained)) == len(retained)


def test_mining_result_formula_export(demos):
    result = mine(demos)
    fs = [r.candidate.formula("arm", result.base_kappa) for r in result.retained]
    ws = [m.candidate.formula("arm", result.base_kappa + m.margin) for m in result.margins]
    assert len(fs) == len(ws) == 12
    for f, w in zip(fs, ws):
        assert w.child.params.kappa > f.child.params.kappa


def test_recovery_across_seeds():
    planted = set(planted_candidates())
    for seed in (0, 1, 2026):
        demos = make_demo_set(seed=seed, n_demos=3)
        retained = discover(demos)
        assert {r.candidate for r in retained} == planted, f"seed {seed}"

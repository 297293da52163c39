"""Mining directional temporal properties from demonstrations.

The candidate pool is every {always, eventually} x directional-relation x
(subject, obstacle) combination over each declared phase window. A
candidate survives when its worst-case exact robustness across the
demonstration set is strictly positive; per (phase, obstacle) group only
the most robust few are kept, so the mined description stays small.

A directional atom is a threshold-free quantity q_t
(``predicates.directional_gap``) less its threshold kappa, so a candidate's
exact robustness on a demonstration is rho(kappa) = q - kappa, with q the
max (F) or min (G) of q_t over the phase window. Mining reads the
subject's and each obstacle's extremes along an axis once per
demonstration step, forms each (relation, obstacle) series from them,
keeps only its window extremes, and applies any threshold on read:
retention at the base kappa and the widened and over-widened checks of
``learn`` evaluate no formula. The values are bit for bit the exact
evaluator's, since q_t is the same difference of the same extremes, and
subtracting a constant is monotone under rounding.

Margins are then widened per retained formula. Directional robustness is
additive in the clearance threshold, rho(kappa + eps) = rho(kappa) - eps,
so the largest admissible widening has the closed form

    eps_k = min over demonstrations of rho_k(kappa)

A gradient-ascent estimator, whose gradient is also closed form (plain
floats, no tape), is run as well and cross-checked against the closed
form; the closed form is what ends up in the result. Its soft-min over the
stacked residuals takes only the terms within ``ad.cull_width`` of the
smallest: the rest weigh less than e^-CULL_GAP / N each, the argument of
the screened windows.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from . import autodiff as ad
from .formulas import Always, Atom, Eventually, Formula, FormulaError, Trajectory
from .predicates import (DIRECTIONAL, DIRECTIONAL_AXES, AxisAlignedBox3, PredicateKind,
                         PredicateParams, Scene, SceneObject, axis_extremes)

# learn's message for a candidate whose robustness is not finite; candidates
# anchor at 0
_NOT_FINITE = "exact robustness anchored at t=0 is not finite"


class MiningError(ValueError):
    """Ill-formed demonstration set or mining configuration."""


@dataclass(frozen=True)
class Phase:
    name: str
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 0 or self.hi < self.lo:
            raise MiningError(f"phase {self.name!r}: bad window [{self.lo},{self.hi}]")


@dataclass
class DemonstrationSet:
    subject: str
    obstacles: list[str]
    phases: list[Phase]
    trajectories: list[Trajectory]

    def __post_init__(self):
        if not self.trajectories:
            raise MiningError("no demonstrations")
        if not self.obstacles:
            raise MiningError("no obstacles to relate the subject to")
        horizons = {t.horizon for t in self.trajectories}
        if len(horizons) != 1:
            raise MiningError(f"demonstrations disagree on horizon: {sorted(horizons)}")
        horizon = horizons.pop()
        spans = sorted((p.lo, p.hi, p.name) for p in self.phases)
        for (lo, hi, name), (lo2, _, name2) in zip(spans, spans[1:]):
            if lo2 <= hi:
                raise MiningError(f"phases {name!r} and {name2!r} overlap")
        for p in self.phases:
            if p.hi > horizon:
                raise MiningError(f"phase {p.name!r} ends at {p.hi}, past horizon {horizon}")
        names = [self.subject] + self.obstacles
        for traj in self.trajectories:
            scene = traj.scene(0)
            for n in names:
                scene.get(n)


@dataclass(frozen=True)
class Candidate:
    temporal: str  # "G" or "F"
    kind: PredicateKind
    phase: Phase
    obstacle: str

    def formula(self, subject: str, kappa: float) -> Formula:
        atom = Atom(self.kind, (subject, self.obstacle),
                    PredicateParams.for_kind(self.kind, [kappa]))
        cls = Always if self.temporal == "G" else Eventually
        return cls(self.phase.lo, self.phase.hi, atom)

    def describe(self) -> str:
        return (f"{self.temporal}[{self.phase.lo},{self.phase.hi}] "
                f"{self.kind.value}(subject, {self.obstacle})")


def enumerate_candidates(demos: DemonstrationSet) -> list[Candidate]:
    """All temporal-relation-obstacle-phase combinations, in a fixed order
    that doubles as the tie-break for retention."""
    out = []
    for phase in demos.phases:
        for obstacle in demos.obstacles:
            for temporal in ("F", "G"):
                for kind in DIRECTIONAL:
                    out.append(Candidate(temporal, kind, phase, obstacle))
    return out


def window_extremes(candidates: Sequence[Candidate], demos: DemonstrationSet,
                    kappa: float) -> tuple[list[list[float]], list[list[float]]]:
    """(extremes, floors), rows per candidate, columns per demonstration:
    over the candidate's phase window, the max (F) or min (G) of the
    threshold-free quantity q_t = directional_gap(subject, obstacle), and
    the min of q_t.

    Each object's (min, max) extent along an axis is read once per
    demonstration step, on the phase windows that need it. Each (kind,
    obstacle, phase) series is formed once per demonstration from those
    reads and serves both its F and G candidates; demonstrations go one at
    a time, and a series lives only until its extremes are taken. As in
    the exact ``Evaluator``, a series that holds a non-finite value, or
    whose atom at ``kappa`` would, raises FormulaError, and candidates are
    read in the order the exact evaluator would read them.
    """
    extremes: list[list[float]] = [[] for _ in candidates]
    floors: list[list[float]] = [[] for _ in candidates]
    for traj in demos.trajectories:
        seen: dict[tuple, tuple[float, float]] = {}
        reads: dict[tuple, tuple] = {}

        def extents(name: str, axis: int, kind: PredicateKind, phase: Phase) -> tuple:
            """(mins, maxs) of one object along one axis over a phase window."""
            key = (name, axis, phase)
            if key not in reads:
                reads[key] = tuple(zip(*(axis_extremes(scene.get(name), axis, kind, False)
                                         for scene in traj.scenes[phase.lo:phase.hi + 1])))
            return reads[key]

        for c, ext, flo in zip(candidates, extremes, floors):
            key = (c.kind, c.obstacle, c.phase)
            lo_hi = seen.get(key)
            if lo_hi is None:
                # the gap is min(hi_obj extent) - max(lo_obj extent), a flipped
                # relation swapping the subject into hi_obj
                axis, flipped = DIRECTIONAL_AXES[c.kind]
                lo_name, hi_name = ((c.obstacle, demos.subject) if flipped
                                    else (demos.subject, c.obstacle))
                lo_max = extents(lo_name, axis, c.kind, c.phase)[1]
                hi_min = extents(hi_name, axis, c.kind, c.phase)[0]
                qs = [h - l for h, l in zip(hi_min, lo_max)]
                if not (all(map(math.isfinite, qs)) and math.isfinite(min(qs) - kappa)):
                    raise FormulaError(_NOT_FINITE)
                lo_hi = seen[key] = (min(qs), max(qs))
            lo, hi = lo_hi
            ext.append(hi if c.temporal == "F" else lo)
            flo.append(lo)
    return extremes, floors


@dataclass
class RetainedFormula:
    """A candidate with its window extremes on each demonstration (see
    ``window_extremes``); ``discover`` returns the ones it retains."""
    candidate: Candidate
    extremes: list[float]
    floors: list[float]
    base_kappa: float
    per_demo: list[float] = field(init=False)   # exact robustness at the base kappa

    def __post_init__(self):
        self.per_demo = self.robustness(self.base_kappa)

    @property
    def worst(self) -> float:
        return min(self.per_demo)

    def robustness(self, kappa: float) -> list[float]:
        """Exact robustness on each demonstration with threshold ``kappa``,
        bit for bit ``eval_exact(candidate.formula(subject, kappa), traj)``:
        the atom is q_t - kappa at every step, and subtracting a constant
        is monotone under rounding, so the window's extreme of
        fl(q_t - kappa) is fl(extreme - kappa). Its smallest per-step value
        is fl(floor - kappa); when that is not finite, FormulaError."""
        if not all(math.isfinite(f - kappa) for f in self.floors):
            raise FormulaError(_NOT_FINITE)
        return [e - kappa for e in self.extremes]


def check_retention(base_kappa: float, keep_per_group: int) -> None:
    """Raise MiningError unless base_kappa is positive and finite and
    keep_per_group is at least 1."""
    # NaN compares false with everything, so a plain <= 0 test lets it through
    if not (math.isfinite(base_kappa) and base_kappa > 0.0):
        raise MiningError(f"base_kappa must be positive and finite, got {base_kappa}")
    if keep_per_group < 1:
        raise MiningError(f"keep_per_group must be >= 1, got {keep_per_group}")


def discover(demos: DemonstrationSet, base_kappa: float = 0.05,
             keep_per_group: int = 2) -> list[RetainedFormula]:
    """Filter candidates on worst-case exact robustness, then keep the
    most robust keep_per_group per (phase, obstacle); ties fall back to
    enumeration order."""
    check_retention(base_kappa, keep_per_group)
    cands = enumerate_candidates(demos)
    scored = [RetainedFormula(c, ext, flo, base_kappa)
              for c, ext, flo in zip(cands, *window_extremes(cands, demos, base_kappa))]
    retained: list[RetainedFormula] = []
    for phase in demos.phases:
        for obstacle in demos.obstacles:
            positive = [r for r in scored if r.candidate.phase == phase
                        and r.candidate.obstacle == obstacle and r.worst > 0.0]
            positive.sort(key=lambda r: -r.worst)  # stable: order breaks ties
            retained += positive[:keep_per_group]
    return retained


def weighty_residuals(rows: Sequence[Sequence[float]], worst: Sequence[float],
                      eps: Sequence[float], top: float) -> list[tuple[int, list[float]]]:
    """``(k, residuals)`` for each margin k with a residual fl(d - eps[k]),
    d in ``rows[k]``, of at most ``top``: those residuals, in demonstration
    order. ``worst[k]`` is min(rows[k]); since subtracting a constant is
    monotone under rounding, a margin with fl(worst[k] - eps[k]) > top has
    no such residual and is skipped without reading its row."""
    return [(k, [x for d in row if (x := d - e) <= top])
            for k, (row, w, e) in enumerate(zip(rows, worst, eps)) if w - e <= top]


@dataclass
class LearnedMargin:
    candidate: Candidate
    margin: float            # closed form, the value to use
    margin_estimate: float   # gradient-ascent estimate, reported for comparison
    estimate_agrees: bool    # |estimate - closed form| within the check tolerance


def learn_margins(retained: Sequence[RetainedFormula], tau: float = 1e-3,
                  step_size: float = 5e-3, iterations: int = 3000,
                  penalty_weight: float = 50.0, check_tol: float = 0.05,
                  ) -> list[LearnedMargin]:
    """Widen each retained formula's clearance as far as the worst
    demonstration allows.

    The ascent maximizes sum(eps) - penalty * relu(-softmin of residuals)
    over the stacked residuals r[demo, k] - eps[k], projecting eps onto
    eps >= 0 each step. The gradient is closed form, in floats with no
    tape: 1 - penalty * sum_demo w[demo, k] / s, with w / s the softmin
    weights, while the hinge is active, else 1. The step holds at full
    size long enough for every margin to climb to its boundary, then
    decays 10x: near the boundary the iterate hops between the two hinge
    slopes, so the final resolution is penalty_weight times the final
    step. The closed form min_demo r[., k] maximizes the same objective in
    the hard limit and is what the result carries.

    The soft-min is formed only while some residual is within tau*log(N)
    of 0 (else the hinge is provably off), and only over the residuals
    within ``ad.cull_width(tau, N)`` of the smallest (``weighty_residuals``):
    each term left out weighs less than e^-CULL_GAP / N of the sum, so
    ``math.fsum``, which rounds once, gives the full weight sum unless that
    lies within e^-CULL_GAP of a rounding boundary. The estimate is bit for
    bit a tape ascent over all N terms on the synthetic sets the tests
    check.
    """
    if not tau > 0.0:   # NaN fails too
        raise MiningError(f"tau must be positive, got {tau}")
    if not retained:
        return []
    worst = [r.worst for r in retained]
    closed = [max(0.0, w) for w in worst]

    rows = [r.per_demo for r in retained]
    n_terms = sum(map(len, rows))
    # the soft-min lies at most tau*log(N) below the hard one, so while every
    # residual exceeds that (padded for the rounding of log and product) it
    # is positive, the hinge is off and the soft-min need not be formed
    quiet = tau * math.log(n_terms) * (1.0 + 1e-9)
    cut = ad.cull_width(tau, n_terms)
    eps = [0.0] * len(retained)
    decay_from = int(0.7 * iterations)
    for it in range(iterations):
        step = step_size
        if it >= decay_from:
            step /= 1.0 + 9.0 * (it - decay_from) / max(1, iterations - decay_from)
        grads = [1.0] * len(eps)
        # min_d fl(d - e) is fl(min_d d - e): the smallest residual, unstacked
        lo = min(w - e for w, e in zip(worst, eps))
        if not lo > quiet:
            kept = weighty_residuals(rows, worst, eps, lo + cut)
            slack, ws, s = ad.lse_parts([x for _, xs in kept for x in xs], tau, -1.0)
            if -slack > 0.0:
                # the hinge is active; the terms go last demonstration first,
                # the order of a reverse sweep over the stacked residuals, so
                # the estimate is bit for bit the one a tape would give
                i = 0
                for k, xs in kept:
                    for w in reversed(ws[i:i + len(xs)]):
                        grads[k] -= penalty_weight * (w / s)
                    i += len(xs)
        eps = [max(0.0, e + step * g) for e, g in zip(eps, grads)]

    return [LearnedMargin(r.candidate, e_star, e_hat, abs(e_hat - e_star) <= check_tol)
            for r, e_hat, e_star in zip(retained, eps, closed)]


@dataclass
class MiningResult:
    retained: list[RetainedFormula]
    margins: list[LearnedMargin]
    candidates_considered: int
    base_kappa: float


def mine(demos: DemonstrationSet, base_kappa: float = 0.05,
         keep_per_group: int = 2) -> MiningResult:
    retained = discover(demos, base_kappa, keep_per_group)
    margins = learn_margins(retained)
    return MiningResult(retained, margins, len(enumerate_candidates(demos)),
                        base_kappa)


# -- synthetic demonstrations --------------------------------------------------
#
# A two-phase pick-and-retreat sweep around three box obstacles. The sweep
# geometry is chosen so that, for every noise draw within the sampled
# bounds, each (phase, obstacle) group retains exactly eventually(rightOf)
# and eventually(above) during the approach, and eventually(leftOf) and
# eventually(above) during the retreat: every competing positive candidate
# sits at least 0.5 below the weaker of the two planted ones, which is
# more than twice the noise amplitude.

APPROACH = Phase("approach", 0, 59)
RETREAT = Phase("retreat", 60, 118)

_OBSTACLE_BOXES = {
    "o1": ((3.0, 2.5, 3.0), (4.0, 5.5, 5.0)),
    "o2": ((4.5, 3.5, 3.2), (5.5, 6.5, 5.5)),
    "o3": ((5.8, 2.8, 3.0), (6.3, 6.0, 5.2)),
}

_ARM_HALF = (0.1, 0.1, 0.1)
_NOISE = 0.12


def _arm_center(t: int) -> tuple[float, float, float]:
    if t <= APPROACH.hi:
        f = t / APPROACH.hi
        return (5.0 + 4.5 * f, 4.5, 6.5 - 2.9 * f)
    f = (t - RETREAT.lo) / (RETREAT.hi - RETREAT.lo)
    return (5.0 - 4.6 * f, 4.5, 3.6 + 2.9 * f)


def planted_candidates() -> list[Candidate]:
    """The specification the synthetic sweeps are built to exhibit."""
    out = []
    for phase, kind in ((APPROACH, PredicateKind.RIGHT_OF),
                        (RETREAT, PredicateKind.LEFT_OF)):
        for obstacle in _OBSTACLE_BOXES:
            out.append(Candidate("F", kind, phase, obstacle))
            out.append(Candidate("F", PredicateKind.ABOVE, phase, obstacle))
    return out


def make_demo_set(seed: int = 0, n_demos: int = 5) -> DemonstrationSet:
    """Noisy rollouts of the two-phase sweep; deterministic per seed."""
    if n_demos < 1:
        raise MiningError("need at least one demonstration")
    rng = random.Random(seed)
    statics = [SceneObject(name, AxisAlignedBox3(lo, hi))
               for name, (lo, hi) in _OBSTACLE_BOXES.items()]
    trajectories = []
    for _ in range(n_demos):
        scenes = []
        for t in range(RETREAT.hi + 1):
            cx, cy, cz = _arm_center(t)
            cx += rng.uniform(-_NOISE, _NOISE)
            cy += rng.uniform(-_NOISE, _NOISE)
            cz += rng.uniform(-_NOISE, _NOISE)
            arm = AxisAlignedBox3.from_center(cx, cy, cz, _ARM_HALF)
            scenes.append(Scene([SceneObject("arm", arm)] + statics))
        trajectories.append(Trajectory(scenes))
    return DemonstrationSet("arm", list(_OBSTACLE_BOXES), [APPROACH, RETREAT],
                            trajectories)

"""Gradient-based trajectory repair against a temporal formula.

The decision variables are the poses of the movable objects at steps
1..T; the step-0 pose is pinned to the initial state. The loss is a hinge
on smooth robustness plus a second-difference smoothness penalty:

    L = relu(eta - rho_smooth) + lam * sum_t |p[t+1] - 2 p[t] + p[t-1]|^2

with the heading component of the second difference computed on wrapped
angle increments. Each iteration takes a capped Polyak step along the
negative gradient g: the hinge has a known target of 0, so loss / |g|^2 is
a natural step length, clamped to [step_size, POLYAK_CAP * step_size]
(B. T. Polyak, Introduction to Optimization, 1987). A zero gradient ends
the run: the poses cannot move, so exact robustness cannot change.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import autodiff as ad
from .autodiff import Scalar, value_of
from .exactgeo import GeometryError
from .formulas import (Evaluator, Formula, FormulaError, Trajectory, atoms_of, eval_exact,
                       eval_smooth)
from .geometry import Pose2D, PolygonTemplate, SmoothingConfig
from .predicates import Scene, SceneObject


class OptimizationError(ValueError):
    """Non-finite loss or an ill-posed problem; both come from bad input."""


PoseTriple = tuple[float, float, float]

# the longest step, in units of step_size. The shipped scenarios repair at
# every base step from 0.02 to 0.2 with caps 6 to 16; cap 4 fails corridor at 0.02
POLYAK_CAP = 16.0


@dataclass
class Movable:
    """An object whose pose sequence is subject to optimization.

    The object's heading in every scene is its pose heading, so oriented
    constraints see the same angle the smoothness penalty regularizes.
    """
    name: str
    template: PolygonTemplate
    initial_poses: list[PoseTriple]

    def __post_init__(self):
        if len(self.initial_poses) < 2:
            raise OptimizationError(
                f"movable {self.name!r}: need at least 2 poses (got {len(self.initial_poses)})")


@dataclass
class Problem:
    formula: Formula
    statics: list[SceneObject]
    movables: list[Movable]

    def __post_init__(self):
        if not self.movables:
            raise OptimizationError("no movable objects; nothing to optimize")
        horizons = {len(m.initial_poses) for m in self.movables}
        if len(horizons) != 1:
            raise OptimizationError(f"movables disagree on horizon: {sorted(horizons)}")
        names = {s.name for s in self.statics} | {m.name for m in self.movables}
        if len(names) != len(self.statics) + len(self.movables):
            raise OptimizationError("duplicate object name across statics and movables")
        for atom in atoms_of(self.formula):
            for obj in atom.objects:
                if obj not in names:
                    raise OptimizationError(f"formula references unknown object {obj!r}")

    @property
    def horizon(self) -> int:
        return len(self.movables[0].initial_poses) - 1


@dataclass(frozen=True)
class OptimizerConfig:
    """The descent's settings; ``smoothing`` is the smooth semantics the
    loss is built on, checked by ``SmoothingConfig`` itself."""
    step_size: float = 5e-2
    iterations: int = 500
    satisfaction_margin: float = 0.1    # hinge target on smooth robustness
    smoothness_weight: float = 1e-2
    smoothing: SmoothingConfig = SmoothingConfig()

    def __post_init__(self):
        if self.iterations < 1:
            raise OptimizationError("iterations must be >= 1")
        if not (math.isfinite(self.step_size) and self.step_size > 0.0):
            raise OptimizationError(f"step_size must be positive and finite, got {self.step_size}")
        for name in ("smoothness_weight", "satisfaction_margin"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise OptimizationError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    loss: float
    robustness_smooth: float
    robustness_exact: float
    gradient_norm: float


@dataclass
class OptimizationResult:
    """Best iterate found, judged by exact robustness.

    success reflects the exact semantics at the returned poses; the smooth
    surrogate never decides it.
    """
    success: bool
    reached_margin: bool
    robustness_exact: float
    robustness_smooth: float
    iterations_run: int
    poses: dict[str, list[PoseTriple]]
    trace: list[TraceRow]
    snapshots: dict[int, dict[str, list[PoseTriple]]]


def _flatten(movables: Sequence[Movable]) -> list[float]:
    flat: list[float] = []
    for m in movables:
        for pose in m.initial_poses[1:]:
            flat.extend(pose)
    return flat


def _poses_from_flat(problem: Problem, flat: Sequence[Scalar]) -> dict[str, list[tuple]]:
    """Rebuild per-movable pose lists; step 0 keeps its fixed float pose."""
    out: dict[str, list[tuple]] = {}
    i = 0
    for m in problem.movables:
        poses: list[tuple] = [m.initial_poses[0]]
        for _ in range(len(m.initial_poses) - 1):
            poses.append((flat[i], flat[i + 1], flat[i + 2]))
            i += 3
        out[m.name] = poses
    return out


def build_trajectory(problem: Problem, poses: dict[str, list[tuple]]) -> Trajectory:
    """Scenes for steps 0..T with statics shared and movables placed, off the
    tape; a placement that fails the polygon checks raises naming object and step."""
    scenes = []
    for t in range(problem.horizon + 1):
        objs = list(problem.statics)
        for m in problem.movables:
            try:
                polygon = m.template.at(Pose2D(*poses[m.name][t]))
            except GeometryError as exc:
                raise GeometryError(f"object {m.name!r} at t={t}: {exc}") from None
            objs.append(SceneObject(m.name, polygon))
        scenes.append(Scene(objs))
    return Trajectory(scenes)


def _smoothness_penalty(problem: Problem, poses: dict[str, list[tuple]]) -> Scalar:
    """The sum of squared second differences, one node over every pose
    scalar. Its operands run last step first, heading[t] twice, in the order
    a reverse sweep through the sum as generic arithmetic reaches them, so
    each adjoint adds the same products in the same order."""
    total = 0.0
    terms = []
    for m in problem.movables:
        ps = poses[m.name]
        fs = [tuple(value_of(c) for c in p) for p in ps]
        for t in range(1, len(ps) - 1):
            (x0, y0, h0), (x1, y1, h1), (x2, y2, h2) = fs[t - 1], fs[t], fs[t + 1]
            ddx = x2 - 2.0 * x1 + x0
            ddy = y2 - 2.0 * y1 + y0
            # second difference of heading built from wrapped increments so
            # a crossing of +-pi does not register as a jump
            ddt = ad.wrap_angle(h2 - h1) - ad.wrap_angle(h1 - h0)
            total = total + ddx * ddx + ddy * ddy + ddt * ddt
            xs, ys, hs = zip(*ps[t - 1:t + 2])
            terms.append(((*xs, *ys, hs[0], hs[1], hs[1], hs[2]),
                          (2.0 * ddx, -4.0 * ddx, 2.0 * ddx, 2.0 * ddy, -4.0 * ddy, 2.0 * ddy,
                           2.0 * ddt, -2.0 * ddt, -2.0 * ddt, 2.0 * ddt)))
    if not terms:
        return 0.0
    terms.reverse()
    return ad.lift(total, [x for ops, _ in terms for x in ops],
                   [g for _, gs in terms for g in gs], "smoothness")


def optimize(problem: Problem, cfg: OptimizerConfig = OptimizerConfig(), *,
             snapshot_iterations: Iterable[int] = ()) -> OptimizationResult:
    """Run the descent loop; returns the best iterate by exact robustness.

    Stops early once exact robustness reaches the hinge margin or the
    gradient is zero. The poses at each of snapshot_iterations that the
    run reaches are kept for rendering.
    """
    flat = _flatten(problem.movables)
    trace: list[TraceRow] = []
    snap_at = set(snapshot_iterations)
    snapshots: dict[int, dict[str, list[PoseTriple]]] = {}

    def float_pose_dict(vec):
        return {name: [tuple(float(c) for c in p) for p in ps]
                for name, ps in _poses_from_flat(problem, vec).items()}

    best_exact = -math.inf
    best_flat = list(flat)
    best_smooth = -math.inf
    reached_margin = False

    iterations_run = 0
    exact = None
    for it in range(cfg.iterations):
        iterations_run = it + 1
        if it in snap_at:
            snapshots[it] = float_pose_dict(flat)

        tape = ad.Tape()
        vars_ = [tape.var(v) for v in flat]
        poses = _poses_from_flat(problem, vars_)
        traj = build_trajectory(problem, poses)
        # the exact pass runs first, on the floats behind these scenes: its
        # memoized atom values bound the smooth ones, so the smooth pass skips
        # window steps that carry no weight; it starts from the last pass's
        # values, widened by how far the objects moved, and evaluates only
        # the window steps they cannot decide
        exact = Evaluator(traj, smooth=False, prior=exact)
        exact_error = None
        try:
            rho_exact = eval_exact(problem.formula, traj, evaluator=exact).value
        except FormulaError as exc:   # not finite: a non-finite loss is reported first
            exact_error = exc

        # a failed exact pass leaves its table partial, and bounds nothing
        res = eval_smooth(problem.formula, traj, cfg=cfg.smoothing,
                          exact=exact if exact_error is None else None)
        rho_node: Scalar = res.node if res.node is not None else res.value
        hinge = ad.relu(cfg.satisfaction_margin - rho_node)
        loss = hinge + cfg.smoothness_weight * _smoothness_penalty(problem, poses)

        loss_val = value_of(loss)
        if not math.isfinite(loss_val):
            raise OptimizationError(f"non-finite loss at iteration {it}")
        if exact_error is not None:
            raise exact_error

        if isinstance(loss, ad.Var):
            grads = ad.backward(loss)
            grad = [grads.wrt(v) for v in vars_]
        else:
            grad = [0.0] * len(flat)
        gsq = math.fsum(g * g for g in grad)
        gnorm = math.sqrt(gsq)

        trace.append(TraceRow(it, loss_val, res.value, rho_exact, gnorm))

        if rho_exact > best_exact:
            best_exact = rho_exact
            best_smooth = res.value
            best_flat = list(flat)

        if rho_exact >= cfg.satisfaction_margin:
            reached_margin = True
            break

        if gsq == 0.0:
            break
        step = min(POLYAK_CAP * cfg.step_size, max(cfg.step_size, loss_val / gsq))
        flat = [v - step * g for v, g in zip(flat, grad)]

    return OptimizationResult(
        success=best_exact > 0.0,
        reached_margin=reached_margin,
        robustness_exact=best_exact,
        robustness_smooth=best_smooth,
        iterations_run=iterations_run,
        poses=float_pose_dict(best_flat),
        trace=trace,
        snapshots=snapshots,
    )

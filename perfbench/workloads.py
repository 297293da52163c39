"""The four benchmark workloads.

Each workload turns the seed into CLI argument lists, runs them as one
closed-loop client (a command starts when the previous one returned) and
checks every output. Every check counts one operation; a failed check is
a failed operation.

- repair: ``optimize`` on the three shipped scenarios with their default
  flags; the seed only orders them. The tape forward pass, the reverse
  sweep, tape-mode geometry and the collector do almost all of the work.
- sweep: ``accuracy`` over tau {1e-2, 1e-3} x samples {16, 32} on seeded
  random pairs. The same smooth kernels in float mode, no reverse sweep,
  plus exact geometry, random polygons and the thread pool.
- mine: ``learn --synthetic 30``. Exact evaluation of every candidate on
  box predicates, then thousands of tiny tapes in ``learn_margins``, plus
  the demo-directory write and read.
- certify: many short ``eval --breakdown`` calls on seeded trajectory CSVs.
  The only workload where exact geometry and exact formulas dominate, and
  where per-command fixed costs (argparse, scenario load, CSV parse) show.
"""
from __future__ import annotations

import csv
import hashlib
import math
import os
import random
import sys

SCENARIOS = ("single_obstacle", "corridor", "free_space")


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _polystl(name: str):
    """The currently imported polystl module (set-up re-imports them)."""
    return sys.modules[f"polystl.{name}"]


def _stdout_value(out: str, prefix: str) -> str | None:
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].split()[0]
    return None


class Result:
    """What one pass's outputs showed: the checks, the deterministic block
    and the workload's own quality metrics."""

    def __init__(self) -> None:
        self.checks: list[tuple[str, bool]] = []
        self.deterministic: dict = {}
        self.quality: dict[str, tuple[float, str]] = {}

    def check(self, label: str, ok: bool) -> None:
        self.checks.append((label, bool(ok)))


class Workload:
    name = ""

    def __init__(self, root: str, out: str, seed: int, tiny: bool) -> None:
        self.root = root
        self.out = out
        self.seed = seed
        self.tiny = tiny

    def scenario_path(self, name: str) -> str:
        return os.path.join(self.root, "scenarios", f"{name}.json")

    def prepare(self) -> None:
        """Input generation; timed as set-up and repeated."""

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, runs: list) -> Result:
        """runs: (argv, exit code or None, stdout) per command."""
        raise NotImplementedError


class Repair(Workload):
    name = "repair"

    def prepare(self) -> None:
        names = ["free_space"] if self.tiny else list(SCENARIOS)
        random.Random(self.seed).shuffle(names)
        self.order = names
        sio = _polystl("scenario")
        self.scenarios = {n: sio.load_scenario(self.scenario_path(n)) for n in names}

    def commands(self) -> list[list[str]]:
        return [["optimize", self.scenario_path(n), "--out-dir", os.path.join(self.out, n)]
                for n in self.order]

    def check(self, runs: list) -> Result:
        sio, opt, fm = _polystl("scenario"), _polystl("optimize"), _polystl("formulas")
        res = Result()
        rho_min = math.inf
        total_iterations = 0
        for name, (argv, rc, out) in zip(self.order, runs):
            res.check(f"{name}: exit 0", rc == 0)
            scn = self.scenarios[name]
            traj_csv = os.path.join(self.out, name, "trajectory.csv")
            trace_csv = os.path.join(self.out, name, "trace.csv")
            try:
                poses = sio.read_trajectory_csv(
                    traj_csv, [m.name for m in scn.problem.movables], scn.horizon)
                traj = opt.build_trajectory(scn.problem, poses)
                rho = fm.eval_exact(scn.formula, traj).value
                monitor = fm.satisfies(scn.formula, traj)
            except (OSError, ValueError) as exc:
                print(f"{name}: cannot check outputs: {exc}", file=sys.stderr)
                rho, monitor = -math.inf, None
            res.check(f"{name}: exact robustness of trajectory.csv > 0", rho > 0.0)
            res.check(f"{name}: satisfies() agrees", monitor is (rho > 0.0))
            rho_min = min(rho_min, rho)
            iterations = int(_stdout_value(out, "iterations run:") or 0)
            total_iterations += iterations
            res.deterministic[f"{name}.iterations"] = iterations
            for path in (traj_csv, trace_csv):
                if os.path.exists(path):
                    res.deterministic[f"{name}.{os.path.basename(path)}.sha256"] = \
                        sha256_file(path)
        res.deterministic["opt_iterations"] = total_iterations
        res.quality["opt_iterations"] = (total_iterations, "count")
        res.quality["rho_exact_min"] = (rho_min, "robustness")
        return res


SWEEP_TAUS = "1e-2,1e-3"
SWEEP_SAMPLES = "16,32"


class Sweep(Workload):
    name = "sweep"

    def prepare(self) -> None:
        self.pairs = 4 if self.tiny else 100

    def commands(self) -> list[list[str]]:
        return [["accuracy", "--pairs", str(self.pairs), "--tau", SWEEP_TAUS,
                 "--samples", SWEEP_SAMPLES, "--seed", str(self.seed),
                 "--out-dir", self.out]]

    def check(self, runs: list) -> Result:
        acc = _polystl("accuracy")
        res = Result()
        (_, rc, _), = runs
        res.check("accuracy: exit 0", rc == 0)
        rows_path = os.path.join(self.out, "accuracy.csv")
        summary_path = os.path.join(self.out, "accuracy_summary.csv")
        rows = []
        if os.path.exists(rows_path):
            with open(rows_path, newline="") as fh:
                for r in csv.DictReader(fh):
                    rows.append((int(r["pair"]), float(r["tau"]), int(r["samples"]),
                                 r["quantity"], float(r["exact"]), float(r["smooth"])))
        errs = acc.max_errors(rows)
        worst = 0.0
        for q in acc.QUANTITIES:
            err = errs.get((q, 1e-3, 32), math.inf)
            res.check(f"{q}: max error at (1e-3, 32) within FROZEN_BOUNDS",
                      err <= acc.FROZEN_BOUNDS[q])
            worst = max(worst, err / acc.FROZEN_BOUNDS[q])
        res.check("no sign disagreements", rows and not acc.sign_disagreements(rows))
        for path in (rows_path, summary_path):
            if os.path.exists(path):
                res.deterministic[f"{os.path.basename(path)}.sha256"] = sha256_file(path)
        res.quality["accuracy_err_ratio"] = (worst, "ratio")
        return res


class Mine(Workload):
    name = "mine"

    def prepare(self) -> None:
        self.demos = 3 if self.tiny else 30

    def commands(self) -> list[list[str]]:
        return [["learn", "--synthetic", str(self.demos), "--seed", str(self.seed),
                 "--out-dir", self.out]]

    def check(self, runs: list) -> Result:
        mining = _polystl("mining")
        res = Result()
        (_, rc, out), = runs
        res.check("learn: exit 0 (sound and tight)", rc == 0)
        spec = os.path.join(self.out, "mined_spec.csv")
        rows = []
        if os.path.exists(spec):
            with open(spec, newline="") as fh:
                rows = list(csv.DictReader(fh))
        kept = {(r["phase"], r["obstacle"], r["temporal"], r["relation"]) for r in rows}
        for c in mining.planted_candidates():
            res.check(f"planted {c.describe()} retained",
                      (c.phase.name, c.obstacle, c.temporal, c.kind.value) in kept)
        gaps = [abs(float(r["margin_estimate"]) - float(r["margin"])) for r in rows]
        res.quality["margin_gap_max"] = (max(gaps, default=math.inf), "robustness")
        res.deterministic["candidates"] = int(
            _stdout_value(out, "candidates considered:") or 0)
        demo_dir = os.path.join(self.out, "demos")
        demos = sorted(os.listdir(demo_dir)) if os.path.isdir(demo_dir) else []
        paths = [spec] + [os.path.join(demo_dir, f) for f in demos if f.endswith(".csv")]
        for path in paths:
            if os.path.exists(path):
                res.deterministic[f"{os.path.relpath(path, self.out)}.sha256"] = \
                    sha256_file(path)
        return res


class Certify(Workload):
    name = "certify"

    def prepare(self) -> None:
        """Seeded trajectory CSVs for all three scenarios: a lateral detour
        between the start pose and an end pose inside or outside the goal,
        so the batch mixes satisfied and violated verdicts."""
        sio = _polystl("scenario")
        rng = random.Random(self.seed)
        per_scenario = 2 if self.tiny else 30
        os.makedirs(os.path.join(self.out, "inputs"), exist_ok=True)
        self.cases = []
        for name in SCENARIOS:
            scn = sio.load_scenario(self.scenario_path(name))
            movable = scn.problem.movables[0]
            goal = next(s for s in scn.problem.statics if s.name in scn.goal_names)
            verts = goal.shape.float_vertices()
            gx = sum(v[0] for v in verts) / len(verts)
            gy = sum(v[1] for v in verts) / len(verts)
            sx, sy, sth = movable.initial_poses[0]
            for k in range(per_scenario):
                # stratified: every seed gets the same mix of end poses and
                # detour sizes, only jittered, so seeds cost the same
                if k % 2 == 0:
                    ex, ey = gx + rng.uniform(-0.15, 0.15), gy + rng.uniform(-0.15, 0.15)
                else:
                    phi, r = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.6, 1.5)
                    ex, ey = gx + r * math.cos(phi), gy + r * math.sin(phi)
                amplitude = -1.5 + 3.0 * (k + rng.random()) / per_scenario
                turn = rng.uniform(-0.15, 0.15)
                length = math.hypot(ex - sx, ey - sy)
                nx, ny = -(ey - sy) / length, (ex - sx) / length
                path = os.path.join(self.out, "inputs", f"{name}_{k:03d}.csv")
                with open(path, "w", newline="") as fh:
                    w = csv.writer(fh)
                    w.writerow(["t", "object", "x", "y", "theta"])
                    for t in range(scn.horizon + 1):
                        s = t / scn.horizon
                        bump = amplitude * math.sin(math.pi * s)
                        w.writerow([t, movable.name,
                                    repr(sx + s * (ex - sx) + bump * nx),
                                    repr(sy + s * (ey - sy) + bump * ny),
                                    repr(sth + s * turn)])
                self.cases.append((name, path))
        self.verdicts = None

    def commands(self) -> list[list[str]]:
        return [["eval", self.scenario_path(name), "--trajectory", path, "--breakdown"]
                for name, path in self.cases]

    def _monitor_verdicts(self) -> list:
        """The independent boolean monitor's verdict on each input."""
        sio, opt, fm = _polystl("scenario"), _polystl("optimize"), _polystl("formulas")
        scenarios = {n: sio.load_scenario(self.scenario_path(n)) for n in SCENARIOS}
        verdicts = []
        for name, path in self.cases:
            scn = scenarios[name]
            poses = sio.read_trajectory_csv(
                path, [m.name for m in scn.problem.movables], scn.horizon)
            verdicts.append(fm.satisfies(scn.formula, opt.build_trajectory(scn.problem, poses)))
        return verdicts

    def check(self, runs: list) -> Result:
        if self.verdicts is None:
            self.verdicts = self._monitor_verdicts()
        res = Result()
        digest = hashlib.sha256()
        for (argv, rc, out), satisfied in zip(runs, self.verdicts):
            case = os.path.basename(argv[3])
            res.check(f"{case}: exit code matches satisfies()",
                      rc == (0 if satisfied else 1))
            try:
                exact = float(_stdout_value(out, "robustness (exact):"))
            except (TypeError, ValueError):
                exact = math.nan
            res.check(f"{case}: exact robustness printed and finite", math.isfinite(exact))
            digest.update(f"{case} {rc}\n{out}".encode())
        res.deterministic["eval_stdout.sha256"] = digest.hexdigest()
        res.deterministic["satisfied"] = sum(self.verdicts)
        res.quality["satisfied_share"] = (sum(self.verdicts) / len(self.verdicts), "ratio")
        return res


WORKLOADS = {w.name: w for w in (Repair, Sweep, Mine, Certify)}

"""Command-line front end.

Four subcommands: eval, optimize, learn, accuracy. Exit codes everywhere
reflect the exact semantics, never the smooth surrogate: a smooth value
can only ever be evidence, the exact one is the certificate.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from datetime import datetime, timezone

from . import __version__
from . import scenario as sio
from .accuracy import run_sweep
from .formulas import Evaluator, FormulaError, satisfies, smoothing_budget
from .geometry import (DEFAULT_SAMPLES_PER_EDGE, DEFAULT_TAU, SmoothingConfig)
from .mining import check_retention, make_demo_set, mine
from .optimize import build_trajectory, optimize
from .render import write_frames


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _ensure_out(args) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


# -- eval -----------------------------------------------------------------------


def cmd_eval(args) -> int:
    scn = sio.load_scenario(args.scenario)
    poses = {m.name: list(m.initial_poses) for m in scn.problem.movables}
    if args.trajectory:
        poses = sio.read_trajectory_csv(args.trajectory,
                                        [m.name for m in scn.problem.movables],
                                        scn.horizon)
    traj = build_trajectory(scn.problem, poses)

    cfg = SmoothingConfig(tau=args.tau, samples_per_edge=args.samples)
    # one evaluator per mode: the breakdown re-anchors the formula on the
    # memoized step values of the t=0 evaluation, so it adds no atom calls;
    # the exact values also let smooth windows skip steps with no weight
    exact_ev = Evaluator(traj, smooth=False)
    evaluators = {"exact": exact_ev,
                  "smooth": Evaluator(traj, smooth=True, cfg=cfg, exact=exact_ev)}
    exact = evaluators["exact"].result(scn.formula)
    smooth = evaluators["smooth"].result(scn.formula)

    print(f"scenario: {scn.name}")
    print(f"formula:  {scn.formula_text}")
    print(f"robustness (exact):  {sio.fmt(exact.value)}")
    print(f"robustness (smooth): {sio.fmt(smooth.value)}"
          f"  [tau={args.tau:g}, S={args.samples}]")
    budget = smoothing_budget(scn.formula, traj, args.tau, smooth=evaluators["smooth"])
    if budget is not None:
        gap = abs(smooth.value - exact.value)
        print(f"smoothing budget (tau={args.tau:g}): {sio.fmt(budget)}"
              f"  observed gap: {sio.fmt(gap)}")
    if args.breakdown:
        print("per-step breakdown (formula re-anchored at each step):")
        for t in range(traj.horizon + 1):
            try:
                v = evaluators[args.mode].result(scn.formula, t).value
            except FormulaError:
                break   # a window emptied out; later anchors only get worse
            print(f"  t={t:4d}  {sio.fmt(v)}")
    verdict = "SATISFIED" if exact.satisfied else "VIOLATED"
    print(f"exact verdict: {verdict}")
    return 0 if exact.satisfied else 1


# -- optimize --------------------------------------------------------------------


def _checkpoints(iterations: int, svg_every: int) -> tuple[int, ...]:
    if svg_every > 0:
        return tuple(range(0, iterations, svg_every))
    return tuple(sorted({0, iterations // 4, iterations // 2}))


def cmd_optimize(args) -> int:
    if args.svg_every < 0:
        return _fail(f"--svg-every must be >= 0, got {args.svg_every}")
    scn = sio.load_scenario(args.scenario)
    overrides = {}
    if args.iterations is not None:
        overrides["iterations"] = args.iterations
    if args.tau is not None:
        overrides["tau"] = args.tau
    if args.samples is not None:
        overrides["samples_per_edge"] = args.samples
    cfg = dataclasses.replace(scn.optimizer, **overrides)

    result = optimize(scn.problem, cfg,
                      snapshot_iterations=_checkpoints(cfg.iterations, args.svg_every))

    out = _ensure_out(args)
    traj_path = os.path.join(out, "trajectory.csv")
    trace_path = os.path.join(out, "trace.csv")
    sio.write_trajectory_csv(traj_path, result.poses)
    sio.write_trace_csv(trace_path, result.trace)
    snapshots = [(f"{it:06d}", poses)
                 for it, poses in sorted(result.snapshots.items())]
    snapshots.append(("final", result.poses))
    frames = write_frames(out, scn.problem, snapshots, scn.goal_names)
    outputs = [traj_path, trace_path] + frames
    sio.write_manifest(os.path.join(out, "manifest.json"), "optimize", None,
                       {k: v for k, v in cfg.__dict__.items()},
                       [args.scenario], outputs, _utc_now())

    print(f"scenario: {scn.name}")
    print(f"iterations run: {result.iterations_run}")
    print(f"exact robustness (best): {sio.fmt(result.robustness_exact)}")
    print(f"smooth robustness (best): {sio.fmt(result.robustness_smooth)}")
    print(f"outputs in {out}")
    print("SATISFIED" if result.success else "NOT SATISFIED")
    return 0 if result.success else 1


# -- learn -----------------------------------------------------------------------


def cmd_learn(args) -> int:
    check_retention(args.kappa, args.keep)   # before anything is written
    if args.demos is None and args.synthetic < 1:
        return _fail(f"--synthetic must be >= 1, got {args.synthetic}")
    out = _ensure_out(args)
    inputs = []
    written = []
    if args.demos is not None:
        demo_dir = args.demos
        inputs.append(os.path.join(args.demos, sio.DEMO_META_NAME))
    else:
        demo_dir = os.path.join(out, "demos")
        written += sio.write_demo_dir(
            demo_dir, make_demo_set(seed=args.seed, n_demos=args.synthetic))
    # Mine the demos as persisted, not the in-memory set: centre/half round-trips
    # can move box corners by an ulp, and mining the on-disk artifact makes a
    # later run over the written demos reproduce this output byte for byte.
    demos = sio.read_demo_dir(demo_dir)

    result = mine(demos, base_kappa=args.kappa, keep_per_group=args.keep)

    spec_path = os.path.join(out, "mined_spec.csv")
    sio.write_mining_csv(spec_path, result.retained, result.margins)
    written.append(spec_path)
    sio.write_manifest(os.path.join(out, "manifest.json"), "learn", args.seed,
                       {"kappa": args.kappa, "keep": args.keep,
                        "synthetic": args.synthetic if args.demos is None else None},
                       inputs, written, _utc_now())

    print(f"candidates considered: {result.candidates_considered}")
    print(f"retained: {len(result.retained)}")
    header = f"{'formula':<44} {'worst rob.':>10} {'margin':>8} {'estimate':>9}"
    print(header)
    print("-" * len(header))
    sound = True
    tight = True
    for r, m in zip(result.retained, result.margins):
        print(f"{r.candidate.describe():<44} {r.worst:>10.4f} "
              f"{m.margin:>8.4f} {m.margin_estimate:>9.4f}")
        # the widened and over-widened robustness come from the window
        # extremes mining already read; the monitor stays independent
        widened = result.base_kappa + m.margin
        base = m.candidate.formula(demos.subject, result.base_kappa)
        if not all(satisfies(base, traj) for traj in demos.trajectories):
            sound = False
        if min(r.robustness(widened)) < -1e-9:
            tight = False
        if min(r.robustness(widened + 1e-6)) >= 0.0:
            tight = False
        if not m.estimate_agrees:
            tight = False
    print(f"soundness: {'ok' if sound else 'FAILED'}   "
          f"tightness: {'ok' if tight else 'FAILED'}")
    return 0 if (sound and tight) else 1


# -- accuracy --------------------------------------------------------------------


def _list_arg(flag: str, text: str, kind) -> list:
    out = []
    for entry in text.split(","):
        try:
            out.append(kind(entry))
        except ValueError:
            raise ValueError(f"{flag}: bad entry {entry!r} in {text!r}") from None
    return out


def cmd_accuracy(args) -> int:
    taus = _list_arg("--tau", args.tau, float)
    samples_list = _list_arg("--samples", args.samples, int)
    rows = run_sweep(args.pairs, taus, samples_list, args.seed)

    out = _ensure_out(args)
    rows_path = os.path.join(out, "accuracy.csv")
    summary_path = os.path.join(out, "accuracy_summary.csv")
    sio.write_accuracy_csv(rows_path, rows)
    summary = sio.accuracy_summary(rows)
    sio.write_accuracy_summary_csv(summary_path, summary)
    sio.write_manifest(os.path.join(out, "manifest.json"), "accuracy", args.seed,
                       {"pairs": args.pairs, "tau": taus, "samples": samples_list},
                       [], [rows_path, summary_path], _utc_now())

    print(f"pairs: {args.pairs}  rows: {len(rows)}")
    print(f"{'quantity':<12} {'tau':>8} {'S':>4} {'max |err|':>12} {'mean |err|':>12}")
    for quantity, tau, samples, mx, mean in summary:
        print(f"{quantity:<12} {tau:>8g} {samples:>4d} {mx:>12.3e} {mean:>12.3e}")
    print(f"outputs in {out}")
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="polystl",
                                description="Differentiable spatio-temporal logic "
                                            "over convex polygons")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a formula over a trajectory")
    pe.add_argument("scenario")
    pe.add_argument("--trajectory", help="trajectory CSV overriding initial poses")
    pe.add_argument("--mode", choices=["exact", "smooth"], default="exact")
    pe.add_argument("--tau", type=float, default=DEFAULT_TAU)
    pe.add_argument("--samples", type=int, default=DEFAULT_SAMPLES_PER_EDGE)
    pe.add_argument("--breakdown", action="store_true",
                    help="print per-step robustness of the outer window")
    pe.set_defaults(fn=cmd_eval)

    po = sub.add_parser("optimize", help="repair a trajectory against its formula")
    po.add_argument("scenario")
    po.add_argument("--iterations", type=int)
    po.add_argument("--tau", type=float, help="smoothing temperature")
    po.add_argument("--samples", type=int)
    po.add_argument("--svg-every", type=int, default=0,
                    help="snapshot every N iterations (default 0, K/4, K/2, final)")
    po.add_argument("--out-dir", default="out")
    po.set_defaults(fn=cmd_optimize)

    pl = sub.add_parser("learn", help="mine directional formulas from demonstrations")
    pl.add_argument("demos", nargs="?", default=None,
                    help="directory of demonstration files (omit to synthesize)")
    pl.add_argument("--synthetic", type=int, default=30,
                    help="number of synthetic demonstrations when no dir is given")
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--kappa", type=float, default=0.05)
    pl.add_argument("--keep", type=int, default=2)
    pl.add_argument("--out-dir", default="out")
    pl.set_defaults(fn=cmd_learn)

    pa = sub.add_parser("accuracy", help="smooth-vs-exact sweep on random pairs")
    pa.add_argument("--pairs", type=int, default=1000)
    pa.add_argument("--tau", default="1e-3", help="comma-separated list")
    pa.add_argument("--samples", default="32", help="comma-separated list")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--out-dir", default="out")
    pa.set_defaults(fn=cmd_accuracy)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (sio.ScenarioFileError, ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark for polystl: the four CLI commands, end to end and by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload repair --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # each workload in turn

Workloads are described in ``workloads.py``. One process runs one
workload as a closed loop with a single client: each command goes through
``polystl.cli.main`` in this process and starts after the previous one
returned. The benchmark starts no threads; ``accuracy`` keeps its own
default pool.

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` runs every command twice in a row, untraced and then with
spans around every layer entry point (``tracing.py``), and reports the
per-layer metrics of the median pass and the tracing overhead. Set-up
(import of ``polystl`` from ``src/`` and input generation) is repeated
and its median reported.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full report, with the
deterministic block that two runs of one seed must reproduce byte for
byte, is written to ``.bench_out/<size>/<workload>/report.json``. Only
in-process timers, ``gc.callbacks`` and ``getrusage`` are used.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from tracing import Recorder, first_iteration_nodes, layer_metrics, percentile
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9


def timed_setup(workload) -> float:
    """Seconds to import polystl from this checkout's src/ and generate the
    workload's inputs; any earlier copy of polystl is dropped first."""
    for name in [n for n in sys.modules if n == "polystl" or n.startswith("polystl.")]:
        del sys.modules[name]
    gc.collect()
    t0 = perf_counter()
    cli = importlib.import_module("polystl.cli")
    workload.prepare()
    dt = perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"polystl imported from {cli.__file__}, not from {SRC}")
    return dt


def run_command(argv: list[str]):
    """(exit code or None, stdout, seconds) of one CLI command."""
    cli = sys.modules["polystl.cli"]
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except Exception:   # a crash fails this command's checks; keep measuring
        traceback.print_exc()
        rc = None
    return rc, buf.getvalue(), perf_counter() - t0


def run_pass(workload):
    """One untraced pass: (runs, per-command seconds, pass seconds)."""
    runs, latencies = [], []
    t0 = perf_counter()
    for argv in workload.commands():
        rc, out, dt = run_command(argv)
        runs.append((argv, rc, out))
        latencies.append(dt)
    return runs, latencies, perf_counter() - t0


def traced_pass(workload, first_run: int, spans_path: str, append: bool):
    """One traced pass: (checks, per-layer metrics, consistency, untraced
    seconds per command); spans are appended to ``spans_path``.

    Each command runs untraced and then again right after it with the
    recorder installed, so the overhead compares neighbours in time."""
    rec = Recorder()
    runs, plain, roots = [], [], []
    agree = []
    for k, argv in enumerate(workload.commands()):
        rc0, out0, dt = run_command(argv)
        rec.run = first_run + k
        root = rec.open("bench.command")
        rec.install()
        try:
            rc, out, _ = run_command(argv)
        finally:
            rec.uninstall()
            rec.close(root)
        runs.append((argv, rc, out))
        plain.append(dt)
        roots.append(root)
        agree.append((f"{' '.join(argv[:2])}: same output traced and untraced",
                      (rc0, out0) == (rc, out)))
    res = workload.check(runs)
    for label, ok in agree:
        res.check(label, ok)
    layers, cons = layer_metrics(rec, roots)
    res.check("layer self times sum to the root spans", cons["ok"])
    for key in ("predicates.atom.smooth_calls", "predicates.atom.exact_calls",
                "mining.candidates"):
        if layers[key][0]:
            res.deterministic[key] = layers[key][0]
    for run, nodes in first_iteration_nodes(rec).items():
        scenario = os.path.basename(runs[run - first_run][0][1])[:-len(".json")]
        for key, value in nodes.items():
            res.deterministic[f"{scenario}.first_iteration.{key}"] = value
    traced = cons["root_ms"] / 1e3
    layers["trace.wall_s"] = (traced, "s")
    layers["trace.overhead_s"] = (traced - sum(plain), "s")
    rec.write_csv(spans_path, append)
    return res, layers, cons, plain


def environment(args) -> dict:
    accuracy = sys.modules.get("polystl.accuracy")
    thread_cap = getattr(accuracy, "thread_cap", None)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "accuracy_threads": thread_cap() if thread_cap else None,
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, one client, polystl.cli.main in-process",
        "instruments": "in-process perf_counter timers, gc.callbacks and "
                       "getrusage(RUSAGE_SELF) only; no machine-wide tracing, "
                       "no change to machine settings",
    }


def measure(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "polystl", "__init__.py")):
        print(f"error: no polystl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    out = os.path.join(ROOT, ".bench_out", args.size, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    workload = WORKLOADS[args.workload](ROOT, out, args.seed, args.size == "tiny")

    setup = [timed_setup(workload)]

    results, latencies, walls = [], [], []
    per_pass_layers, consistency, traced_walls = [], [], []
    spans_path = os.path.join(out, "spans.csv")
    while not walls or sum(walls) + sum(traced_walls) < args.seconds:
        if args.trace:
            res, layers, cons, plain = traced_pass(workload, len(latencies) + 1,
                                                   spans_path, append=bool(consistency))
            per_pass_layers.append(layers)
            consistency.append(cons)
            traced_walls.append(layers["trace.wall_s"][0])
            lat, wall = plain, sum(plain)
        else:
            runs, lat, wall = run_pass(workload)
            res = workload.check(runs)
        results.append(res)
        latencies += lat
        walls.append(wall)
    # set-up is repeated only now: each re-imported copy of polystl stays
    # partly alive and would inflate the peak RSS of the measured passes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += [timed_setup(workload) for _ in range(SETUP_REPEATS - 1)]

    # the median pass for every layer metric; counts repeat exactly
    layers = {name: (statistics.median(p[name][0] for p in per_pass_layers), unit)
              for name, (_, unit) in (per_pass_layers[0].items() if per_pass_layers else ())}

    # one invocation must reproduce its deterministic block on every pass
    first = results[0]
    deterministic = {}
    for res in results:
        for key, value in res.deterministic.items():
            deterministic.setdefault(key, value)
    for res in results[1:]:
        same = all(first.deterministic[k] == v for k, v in res.deterministic.items()
                   if k in first.deterministic)
        res.check("deterministic block reproduces within the run", same)

    checks = [c for res in results for c in res.checks]
    failed = [label for label, ok in checks if not ok]
    for label in failed:
        print(f"check failed: {label}", file=sys.stderr)

    # gated in BENCHMARK.json; per-command latencies go to the report only:
    # with one to three commands a pass they repeat wall_s or rest on one
    # command, and a p90 needs ten samples beyond it, which only certify has
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if args.trace:   # traced commands and their spans inflate the peak
        del end_to_end["peak_rss_mb"]
    report_e2e = dict(end_to_end)
    prefix = "eval" if args.workload == "certify" else "cmd"
    report_e2e[f"{prefix}_ms_p50"] = (percentile(latencies, 0.5) * 1e3, "ms")
    if args.workload == "certify":
        report_e2e["eval_ms_p90"] = (percentile(latencies, 0.9) * 1e3, "ms")
    report_e2e["fail_ratio"] = (len(failed) / len(checks), "failed/attempted")
    report_e2e.update(first.quality)

    report = {
        "environment": environment(args),
        "samples": {"setups": len(setup), "passes": len(walls),
                    "commands": len(latencies), "checks": len(checks),
                    "setup_s": setup, "pass_wall_s": walls},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in report_e2e.items()},
        "deterministic": deterministic,
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "trace_consistency": consistency,
        "spans_file": os.path.relpath(spans_path, ROOT) if args.trace else None,
        "failed_checks": failed,
    }
    report_path = os.path.join(out, "report.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print(f"polystl benchmark  workload={args.workload} seed={args.seed} "
          f"size={args.size} trace={args.trace}  passes={len(walls)} "
          f"commands={len(latencies)} checks={len(checks)} failed={len(failed)}")
    for section, metrics in (("end to end", report_e2e), ("per layer", layers)):
        if metrics:
            print(f"{section}:")
            for name, (value, unit) in metrics.items():
                print(f"  {name:<36} {value:>16.6g} {unit}")
    print(f"report: {os.path.relpath(report_path, ROOT)}")

    final = layers if args.trace else end_to_end
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in final.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measured time; at least one pass always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: minimal inputs for the benchmark's own smoke tests")
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else measure(args)


if __name__ == "__main__":
    sys.exit(main())

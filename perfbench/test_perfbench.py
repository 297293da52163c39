"""Smoke runs of the benchmark itself at tiny input sizes.

Each workload runs once untraced and once traced, in its own process as
the benchmark is meant to run. The tests check the result contract: every
metric named in BENCHMARK.json (and every workload-specific one in the
report) is present with its unit, and no output check failed.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

REPORTED = {
    "repair": {"cmd_ms_p50": "ms", "opt_iterations": "count", "rho_exact_min": "robustness"},
    "sweep": {"cmd_ms_p50": "ms", "accuracy_err_ratio": "ratio"},
    "mine": {"cmd_ms_p50": "ms", "margin_gap_max": "robustness"},
    "certify": {"eval_ms_p50": "ms", "eval_ms_p90": "ms", "satisfied_share": "ratio"},
}


def _bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".bench_out", "tiny", workload, "report.json")) as fh:
        report = json.load(fh)
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    assert report["end_to_end"]["fail_ratio"] == {"value": 0.0, "unit": "failed/attempted"}
    return final, report


def _assert_metrics(metrics: dict, declared: list) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    final, report = _result(workload, 0)
    _assert_metrics(final["metrics"], BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in final["metrics"].values())
    for name, unit in REPORTED[workload].items():
        assert report["end_to_end"][name]["unit"] == unit
    assert report["deterministic"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    final, report = _result(workload, 1)
    _assert_metrics(final["metrics"], BENCH["per_layer"])
    assert all(c["ok"] for c in report["trace_consistency"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("sweep", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""The accuracy sweep's kernel calls, the bits of its smooth clearance, and
the proved budgets on nested pairs."""
import pytest

import math
import random
import subprocess
import sys
from pathlib import Path

from polystl import accuracy
from polystl import exactgeo as xg
from polystl import geometry as geo
from polystl.predicates import _corners_blunt
from polystl.randgeom import pair_for_index

SETTINGS = [geo.SmoothingConfig(tau=tau, samples_per_edge=samples)
            for tau, samples in [(1e-1, 4), (1e-2, 16), (1e-3, 32), (1e-3, 64)]]


def test_each_kernel_runs_once_per_pair_and_setting(monkeypatch):
    calls = {"clearance": 0}
    kernel = geo.clearance_parts

    def counted(*args, **kwargs):
        calls["clearance"] += 1
        return kernel(*args, **kwargs)

    # geometry's own binding is counted too, so a call reached through
    # geo.signed_clearance would show up
    monkeypatch.setattr(accuracy, "clearance_parts", counted)
    monkeypatch.setattr(geo, "clearance_parts", counted)
    rows = accuracy.run_sweep(3, (1e-2, 1e-3), (4, 16), seed=0)
    assert len(rows) == 3 * 4 * len(accuracy.QUANTITIES)
    assert calls == {"clearance": 12}


def test_each_setting_is_built_once_per_sweep(monkeypatch):
    built = []

    def counted(**kwargs):
        built.append(kwargs)
        return geo.SmoothingConfig(**kwargs)

    monkeypatch.setattr(accuracy, "SmoothingConfig", counted)
    rows = accuracy.run_sweep(3, (1e-2, 1e-3), (4, 16), seed=0)
    assert built == [{"tau": tau, "samples_per_edge": s} for tau in (1e-2, 1e-3) for s in (4, 16)]
    assert {(tau, s) for _, tau, s, *_ in rows} == {(1e-2, 4), (1e-2, 16), (1e-3, 4), (1e-3, 16)}


@pytest.mark.parametrize("index", range(8))
def test_smooth_clearance_is_signed_clearance_bit_for_bit(index):
    va, vb = pair_for_index(5, index)
    pa, pb = geo.ConvexPolygon(va), geo.ConvexPolygon(vb)
    rows = accuracy.pair_quantities(va, vb, SETTINGS)
    clearance = [(tau, samples, smooth) for tau, samples, q, _, smooth in rows
                 if q == "clearance"]
    assert [(tau, samples) for tau, samples, _ in clearance] == [
        (cfg.tau, cfg.samples_per_edge) for cfg in SETTINGS]
    for cfg, (_, _, smooth) in zip(SETTINGS, clearance):
        assert smooth == geo.signed_clearance(pa, pb, cfg)


@pytest.mark.parametrize("taus, samples_list, repeated", [
    ((1e-2,), (16, 16), "samples 16"),
    ((1e-2, 0.01), (16,), "tau 0.01"),
    ((1e-1, 1e-2, 1e-1), (4, 16), "tau 0.1"),
])
def test_repeated_setting_is_rejected_before_any_pair(monkeypatch, taus, samples_list,
                                                      repeated):
    def no_pair(*args):
        raise AssertionError("a pair was computed")

    monkeypatch.setattr(accuracy, "pair_quantities", no_pair)
    with pytest.raises(ValueError, match=f"^{repeated} is given more than once$"):
        accuracy.run_sweep(3, taus, samples_list, seed=0)


def _nested_pair(rng):
    """A random pair with the second polygon shrunk into the first: about
    its own centroid to under a fifth of its size, then moved to the
    first's centroid, plus an offset its half-size keeps inside."""
    va, vb = pair_for_index(6, rng.randrange(1 << 30))
    (ax, ay), (bx, by) = xg.centroid(va), xg.centroid(vb)
    s = rng.uniform(0.02, 0.2)
    dx, dy = rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)
    return va, [(ax + dx + s * (x - bx), ay + dy + s * (y - by)) for x, y in vb]


def test_nested_pairs_stay_within_the_proved_budgets():
    rng = random.Random(20261020)
    nested = 0
    for _ in range(200):
        va, vb = _nested_pair(rng)
        if not xg.polygon_contains_polygon(va, vb):
            continue
        nested += 1
        pa, pb = geo.ConvexPolygon(va), geo.ConvexPolygon(vb)
        blunt = _corners_blunt(pa) or _corners_blunt(pb)
        for tau, samples, quantity, exact, smooth in accuracy.pair_quantities(va, vb, SETTINGS):
            cfg = geo.SmoothingConfig(tau=tau, samples_per_edge=samples)
            if quantity == "penetration":
                assert abs(smooth - exact) <= tau * math.log(len(va) + len(vb))
            elif quantity in ("distance", "clearance") and blunt:
                assert abs(smooth - exact) <= geo.clearance_error_budget(pa, pb, cfg)
    assert nested >= 150


def test_calibrate_bounds_script_runs():
    # nothing else imports the script, so a name it imports that is gone
    # would break it silently
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "scripts/calibrate_bounds.py", "5"], cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("suite: 5 pairs")
    assert proc.stdout.count(" OK") == len(accuracy.QUANTITIES)

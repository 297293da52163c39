"""The accuracy sweep's kernel calls and the bits of its smooth clearance."""
import pytest

from polystl import accuracy
from polystl import geometry as geo
from polystl.randgeom import pair_for_index

SETTINGS = [(1e-1, 4), (1e-2, 16), (1e-3, 32), (1e-3, 64)]


def test_each_kernel_runs_once_per_pair_and_setting(monkeypatch):
    calls = {"distance": 0, "penetration": 0}

    def counted(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return wrapper

    # geometry's own bindings are counted too, so a kernel reached through
    # geo.signed_clearance would show up
    for name, kernel in (("distance", geo.smooth_polygon_distance),
                         ("penetration", geo.smooth_sat_penetration)):
        wrapper = counted(name, kernel)
        monkeypatch.setattr(accuracy, kernel.__name__, wrapper)
        monkeypatch.setattr(geo, kernel.__name__, wrapper)
    rows = accuracy.run_sweep(3, (1e-2, 1e-3), (4, 16), seed=0)
    assert len(rows) == 3 * 4 * len(accuracy.QUANTITIES)
    assert calls == {"distance": 12, "penetration": 12}


@pytest.mark.parametrize("index", range(8))
def test_smooth_clearance_is_signed_clearance_bit_for_bit(index):
    va, vb = pair_for_index(5, index)
    pa, pb = geo.ConvexPolygon(va), geo.ConvexPolygon(vb)
    rows = accuracy.pair_quantities(va, vb, SETTINGS)
    clearance = [(tau, samples, smooth) for tau, samples, q, _, smooth in rows
                 if q == "clearance"]
    assert [(tau, samples) for tau, samples, _ in clearance] == SETTINGS
    for tau, samples, smooth in clearance:
        cfg = geo.SmoothingConfig(tau=tau, samples_per_edge=samples)
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

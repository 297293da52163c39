"""Smooth-vs-exact accuracy sweeps over random polygon pairs.

Four quantities per pair: distance, signed clearance, push-out
penetration, and enclosure robustness of the first polygon in the second.
The first three come from one call of the pair kernel
(``geometry.clearance_parts``) per pair and (tau, samples) setting: the
clearance is the blended signed distance of the origin to the Minkowski
difference, the distance its positive part, and the penetration its
inside branch clamped at 0. No kernel samples the boundary any more, so
the samples setting changes no value; it stays a column of the output.
Each pair's geometry comes from its own RNG stream keyed by (seed, index),
so a pair's rows do not depend on which other pairs the sweep covers.
"""
from __future__ import annotations

from typing import Sequence

from . import exactgeo as xg
from .geometry import ConvexPolygon, SmoothingConfig, clearance_parts
from .predicates import (PredicateKind, PredicateParams, Scene, SceneObject,
                         atom_robustness)
from .randgeom import pair_for_index

QUANTITIES = ("distance", "clearance", "penetration", "enclosure")

ENCLOSURE_DELTA = 0.05

# Per-quantity regression bounds at tau=1e-3, S=32, frozen when the pair
# kernels sampled the boundary. Each still covers the proved budget at the
# sweep's worst-case geometry (<= 10 vertices, so n + m <= 20, with blunt
# corners): ``geometry.clearance_error_budget`` for the distance and the
# clearance, tau*log(n + m) for the penetration, and
# ``geometry.enclosure_error_budget``. scripts/calibrate_bounds.py prints
# the budgets beside the observed sweep maxima.
FROZEN_BOUNDS = {
    "distance": 0.0240,
    "clearance": 0.0330,
    "penetration": 0.0100,
    "enclosure": 0.0160,
}

SIGN_AGREEMENT_GATE = 0.05  # |exact| above this must match smooth in sign


def pair_quantities(va: list, vb: list, settings: Sequence[SmoothingConfig]) -> list[tuple]:
    """(tau, samples, quantity, exact, smooth) for one polygon pair given as
    float vertices, at each setting of ``settings`` in turn. The polygons
    and the exact values are computed once for all of them, and the pair
    kernel once per setting."""
    pa, pb = ConvexPolygon(va), ConvexPolygon(vb)
    scene = Scene([SceneObject("a", pa), SceneObject("b", pb)])
    params = PredicateParams.for_kind(PredicateKind.ENCL_IN, [ENCLOSURE_DELTA])
    exact = (xg.exact_distance(va, vb), xg.exact_clearance(va, vb), xg.exact_penetration(va, vb),
             atom_robustness(scene, PredicateKind.ENCL_IN, ("a", "b"), params, smooth=False))
    out = []
    for cfg in settings:
        clr, m_in = clearance_parts(pa, pb, cfg)
        smooth = (max(0.0, clr), clr, max(0.0, m_in),
                  atom_robustness(scene, PredicateKind.ENCL_IN, ("a", "b"), params,
                                  smooth=True, cfg=cfg))
        out.extend((cfg.tau, cfg.samples_per_edge, q, float(e), float(v))
                   for q, e, v in zip(QUANTITIES, exact, smooth))
    return out


def _rows_for_pair(index: int, seed: int, settings: Sequence[SmoothingConfig]) -> list[tuple]:
    return [(index, *row) for row in pair_quantities(*pair_for_index(seed, index), settings)]


def run_sweep(n_pairs: int, taus: Sequence[float], samples_list: Sequence[int],
              seed: int) -> list[tuple]:
    """Rows (pair, tau, samples, quantity, exact, smooth), ordered by pair."""
    if n_pairs < 0:
        raise ValueError("n_pairs must be >= 0")
    for name, values in (("tau", taus), ("samples", samples_list)):
        for i, v in enumerate(values):
            if v in values[:i]:
                raise ValueError(f"{name} {v:g} is given more than once")
    # built, and so checked, before any pair: a bad entry no pair uses still fails
    settings = [SmoothingConfig(tau=tau, samples_per_edge=samples)
                for tau in taus for samples in samples_list]
    return [row for i in range(n_pairs) for row in _rows_for_pair(i, seed, settings)]


def max_errors(rows: Sequence[tuple]) -> dict[tuple, float]:
    """(quantity, tau, samples) -> max |smooth - exact|."""
    out: dict[tuple, float] = {}
    for _, tau, samples, quantity, exact, smooth in rows:
        key = (quantity, tau, samples)
        err = abs(smooth - exact)
        if err > out.get(key, -1.0):
            out[key] = err
    return out


def sign_disagreements(rows: Sequence[tuple],
                       gate: float = SIGN_AGREEMENT_GATE) -> list[tuple]:
    """Signed-quantity rows where |exact| > gate yet the signs differ."""
    bad = []
    for row in rows:
        _, _, _, quantity, exact, smooth = row
        if quantity not in ("clearance", "enclosure"):
            continue
        if abs(exact) > gate and (exact > 0.0) != (smooth > 0.0):
            bad.append(row)
    return bad

"""Derive the sampling-error coefficient and the frozen accuracy bounds.

The smooth distance differs from the exact one by at most C*h + tau*(stacked
log-sum-exp gaps), where h is the boundary sample spacing. The log terms are
analytic; C is not, so we fit it here: over a large random suite, C_req is
the smallest coefficient that covers every observed error once the log terms
are subtracted. The frozen SAMPLING_ERROR_COEFF must dominate C_req, and the
regression bounds committed in accuracy.FROZEN_BOUNDS must dominate the
budgets evaluated at tau=1e-3, S=32 on worst-case geometry (diameter 3,
10 edges). Run this after any change to the geometry kernels:

    python3 scripts/calibrate_bounds.py [n_pairs]

It prints the values to commit; it does not edit any file.
"""
import math
import sys

sys.path.insert(0, "src")

from polystl.accuracy import FROZEN_BOUNDS, pair_quantities
from polystl.geometry import (SAMPLING_ERROR_COEFF, ConvexPolygon, SmoothingConfig,
                              distance_error_budget, enclosure_error_budget,
                              penetration_error_budget)
from polystl.randgeom import pair_for_index

GRID = [(1e-3, 32), (1e-2, 16), (1e-1, 4)]


def c_required(va, vb, tau, samples, err):
    """Smallest C that would cover this observed distance error."""
    A, B = ConvexPolygon(va), ConvexPolygon(vb)
    cfg = SmoothingConfig(tau=tau, samples_per_edge=samples)
    h = max(A.max_edge_length(), B.max_edge_length()) / samples
    budget_log = distance_error_budget(A, B, cfg) - SAMPLING_ERROR_COEFF * h
    return (err - budget_log) / h


def main():
    n_pairs = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    worst_c = -math.inf
    observed = {}   # (quantity, tau, samples) -> max abs error
    for index in range(n_pairs):
        va, vb = pair_for_index(seed=0, index=index)
        for tau, samples, quantity, exact, smooth in pair_quantities(va, vb, GRID):
            err = abs(smooth - exact)
            key = (quantity, tau, samples)
            observed[key] = max(observed.get(key, 0.0), err)
            if quantity == "distance":
                worst_c = max(worst_c, c_required(va, vb, tau, samples, err))

    print(f"suite: {n_pairs} pairs x {GRID}")
    print(f"required sampling coefficient C: {worst_c:.4f}")
    print(f"frozen SAMPLING_ERROR_COEFF:     {SAMPLING_ERROR_COEFF}"
          f"  ({'OK' if SAMPLING_ERROR_COEFF >= worst_c else 'TOO SMALL'})")

    # worst-case analytic budgets at the acceptance operating point
    tau, samples = 1e-3, 32
    big = ConvexPolygon([(3.0 * math.cos(2 * math.pi * k / 10),
                          3.0 * math.sin(2 * math.pi * k / 10)) for k in range(10)])
    cfg = SmoothingConfig(tau=tau, samples_per_edge=samples)
    dist_budget = distance_error_budget(big, big, cfg)
    pen_budget = penetration_error_budget(big, big, cfg)
    budgets = {
        "distance": dist_budget,
        "clearance": dist_budget + pen_budget,   # the two terms stack
        "penetration": pen_budget,
        "enclosure": enclosure_error_budget(big, big, cfg),
    }
    print(f"\nbudget-derived bounds at tau={tau}, S={samples} (worst-case geometry):")
    print(f"{'quantity':<12} {'budget':>10} {'frozen':>10} {'observed max':>14}")
    for q in ("distance", "clearance", "penetration", "enclosure"):
        obs = observed.get((q, tau, samples), 0.0)
        frozen = FROZEN_BOUNDS[q]
        ok = "OK" if frozen >= budgets[q] and frozen >= obs else "VIOLATED"
        print(f"{q:<12} {budgets[q]:>10.4f} {frozen:>10.4f} {obs:>14.5f}  {ok}")


if __name__ == "__main__":
    main()

"""Check the frozen accuracy bounds against the proved budgets.

The regression bounds committed in accuracy.FROZEN_BOUNDS must dominate the
proved smoothing budgets evaluated at tau=1e-3, S=32 on the sweep's
worst-case geometry (two decagons, so n + m = 20, with blunt corners), and
the maxima observed on a random suite. Run this after any change to the
geometry kernels:

    python3 scripts/calibrate_bounds.py [n_pairs]

It prints the values to compare; it does not edit any file, and it exits 1
if a frozen bound is violated.
"""
import math
import sys

sys.path.insert(0, "src")

from polystl.accuracy import FROZEN_BOUNDS, QUANTITIES, pair_quantities
from polystl.geometry import (ConvexPolygon, SmoothingConfig, clearance_error_budget,
                              enclosure_error_budget)
from polystl.randgeom import pair_for_index

TAU, SAMPLES = 1e-3, 32


def main():
    n_pairs = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    cfg = SmoothingConfig(tau=TAU, samples_per_edge=SAMPLES)
    observed = dict.fromkeys(QUANTITIES, 0.0)
    for index in range(n_pairs):
        va, vb = pair_for_index(seed=0, index=index)
        for _, _, quantity, exact, smooth in pair_quantities(va, vb, [cfg]):
            observed[quantity] = max(observed[quantity], abs(smooth - exact))

    big = ConvexPolygon([(3.0 * math.cos(2 * math.pi * k / 10),
                          3.0 * math.sin(2 * math.pi * k / 10)) for k in range(10)])
    clearance = clearance_error_budget(big, big, cfg)
    budgets = {
        "distance": clearance,   # the positive part of the clearance
        "clearance": clearance,
        "penetration": TAU * math.log(len(big) + len(big)),
        "enclosure": enclosure_error_budget(big, big, cfg),
    }
    print(f"suite: {n_pairs} pairs at tau={TAU}, S={SAMPLES}")
    print(f"{'quantity':<12} {'budget':>10} {'frozen':>10} {'observed max':>14}")
    violated = False
    for q in QUANTITIES:
        ok = FROZEN_BOUNDS[q] >= budgets[q] and FROZEN_BOUNDS[q] >= observed[q]
        violated |= not ok
        print(f"{q:<12} {budgets[q]:>10.4f} {FROZEN_BOUNDS[q]:>10.4f} {observed[q]:>14.5f}"
              f"  {'OK' if ok else 'VIOLATED'}")
    return 1 if violated else 0


if __name__ == "__main__":
    sys.exit(main())

"""Locate the self-consistent coupling a0.

The bound state exists for a one-parameter family of couplings a < 0; the
embedded frequency k(a) measures how far each member is from the physical
normalization point k = 1. Because k(a)^2 a = a0 for every a, the scan
reads a0 = k^2 a_start off one cold solve and confirms it with one warm
solve. This script runs it on the default grid, prints every (a, k)
evaluation, and closes with the energy report and the extremum cross-check
a0 = -T/Pi.
"""

import numpy as np

from solitonscf import RunConfig, ScanConfig, find_a0, verify_extremum

grid = RunConfig().build_grid()
result = find_a0(ScanConfig(), grid)

print("scan history (cold solve, then the confirming solve at a0):")
print(f"{'a':>12} {'k':>12} {'iters':>6} {'residual':>10}")
for a, k, iters, res in result.k_history:
    print(f"{a:12.7f} {k:12.8f} {iters:6d} {res:10.2e}")

rep = result.report
print()
print(f"a0          = {result.a0:.8f}")
print(f"k(a0)       = {result.solution.k:.8f}")
print(f"T           = {rep.T:.6f}")
print(f"Pi          = {rep.Pi:.6f}")
print(f"-T/Pi       = {rep.a_extremum:.6f}   (extremum estimate of a0)")
print(f"mismatch    = {verify_extremum(result, grid):.2e}")
print(f"E(0)/m0     = {rep.E0_over_m0:.6f}")
print(f"e*e0        = {rep.e_times_e0:.4f}   (= 4 pi a0)")
print(f"<x>         = {rep.localization_radius:.4f}")

# the embedding obeys k(a)^2 * a = a0 exactly on a fixed grid, so every
# history row is itself an estimate of a0
products = np.array([a * k * k for a, k, _, _ in result.k_history])
print()
print(f"k^2 a across the scan: mean {products.mean():.8f}, "
      f"spread {np.ptp(products):.1e}")

"""Acceptance gate: every release criterion, one verdict line each.

Each test prints `criterion N: PASS/FAIL | <measurement vs target>` before
asserting, so the full scoreboard is visible in the report (the suite runs
with -rA). Criteria 1-4 compare the computed solution against external
reference anchors (a0 = -3.296, T = 0.749, k(-3.3) = 1.05,
4 pi a0 = -41.42) that the implemented equations do not reproduce; they are
asserted at the stated tolerances and fail honestly rather than being
retuned. The solved ground state itself is internally consistent to high
precision (criteria 5-10); criterion 6 checks the tail against the
asymptotics of the equations themselves.
"""

import filecmp
import json
import time

import numpy as np
import pytest

from solitonscf import io as io_mod
from solitonscf.cli import main
from solitonscf.dispersion import group_velocity, mixing_coefficients, spectrum
from solitonscf.front import (
    EXIT_IO,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_SCAN_FAILURE,
    EXIT_USAGE,
)
from solitonscf.functional import kinetic_T, potential_Pi
from solitonscf.grid import Grid, integrate
from solitonscf.io import RunConfig
from solitonscf.model import density, trial_functions
from solitonscf.scan import ScanConfig, find_a0, verify_extremum
from solitonscf.solver import count_nodes, residual_norm
from solitonscf.solver import solve_fixed_a

# Closed-form oracle values for the b = 1 seed family (criterion 9),
# computed symbolically before the build:
PHI0_ORACLE = {
    0.5: 0.55913885541185090708,
    1.0: 0.52310424002336479999,
    2.0: 0.41583527843986436198,
    4.0: 0.24700879156786926944,
}
T_ORACLE = -0.65465367070797714380      # -sqrt(21)/7
PI_ORACLE = 0.39293686224489795918      # 4929/12544
XMEAN_ORACLE = 65.0 / 28.0


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"criterion {number}: {detail}"


def _quadratic_sample(values, grid, x_target):
    """Three-point Lagrange interpolation of node values at x_target."""
    i = int(np.argmin(np.abs(grid.x - x_target)))
    i = min(max(i, 1), grid.n_nodes - 2)
    sel = slice(i - 1, i + 2)
    coeffs = np.polyfit(grid.x[sel], values[sel], 2)
    return float(np.polyval(coeffs, x_target))


def test_criterion_01_soliton_coupling():
    t0 = time.perf_counter()
    result = find_a0(ScanConfig(), RunConfig().build_grid())
    elapsed = time.perf_counter() - t0
    ok = abs(result.a0 - (-3.296)) <= 0.005 and elapsed < 60.0
    _verdict(
        1,
        ok,
        f"default scan a0 = {result.a0:.6f} (target -3.296 +/- 0.005), "
        f"runtime {elapsed:.2f} s (limit 60 s)",
    )


def test_criterion_02_kinetic_integral(scan_result):
    T = scan_result.report.T
    ok = abs(T - 0.749) <= 0.003
    _verdict(2, ok, f"converged T = {T:.6f} (target 0.749 +/- 0.003)")


def test_criterion_03_intermediate_anchor(state_m33):
    # Under the solver's design k^2 multiplies the coupling, so
    # k(a)^2 * a = a0 holds for every a. Anchor 1 (a0 = -3.296) then implies
    # k(-3.3) = sqrt(3.296 / 3.3) = 0.99939, not the quoted 1.05; k = 1.05
    # would need a0 = -3.638, outside criterion 1's window. The quoted k has
    # another definition in the source, so this target is kept as quoted.
    k = state_m33.k
    ok = abs(k - 1.05) <= 0.01
    _verdict(
        3,
        ok,
        f"k(-3.3) from the variational start = {k:.6f} "
        f"(target 1.05 +/- 0.01)",
    )


def test_criterion_04_charge_product(scan_result):
    ee0 = 4.0 * np.pi * scan_result.a0
    ok = abs(ee0 - (-41.42)) <= 0.07
    _verdict(4, ok, f"e*e0 = 4 pi a0 = {ee0:.4f} (target -41.42 +/- 0.07)")


def test_criterion_05_extremum_identity(scan_result, grid):
    mismatch = verify_extremum(scan_result, grid)
    ok = mismatch < 1e-3
    _verdict(5, ok, f"|a0 + T/Pi|/|a0| = {mismatch:.3e} (limit 1e-3)")


def test_criterion_06_solution_quality(tight_solution, grid):
    state = tight_solution
    x = grid.x
    u, v = state.pair.u, state.pair.v

    res = residual_norm(state, grid)
    ok_res = res < 1e-8

    norm_err = abs(density(state.pair, grid).norm - 1.0)
    ok_norm = norm_err < 1e-10

    nodes = count_nodes(u)
    ok_nodes = nodes == 0

    # With phi -> k^2 a / x in the tail (x * phi0 -> 1, the edge check below),
    # r = u/v obeys r' = 2r/x + P - Q r^2, whose decaying branch is
    # u/v = -1 + (1 + k^2 a)/x + O(1/x^2) (the root solver._tail_row imposes).
    coulomb = 1.0 + state.k**2 * state.a
    mask = (x > 10.0) & (np.abs(v) > 0.0)
    tail_dev = np.abs(u[mask] / v[mask] - (-1.0 + coulomb / x[mask]))
    ok_tail = bool(np.max(tail_dev) < 5e-2)

    edge = x[-1] * state.field.phi0[-1]
    ok_edge = abs(edge - 1.0) < 1e-3

    xmean = integrate(x * density(state.pair, grid).rho, grid)
    ok_xmean = 0.1 < xmean < 10.0

    ok = ok_res and ok_norm and ok_nodes and ok_tail and ok_edge and ok_xmean
    _verdict(
        6,
        ok,
        f"residual {res:.2e} [{'ok' if ok_res else 'FAIL'}]; "
        f"norm err {norm_err:.1e} [{'ok' if ok_norm else 'FAIL'}]; "
        f"u nodes {nodes} [{'ok' if ok_nodes else 'FAIL'}]; "
        f"tail |u/v - (-1 + (1 + k^2 a)/x)| max {np.max(tail_dev):.2e} "
        f"for x > 10 with 1 + k^2 a = {coulomb:.6f} (limit 5e-2) "
        f"[{'ok' if ok_tail else 'FAIL'}]; "
        f"x*phi0(x_max) - 1 = {edge - 1.0:.1e} [{'ok' if ok_edge else 'FAIL'}]; "
        f"<x> = {xmean:.4f} [{'ok' if ok_xmean else 'FAIL'}]",
    )


def test_criterion_07_robustness(scan_result, grid):
    baseline = scan_result.a0

    fine = Grid(grid.theta_min, grid.theta_max, 2 * grid.n_nodes)
    a0_fine = find_a0(ScanConfig(), fine).a0
    grid_shift = abs(a0_fine - baseline)
    ok_grid = grid_shift < 1e-3

    shifts = []
    for b in (0.7, 1.4):
        a0_b = find_a0(ScanConfig(trial_b=b), grid).a0
        shifts.append((f"b={b}", abs(a0_b - baseline)))
    for tau in (0.3, 0.8):
        a0_tau = find_a0(RunConfig(tau=tau), grid).a0
        shifts.append((f"tau={tau}", abs(a0_tau - baseline)))
    worst_label, worst = max(shifts, key=lambda t: t[1])
    ok_init = worst < 1e-4

    ok = ok_grid and ok_init
    _verdict(
        7,
        ok,
        f"a0 shift {grid_shift:.2e} under grid doubling (limit 1e-3); "
        f"worst init perturbation {worst:.2e} at {worst_label} (limit 1e-4)",
    )


def test_criterion_08_dispersion_suite(scan_result):
    e0_values = (scan_result.report.E0_over_m0, 1.0)
    worst_norm = 0.0
    worst_inv = 0.0
    worst_fd = 0.0
    for E0 in e0_values:
        for P in E0 * np.logspace(-8.0, 1.0, 37):
            L, K, *_ = mixing_coefficients(E0, P)
            worst_norm = max(worst_norm, abs(L * L + K * K - 1.0))
            e_plus, _ = spectrum(E0, P)
            worst_inv = max(
                worst_inv, abs((e_plus**2 - P**2) - E0**2) / E0**2
            )
        dp = 1e-5 * E0
        for P in E0 * np.logspace(-3.0, 2.0, 17):
            fd = (spectrum(E0, P + dp)[0] - spectrum(E0, P - dp)[0]) / (2.0 * dp)
            worst_fd = max(
                worst_fd, abs(group_velocity(E0, P) - fd) / abs(fd)
            )
    L0, K0, *_ = mixing_coefficients(1.0, 0.0)
    ok_rest = (L0, K0) == (1.0, 0.0)
    ok = worst_norm <= 1e-12 and worst_inv <= 1e-12 and worst_fd <= 1e-8 and ok_rest
    _verdict(
        8,
        ok,
        f"max |L^2 + K^2 - 1| = {worst_norm:.1e} (limit 1e-12); "
        f"max |E^2 - P^2 - E0^2|/E0^2 = {worst_inv:.1e} (limit 1e-12); "
        f"max FD velocity error = {worst_fd:.1e} (limit 1e-8); "
        f"P = 0 gives (L, K) = ({L0:g}, {K0:g})",
    )


def test_criterion_09_oracle_equivalence(grid):
    pair = trial_functions(1.0, grid)
    from solitonscf.model import potential

    phi0 = potential(density(pair, grid).rho, grid)
    worst = 0.0
    for x_t, ref in PHI0_ORACLE.items():
        got = _quadratic_sample(phi0, grid, x_t)
        worst = max(worst, abs(got - ref) / abs(ref))
    t_rel = abs(kinetic_T(pair, grid) - T_ORACLE) / abs(T_ORACLE)
    pi_rel = abs(potential_Pi(pair, grid) - PI_ORACLE) / PI_ORACLE
    xm = integrate(grid.x * density(pair, grid).rho, grid)
    xm_rel = abs(xm - XMEAN_ORACLE) / XMEAN_ORACLE
    ok = worst < 1e-5 and t_rel < 1e-5 and pi_rel < 1e-5 and xm_rel < 1e-5
    _verdict(
        9,
        ok,
        f"trial-family potential rel err {worst:.1e}, T rel err {t_rel:.1e}, "
        f"Pi rel err {pi_rel:.1e}, <x> rel err {xm_rel:.1e} (limit 1e-5)",
    )


def test_criterion_10_plumbing(tmp_path, capsys):
    fast = ["--grid-nodes", "500"]

    # snapshot round trip: load-save reproduces the file byte for byte
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    snap1, snap2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert (
        main(["solve", "--a", "-2.3", "--output-dir", str(d1),
              "--snapshot", str(snap1)] + fast)
        == EXIT_OK
    )
    loaded = io_mod.load_snapshot(str(snap1))
    io_mod.save_snapshot(str(tmp_path / "resaved.json"), loaded)
    round_trip = (tmp_path / "resaved.json").read_bytes() == snap1.read_bytes()

    # identical runs produce byte-identical artifacts
    assert (
        main(["solve", "--a", "-2.3", "--output-dir", str(d2),
              "--snapshot", str(snap2)] + fast)
        == EXIT_OK
    )
    identical = all(
        filecmp.cmp(str(d1 / name), str(d2 / name), shallow=False)
        for name in ("solve_summary.json", "profiles.csv")
    ) and snap1.read_bytes() == snap2.read_bytes()

    # documented exit codes
    cfg3 = tmp_path / "short.cfg"
    cfg3.write_text("max_iterations = 2\n")
    observed = {
        0: main(["dispersion", "--e0", "1.0", "--p-count", "3",
                 "--output-dir", str(tmp_path)]),
        2: main(["dispersion", "--output-dir", str(tmp_path)]),
        3: main(["solve", "--a", "-2.3", "--config", str(cfg3),
                 "--output-dir", str(tmp_path)] + fast),
        4: main(["scan", "--tol", "1e-14", "--output-dir", str(tmp_path)] + fast),
        5: main(["solve", "--warm-start", str(tmp_path / "absent.json"),
                 "--output-dir", str(tmp_path)]),
    }
    codes_ok = observed == {
        0: EXIT_OK,
        2: EXIT_USAGE,
        3: EXIT_NO_CONVERGENCE,
        4: EXIT_SCAN_FAILURE,
        5: EXIT_IO,
    }
    capsys.readouterr()

    ok = round_trip and identical and codes_ok
    _verdict(
        10,
        ok,
        f"snapshot round trip byte-exact: {round_trip}; "
        f"repeat runs byte-identical: {identical}; "
        f"exit codes observed {sorted(observed.values())} "
        f"for (ok, usage, no-convergence, scan-failure, io)",
    )

"""Coupling scan: a0 from a cold solve, a confirming solve, consistency checks."""

from types import SimpleNamespace

import numpy as np
import pytest

from solitonscf import solver
from solitonscf.errors import ConfigurationError, DivergenceError, ScanFailureError
from solitonscf.functional import kinetic_T, potential_Pi
from solitonscf.io import RunConfig
from solitonscf.scan import ScanConfig, ScanResult, find_a0, verify_extremum
from solitonscf.solver import SolverConfig, solve_fixed_a

A0_REFERENCE = -2.31241249   # frozen scan result, defaults, n = 2000


# ---------------------------------------------------------------------------
# converged scan on the real solver (session fixture)


def test_scan_locates_reference_coupling(scan_result):
    assert scan_result.a0 == pytest.approx(A0_REFERENCE, abs=5e-7)
    # the measured frequency k + mu: solution.k is the confirming solve's seed
    solution = scan_result.solution
    assert abs((solution.k + solution.last_mu) ** 2 - 1.0) <= 1e-6


def test_default_scan_keeps_its_starts(scan_result):
    # neither the cold solve's trial pair nor the confirming solve's pair
    # (already converged at k0 = 1) is moved to a fitted frequency
    assert [row[2] for row in scan_result.k_history] == [13, 0]
    assert scan_result.k_history[1][1] == 1.0
    assert scan_result.a0 == pytest.approx(-2.3124124733762415, abs=1e-12)


def test_cold_seed_is_not_refitted(coarse_grid, monkeypatch):
    # the trial seed can never pass the warm-start fit, so only the
    # confirming solve's pair, the cold solve's state, is fitted
    plain = solver._fitted_start
    fitted = []

    def record(state, grid, tol):
        fitted.append(state.a)
        return plain(state, grid, tol)

    monkeypatch.setattr(solver, "_fitted_start", record)
    result = find_a0(ScanConfig(), coarse_grid)
    assert fitted == [result.a0]


def test_scan_is_frugal(scan_result):
    assert len(scan_result.k_history) <= 12


def test_scan_warm_starts_inner_solves(scan_result):
    # cold start pays full price once; warm continuations stay cheap
    first = scan_result.k_history[0]
    assert first[0] == -3.3
    assert first[1] == pytest.approx(0.837097, abs=1e-5)
    assert all(row[2] <= 10 for row in scan_result.k_history[1:])
    assert all(row[3] < 1e-7 for row in scan_result.k_history)


def test_scan_history_is_monotone(scan_result):
    rows = sorted(scan_result.k_history, key=lambda r: r[0])
    ks = [row[1] for row in rows]
    assert all(k2 > k1 for k1, k2 in zip(ks, ks[1:]))
    assert scan_result.warnings == []


def test_scan_report_is_consistent(scan_result):
    rep = scan_result.report
    assert rep is not None
    assert rep.a == scan_result.a0
    assert rep.T == pytest.approx(1.371296, abs=2e-5)
    assert rep.Pi == pytest.approx(0.593021, abs=2e-5)
    assert rep.E0_over_m0 == pytest.approx(0.158550, abs=2e-5)
    assert rep.e_times_e0 == pytest.approx(4.0 * np.pi * scan_result.a0, rel=1e-12)


def test_extremum_condition_holds(scan_result, grid):
    mismatch = verify_extremum(scan_result, grid)
    assert mismatch < 1e-3
    # a deliberately shifted coupling must degrade the check
    shifted = ScanResult(
        a0=scan_result.a0 * 1.05,
        solution=scan_result.solution,
        k_history=scan_result.k_history,
        report=scan_result.report,
    )
    assert verify_extremum(shifted, grid) > 0.01


def test_extremum_arithmetic(grid):
    # pinned numbers: T / Pi reproduces -a0 when the pair is extremal
    fake = SimpleNamespace(a0=-3.296, report=SimpleNamespace(T=0.749, Pi=0.22724))
    mismatch = verify_extremum(fake, grid)
    assert mismatch == pytest.approx(abs(-3.296 + 0.749 / 0.22724) / 3.296, rel=1e-12)
    assert mismatch < 1e-3


def test_extremum_reuses_the_report(scan_result, grid, monkeypatch):
    # the report holds T and Pi of the same pair from the same functions, so
    # reusing them gives the recomputed mismatch bit for bit
    pair = scan_result.solution.pair
    T, Pi = kinetic_T(pair, grid), potential_Pi(pair, grid)
    recomputed = float(abs(scan_result.a0 + T / Pi) / abs(scan_result.a0))

    def fail(*args):
        raise AssertionError("T or Pi recomputed")

    monkeypatch.setattr("solitonscf.functional.kinetic_T", fail)
    monkeypatch.setattr("solitonscf.functional.potential_Pi", fail)
    assert verify_extremum(scan_result, grid) == recomputed


def test_scan_result_requires_a_report(scan_result):
    # find_a0 always attaches the report that verify_extremum reads
    with pytest.raises(TypeError):
        ScanResult(a0=scan_result.a0, solution=scan_result.solution)
    with pytest.raises(TypeError):  # keyword-only
        ScanResult(scan_result.a0, scan_result.solution, [], scan_result.report)


def test_scan_uses_the_invariance(scan_result):
    # k(a)^2 a = a0 for every a, so the cold solve's k lands the next
    # coupling on a0 and one cheap warm solve confirms it
    assert len(scan_result.k_history) == 2
    (a1, k1, _, _), (a2, _, iterations2, _) = scan_result.k_history
    assert a2 == k1**2 * a1
    assert iterations2 <= 5


def test_scan_confirms_at_the_first_check(scan_result):
    # the confirming solve starts at the invariant frequency k0 = 1 and
    # returns it; the acceptance test measures k + mu instead
    (_, k2, iterations2, _) = scan_result.k_history[1]
    solution = scan_result.solution
    assert iterations2 == 0
    assert k2 == solution.k == 1.0
    assert 0.0 < abs(solution.last_mu) < SolverConfig().tol_residual
    assert abs((solution.k + solution.last_mu) ** 2 - 1.0) <= 1e-6


def test_confirming_solve_takes_one_banded_solve(grid, monkeypatch):
    # one banded solve per check: cold iterations + 1 for the cold solve,
    # then the confirming solve's single check
    plain = solver.solve_banded
    calls = []

    def count(l_and_u, ab, b):
        calls.append(1)
        return plain(l_and_u, ab, b)

    monkeypatch.setattr(solver, "solve_banded", count)
    result = find_a0(ScanConfig(), grid)
    cold_iterations = result.k_history[0][2]
    assert len(calls) == cold_iterations + 2


@pytest.mark.parametrize(
    "a_start", [round(-3.8 + 0.002 * i, 6) for i in range(0, 501, 50)]
)
def test_confirming_solve_over_the_start_range(grid, a_start):
    # every 50th of the 501 benchmark scan starts on [-3.8, -2.8]
    result = find_a0(ScanConfig(a_start=a_start), grid)
    assert len(result.k_history) == 2
    assert result.k_history[1][2] == 0
    assert result.a0 == pytest.approx(A0_REFERENCE, abs=5e-7)


def test_scan_path_independence(coarse_grid):
    cfg_a = ScanConfig(a_start=-3.3)
    cfg_b = ScanConfig(a_start=-2.0)
    res_a = find_a0(cfg_a, coarse_grid)
    res_b = find_a0(cfg_b, coarse_grid)
    assert res_a.a0 == pytest.approx(res_b.a0, abs=1e-5)


# ---------------------------------------------------------------------------
# root finder in isolation (stubbed inner solver)


def _stub_solver(a0_true):
    def stub(a, grid, config=None, init=None, k0=1.0):
        k = float(np.sqrt(a0_true / a))
        return SimpleNamespace(
            k=k, last_mu=0.0, iteration=1, residual_norm=0.0, pair=init
        )

    return stub


def test_secant_on_synthetic_frequency(monkeypatch, coarse_grid):
    monkeypatch.setattr("solitonscf.scan.solve_fixed_a", _stub_solver(-2.5))
    result = find_a0(ScanConfig(), coarse_grid)
    assert result.a0 == pytest.approx(-2.5, abs=1e-5)
    assert len(result.k_history) <= 12
    assert all(len(row) == 4 for row in result.k_history)


def test_secant_from_the_other_side(monkeypatch, coarse_grid):
    monkeypatch.setattr("solitonscf.scan.solve_fixed_a", _stub_solver(-2.5))
    result = find_a0(ScanConfig(a_start=-1.5), coarse_grid)
    assert result.a0 == pytest.approx(-2.5, abs=1e-5)


def test_scan_failure_carries_history(monkeypatch, coarse_grid):
    def always_diverges(a, grid, config=None, init=None, k0=1.0):
        raise DivergenceError("synthetic failure")

    monkeypatch.setattr("solitonscf.scan.solve_fixed_a", always_diverges)
    with pytest.raises(ScanFailureError) as info:
        find_a0(ScanConfig(), coarse_grid)
    assert info.value.k_history == []


def test_scan_stalls_on_flat_frequency(monkeypatch, coarse_grid):
    def flat(a, grid, config=None, init=None, k0=1.0):
        return SimpleNamespace(
            k=2.0, last_mu=0.0, iteration=1, residual_norm=0.0, pair=init
        )

    monkeypatch.setattr("solitonscf.scan.solve_fixed_a", flat)
    with pytest.raises(ScanFailureError) as info:
        find_a0(ScanConfig(), coarse_grid)
    assert len(info.value.k_history) == 2


def test_confirming_solve_failure_carries_the_cold_row(monkeypatch, coarse_grid):
    cold = _stub_solver(-2.5)
    calls = []

    def fails_when_warm(a, grid, config=None, init=None, k0=1.0):
        calls.append(a)
        if len(calls) == 2:
            raise DivergenceError("synthetic failure")
        return cold(a, grid, config, init, k0)

    monkeypatch.setattr("solitonscf.scan.solve_fixed_a", fails_when_warm)
    with pytest.raises(ScanFailureError, match="inner solve failed") as info:
        find_a0(ScanConfig(), coarse_grid)
    assert len(info.value.k_history) == 1
    assert info.value.k_history[0][0] == -3.3


def test_scan_makes_two_solves_whatever_k_does(monkeypatch, coarse_grid):
    # a k that moves on every call never passes the acceptance test; the
    # scan still stops after the confirming solve
    calls = []

    def drifting(a, grid, config=None, init=None, k0=1.0):
        calls.append(a)
        return SimpleNamespace(
            k=1.0 + 0.1 * len(calls), last_mu=0.0, iteration=1,
            residual_norm=0.0, pair=init,
        )

    monkeypatch.setattr("solitonscf.scan.solve_fixed_a", drifting)
    with pytest.raises(ScanFailureError, match="stalled") as info:
        find_a0(ScanConfig(), coarse_grid)
    assert len(calls) == 2
    assert len(info.value.k_history) == 2


def test_scan_stalls_when_the_seed_returns(grid):
    # |k^2 - 1| ~ 1e-9 at the default solver tolerance: a confirming solve
    # that stops at its seed k0 = 1 leaves the next coupling where it is
    with pytest.raises(ScanFailureError, match="stalled") as info:
        find_a0(ScanConfig(tol_k=1e-10), grid)
    assert len(info.value.k_history) == 2


def test_scan_eval_cap(coarse_grid):
    cfg = ScanConfig(tol_k=1e-14)
    with pytest.raises(ScanFailureError) as info:
        find_a0(cfg, coarse_grid)
    assert len(info.value.k_history) == 2


def test_find_a0_reports_at_a_run_configs_alpha0(scan_result, grid):
    # the solver settings are the defaults, so the iterates are the default
    # scan's; only the report's alpha0 differs
    result = find_a0(RunConfig(alpha0=5.0), grid)
    assert result.a0 == scan_result.a0
    assert result.report.delta == result.a0 / 5.0
    assert scan_result.report.delta == scan_result.a0 / 10.0


def test_find_a0_solves_with_a_run_configs_solver_settings(grid):
    with pytest.raises(ScanFailureError, match="after 3 iterations") as info:
        find_a0(RunConfig(max_iterations=3), grid)
    assert info.value.k_history == []


def test_find_a0_takes_a_solver_config_whole(grid, monkeypatch):
    # SolverConfig is RunConfig: its tau sets both solves, and the scan is
    # the one a RunConfig with that tau makes
    reference = find_a0(RunConfig(tau=0.3), grid)
    taus = []

    def recorded(a, grid, config=None, **kwargs):
        taus.append(config.tau)
        return solve_fixed_a(a, grid, config=config, **kwargs)

    monkeypatch.setattr("solitonscf.scan.solve_fixed_a", recorded)
    result = find_a0(SolverConfig(tau=0.3), grid)
    assert taus == [0.3, 0.3]
    assert result.k_history == reference.k_history
    assert result.a0 == reference.a0


def test_solve_fixed_a_takes_a_scan_config(grid, state_m33):
    # ScanConfig is RunConfig: its solver settings are the defaults
    state = solve_fixed_a(-3.3, grid, ScanConfig())
    assert (state.k, state.iteration) == (state_m33.k, state_m33.iteration)
    assert np.array_equal(state.pair.u, state_m33.pair.u)
    assert np.array_equal(state.pair.v, state_m33.pair.v)


# ---------------------------------------------------------------------------
# configuration


@pytest.mark.parametrize(
    "kwargs",
    [
        {"a_start": 1.0},
        {"a_start": np.nan},
        {"tol_k": 0.0},
        {"tol_k": np.nan},
        {"a_start": 0.0},
        {"a_start": -np.inf},
        {"trial_b": 0.0},
        {"tol_k": True},
        {"trial_b": np.nan},
        {"trial_b": -1.0},
        {"tol_k": "1e-6"},
    ],
)
def test_scan_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        ScanConfig(**kwargs).validate()


def test_find_a0_requires_grid():
    with pytest.raises(ConfigurationError):
        find_a0(ScanConfig())

"""Coupling scan: locate a0 where the embedded frequency returns to one.

solve_fixed_a delivers k(a) for any coupling on the attractive branch; the
physical state is the coupling a0 with k(a0) = 1. Every coefficient of the
embedded problem depends on k and a only through k^2 a, so k(a)^2 a = a0
holds exactly for every a, the discrete problem included. The scan is
therefore two solves in a straight line: a cold solve at a_start gives
a0 = k^2 a_start, and a warm solve there confirms |k^2 - 1| <= tol_k.

The same invariance seeds every warm solve. A state converged at
(a_s, k_s) is already the converged state at any other coupling a, with
frequency k_s sqrt(a_s / a); a caller holding such a state should pass that
frequency as k0. At a0 it is exactly 1, so the confirming solve starts at
k0 = 1 from the cold fields and converges at its first check. The
acceptance test therefore measures the frequency as k + mu, the converged
state's k plus the increment that its last check computed, rather than
reading the seed back.

The scan records every (a, k) it evaluates, so a failure still returns the
measured history inside the exception.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .errors import ConfigurationError, ScanFailureError, SolitonError
from .functional import EnergyReport, energy_report
from .grid import Grid
from .io import ScanConfig
from .model import trial_functions
from .solver import IterationState, _Seed, solve_fixed_a

__all__ = ["ScanConfig", "ScanResult", "find_a0", "verify_extremum"]


@dataclass
class ScanResult:
    """Converged scan: the coupling, the state there, and the path taken.

    report, the energy report at a0, is required and keyword-only: find_a0
    always attaches one, and verify_extremum reads T and Pi from it.
    warnings stays empty: with its two rows, k_cold^2 a_start = a0 and
    k = 1 at a0, the scan's k always increases with a. It is kept because
    it is public and scan_summary.json writes it as its warnings key.
    """

    a0: float
    solution: IterationState
    k_history: List[Tuple[float, float, int, float]] = field(default_factory=list)
    report: EnergyReport = field(kw_only=True)
    warnings: List[str] = field(default_factory=list)


def find_a0(
    config: Optional[ScanConfig] = None, grid: Optional[Grid] = None
) -> ScanResult:
    """Locate the self-consistent coupling a0 with k(a0) = 1.

    Two solves: a cold one at a_start from the trial_b seed (a
    solver._Seed, to which no frequency is fitted) gives
    a0 = k^2 a_start, and a warm one at a0, seeded with the cold pair at
    k0 = 1, confirms it when the measured frequency k + mu gives
    |k^2 - 1| <= tol_k. Returns the ScanResult with both (a, k, iterations,
    residual) rows and an energy report at a0.

    config is read whole: ScanConfig, SolverConfig and RunConfig are one
    type, so its tau, tol_residual and max_iterations set both solves and
    its alpha0 goes to the energy report. None takes the defaults.

    Raises
    ------
    ScanFailureError
        When an inner solve fails, or when the confirming solve leaves
        |k^2 - 1| above tol_k (the scan stalled: a smaller solver tolerance
        resolves k further); carries the k_history rows measured so far.
    """
    if grid is None:
        raise ConfigurationError("find_a0 requires a grid")
    config = (config or ScanConfig()).validate()

    k_history: List[Tuple[float, float, int, float]] = []

    def solve(a, pair):
        try:
            # k0 = 1: the cold seed, and the invariant frequency at a0
            state = solve_fixed_a(a, grid, config=config, init=pair, k0=1.0)
        except SolitonError as exc:
            raise ScanFailureError(
                f"inner solve failed at a={a!r}: {exc}", k_history=k_history
            ) from exc
        k_history.append((a, state.k, state.iteration, state.residual_norm))
        return state

    seed = trial_functions(config.trial_b, grid).normalized(grid)
    cold = solve(config.a_start, _Seed(seed.u, seed.v))
    a0 = cold.k**2 * config.a_start
    state = solve(a0, cold.pair)
    # Measured, not read back: a warm solve that converges at its first
    # check returns its seed k0 = 1, so add the increment of that check.
    g = (state.k + state.last_mu) ** 2 - 1.0
    if abs(g) > config.tol_k:
        raise ScanFailureError(
            f"scan stalled at a={a0!r}: the confirming solve left "
            f"|k^2 - 1| = {abs(g):.3e} above {config.tol_k:g}; "
            f"a smaller solver tolerance resolves k further",
            k_history=k_history,
        )
    return ScanResult(
        a0=float(a0),
        solution=state,
        k_history=k_history,
        report=energy_report(state.pair, grid, a0, alpha0=config.alpha0),
    )


def verify_extremum(result: ScanResult, grid: Grid) -> float:
    """Relative mismatch |a0 + T/Pi| / |a0| of the stationarity condition.

    The converged coupling should reproduce the energy extremum a = -T/Pi;
    the returned number is the relative distance between the two, a direct
    consistency check between the scan and the energy functional. T and Pi
    come from result.report, which find_a0 evaluates on the same pair. grid
    is not read; it stays in the signature because callers pass it (the
    scan demo and the benchmark's scan_inproc workload).
    """
    T, Pi = result.report.T, result.report.Pi
    return float(abs(result.a0 + T / Pi) / abs(result.a0))

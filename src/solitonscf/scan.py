"""Outer coupling scan: locate a0 where the embedded frequency returns to one.

solve_fixed_a delivers k(a) for any coupling on the attractive branch; the
physical state is the coupling a0 with k(a0) = 1. Every coefficient of the
embedded problem depends on k and a only through k^2 a, so k(a)^2 a = a0
holds exactly for every a, the discrete problem included. The scan is
therefore the fixed-point map a <- k(a)^2 a: one cold solve at a_start
lands the next coupling on a0, and a warm solve there confirms
|k^2 - 1| <= tol_k.

The same invariance seeds every warm solve. A state converged at
(a_s, k_s) is already the converged state at any other coupling a, with
frequency k_s sqrt(a_s / a); a caller holding such a state should pass that
frequency as k0. At the next coupling k^2 a it is exactly 1, so each warm
solve starts at k0 = 1 from the previous fields and converges at its first
check. The acceptance test therefore measures the frequency as k + mu, the
converged state's k plus the increment that its last check computed, rather
than reading the seed back.

The scan records every (a, k) it evaluates, so a failure still returns the
measured history inside the exception.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConfigurationError, ScanFailureError, SolitonError
from .functional import EnergyReport, energy_report, kinetic_T, potential_Pi
from .grid import Grid
from .model import trial_functions
from .solver import IterationState, SolverConfig, solve_fixed_a

__all__ = ["ScanConfig", "ScanResult", "find_a0", "verify_extremum"]


@dataclass
class ScanConfig:
    """Controls for the outer fixed-point iteration in the coupling.

    a_start seeds the scan (the attractive branch needs a_start < 0);
    tol_k bounds |k^2 - 1| at acceptance; max_evals caps the total number
    of inner solves; trial_b sets the scale of the cold solve's seed.
    """

    a_start: float = -3.3
    tol_k: float = 1e-6
    max_evals: int = 30
    trial_b: float = 1.0

    def validate(self) -> "ScanConfig":
        if not (np.isfinite(self.a_start) and self.a_start < 0):
            raise ConfigurationError(
                f"a_start must be negative and finite, got {self.a_start!r}"
            )
        if not (np.isfinite(self.tol_k) and self.tol_k > 0):
            raise ConfigurationError(
                f"tol_k must be positive and finite, got {self.tol_k!r}"
            )
        if self.max_evals < 2:
            raise ConfigurationError(
                f"max_evals must be >= 2, got {self.max_evals!r}"
            )
        return self


@dataclass
class ScanResult:
    """Converged scan: the coupling, the state there, and the path taken."""

    a0: float
    solution: IterationState
    k_history: List[Tuple[float, float, int, float]] = field(default_factory=list)
    report: Optional[EnergyReport] = None
    warnings: List[str] = field(default_factory=list)


def _monotonicity_warnings(k_history) -> List[str]:
    """k(a) should grow with a on the attractive branch; flag violations."""
    rows = sorted(k_history, key=lambda r: r[0])
    out = []
    for (a1, k1, *_), (a2, k2, *_) in zip(rows, rows[1:]):
        if k2 <= k1:
            out.append(
                f"k(a) not increasing between a={a1:.6g} (k={k1:.8g}) "
                f"and a={a2:.6g} (k={k2:.8g})"
            )
    return out


def find_a0(
    config: Optional[ScanConfig] = None,
    grid: Optional[Grid] = None,
    solver_config: Optional[SolverConfig] = None,
    alpha0: float = 10.0,
) -> ScanResult:
    """Locate the self-consistent coupling a0 with k(a0) = 1.

    Iterates a <- k(a)^2 a from a_start: a cold solve at a_start, then warm
    solves seeded with the previous converged pair at k0 = 1 until the
    measured frequency k + mu gives |k^2 - 1| <= tol_k. Returns the
    converged ScanResult with the full (a, k, iterations, residual) history
    and an energy report at a0.

    Raises
    ------
    ScanFailureError
        When an inner solve fails, when k^2 - 1 does not change between two
        consecutive couplings or a solve returns its seed k = 1 without
        meeting tol_k (the coupling would not move), or when max_evals inner
        solves do not reach |k^2 - 1| <= tol_k; carries k_history.
    """
    if grid is None:
        raise ConfigurationError("find_a0 requires a grid")
    config = (config or ScanConfig()).validate()
    solver_config = solver_config or SolverConfig()

    k_history: List[Tuple[float, float, int, float]] = []
    pair = trial_functions(config.trial_b, grid).normalized(grid)
    a = config.a_start
    g_prev = None
    while True:
        try:
            # k0 = 1: the cold seed, and the invariant frequency of each
            # warm solve at the next coupling k^2 a
            state = solve_fixed_a(a, grid, config=solver_config, init=pair, k0=1.0)
        except SolitonError as exc:
            raise ScanFailureError(
                f"inner solve failed at a={a!r}: {exc}", k_history=k_history
            ) from exc
        k_history.append((a, state.k, state.iteration, state.residual_norm))
        # Measured, not read back: a warm solve that converges at its first
        # check returns its seed k0 = 1, so add the increment of that check.
        g = (state.k + state.last_mu) ** 2 - 1.0
        if abs(g) <= config.tol_k:
            return ScanResult(
                a0=float(a),
                solution=state,
                k_history=k_history,
                report=energy_report(state.pair, grid, a, alpha0=alpha0),
                warnings=_monotonicity_warnings(k_history),
            )
        if g == g_prev:
            raise ScanFailureError(
                f"scan stalled: k^2 - 1 = {g!r} at a={k_history[-2][0]!r} "
                f"and a={a!r}",
                k_history=k_history,
            )
        if len(k_history) >= config.max_evals:
            raise ScanFailureError(
                f"|k^2 - 1| = {abs(g):.3e} above {config.tol_k:g} after "
                f"{config.max_evals} evaluations, last at a = {a!r}",
                k_history=k_history,
            )
        if state.k == 1.0:
            # A warm solve that stopped at its seed maps the coupling onto
            # itself, so repeating it cannot shrink |k^2 - 1|.
            raise ScanFailureError(
                f"scan stalled at a={a!r}: the solve stopped at its seed "
                f"k = 1 with |k^2 - 1| = {abs(g):.3e} above {config.tol_k:g}; "
                f"a smaller solver tolerance resolves k further",
                k_history=k_history,
            )
        pair, g_prev = state.pair, g
        a = state.k**2 * a


def verify_extremum(result: ScanResult, grid: Grid) -> float:
    """Relative mismatch |a0 + T/Pi| / |a0| of the stationarity condition.

    The converged coupling should reproduce the energy extremum a = -T/Pi;
    the returned number is the relative distance between the two, a direct
    consistency check between the scan and the energy functional. T and Pi
    come from result.report, which find_a0 evaluates on the same pair; a
    result without a report has them evaluated here.
    """
    report = result.report
    if report is None:
        T = kinetic_T(result.solution.pair, grid)
        Pi = potential_Pi(result.solution.pair, grid)
    else:
        T, Pi = report.T, report.Pi
    return float(abs(result.a0 + T / Pi) / abs(result.a0))

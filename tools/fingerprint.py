"""Print one sha256 over the solver's results on fixed inputs.

Two source trees that print the same digest compute the same iterates, bit
for bit, on these inputs:

- find_a0 from the 29 starts a_start = -4.4, -4.3, ..., -1.6 at the
  default seed scale trial_b = 1, and from a_start = -3.3 at the seed
  scales trial_b = 0.8, 1.4 and 2.0;
- cold solve_fixed_a solves, converging and failing (no valid step, the
  iteration cap, a refused coupling, a singular linearization);
- warm solves from the a0 state, at a transported k0 = k_s sqrt(a_s / a)
  and at k0 = k_s, some at a tolerance the a0 state does not meet.

The digest covers the fields u, v, phi0, k, last_mu, the residual norm,
the iteration count and trace of every solved state, each scan's a0,
k_history and energy report, and the exception class, text and history of
every failure.

A second line is a digest over the standard-library warm-start certificate,
front._certify: its (IterationState, EnergyReport) pair, hashed as the
state's a, k, u, v, phi0, iteration, residual norm and trace, then the
report's T, Pi and localization radius, or None. It covers the a0 pair of
the scan from -3.3 at WARM_COUPLINGS x WARM_TOLERANCES with the frequency
k_s sqrt(a_s / a) that solve passes it, and two pairs it does not certify
(the a0 pair at a frequency 1e-6 off, and the normalized seed at b = 1).

Run it against a tree's sources:

    PYTHONPATH=<tree>/src python3 tools/fingerprint.py

It uses the default grid (2000 nodes on ln x in [ln 1e-6, ln 80]) and
needs only numpy and the standard library.
"""

import dataclasses
import hashlib
import math
import numbers
import sys

import numpy as np

from solitonscf import front
from solitonscf.errors import SolitonError
from solitonscf.grid import build_grid
from solitonscf.io import RunConfig, Snapshot
from solitonscf.model import trial_functions
from solitonscf.scan import ScanConfig, find_a0
from solitonscf.solver import SolverConfig, solve_fixed_a

SCAN_STARTS = [round(-4.4 + 0.1 * i, 1) for i in range(29)]
# (a_start, trial_b) of every find_a0 run
SCANS = [(a, 1.0) for a in SCAN_STARTS] + [(-3.3, b) for b in (0.8, 1.4, 2.0)]
# (a, SolverConfig keywords, k0)
COLD_SOLVES = [
    (-3.3, {}, 1.0),
    (-8.0, {}, 1.0),
    (-3.3, {"tau": 1.0}, 3.0),
    (-1.0, {}, 1.0),                    # no valid step even at the tau floor
    (-3.3, {}, 0.2),
    (-3.3, {"max_iterations": 5}, 1.0),  # the iteration cap
    (0.5, {}, 1.0),                     # refused before iterating
    (-3.3, {}, 5.0),                    # no decaying tail root
]
WARM_COUPLINGS = [-4.1, -2.5, -6.0]
WARM_TOLERANCES = [1e-8, 1e-12]


def _update(h, value):
    """Feed one value to h: arrays by their bytes, numbers by repr."""
    if isinstance(value, np.ndarray):
        h.update(b"array%d:" % value.size)
        h.update(np.ascontiguousarray(value, dtype=float).tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _update(h, item)
        h.update(b"]")
    elif isinstance(value, numbers.Integral):
        h.update(repr(int(value)).encode() + b";")
    elif isinstance(value, numbers.Real):
        h.update(repr(float(value)).encode() + b";")
    else:
        h.update(repr(value).encode() + b";")


def _state(state):
    return (
        state.pair.u, state.pair.v, state.field.phi0, state.a, state.k,
        state.last_mu, state.residual_norm, state.iteration, state.trace,
    )


def _failure(exc):
    history = getattr(exc, "k_history", getattr(exc, "history", []))
    return ("failure", type(exc).__name__, str(exc), history)


def fingerprint(grid) -> str:
    """The sha256 hex digest of every result above on grid."""
    h = hashlib.sha256()
    a0_state = None
    for a_start, b in SCANS:
        try:
            result = find_a0(ScanConfig(a_start=a_start, trial_b=b), grid)
        except SolitonError as exc:
            _update(h, _failure(exc))
            continue
        _update(h, (
            "scan", a_start, b, result.a0, _state(result.solution),
            result.k_history, dataclasses.astuple(result.report),
            result.warnings,
        ))
        if (a_start, b) == (-3.3, 1.0):
            a0_state = (result.a0, result.solution)
    for a, settings, k0 in COLD_SOLVES:
        try:
            _update(h, ("cold", a, k0, _state(
                solve_fixed_a(a, grid, SolverConfig(**settings), k0=k0)
            )))
        except SolitonError as exc:
            _update(h, _failure(exc))
    a_s, seed = a0_state
    for a in WARM_COUPLINGS:
        for k0 in (seed.k * np.sqrt(a_s / a), seed.k):
            for tol in WARM_TOLERANCES:
                config = SolverConfig(tol_residual=tol, max_iterations=60)
                try:
                    _update(h, ("warm", a, k0, tol, _state(
                        solve_fixed_a(a, grid, config, init=seed.pair, k0=k0)
                    )))
                except SolitonError as exc:
                    _update(h, _failure(exc))
    return h.hexdigest()


def certificates(grid) -> list:
    """((a, k, tol), front._certify's (state, report) or None) for each pair
    above."""
    result = find_a0(ScanConfig(a_start=-3.3), grid)
    a_s, k_s = result.a0, result.solution.k
    bounds = (grid.theta_min, grid.theta_max, grid.n_nodes)

    def snapshot(a, k, pair):
        return Snapshot(*bounds, a, k, pair.u.tolist(), pair.v.tolist())

    a0_pair = snapshot(a_s, k_s, result.solution.pair)
    cases = [
        (a, k_s * math.sqrt(a_s / a), tol, a0_pair)
        for a in WARM_COUPLINGS
        for tol in WARM_TOLERANCES
    ]
    a = WARM_COUPLINGS[0]
    cases.append((a, k_s * math.sqrt(a_s / a) * (1.0 + 1e-6), 1e-8, a0_pair))
    seed = trial_functions(1.0, grid).normalized(grid)
    cases.append((-3.3, 1.0, 1e-8, snapshot(-3.3, 1.0, seed)))
    return [
        ((a, k, tol), front._certify(RunConfig(tol_residual=tol), grid, a, k, snap))
        for a, k, tol, snap in cases
    ]


def certificate_digest(grid) -> str:
    """The sha256 hex digest of every certificate above on grid: the state's
    fields, then its report's T, Pi and localization radius."""
    h = hashlib.sha256()
    for case, record in certificates(grid):
        if record is not None:
            state, report = record
            record = (
                state.a, state.k, state.pair.u, state.pair.v, state.field.phi0,
                state.iteration, state.residual_norm, state.trace,
                report.T, report.Pi, report.localization_radius,
            )
        _update(h, ("certify", case, record))
    return h.hexdigest()


def main() -> int:
    grid = build_grid(np.log(1e-6), np.log(80.0), 2000)
    print(fingerprint(grid))
    print(certificate_digest(grid))
    return 0


if __name__ == "__main__":
    sys.exit(main())

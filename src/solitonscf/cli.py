"""Command line: the numpy side of the commands that solve.

``python -m solitonscf`` and the installed ``solitonscf`` command enter at
``solitonscf.front``, which needs only the standard library: it holds the
parser, the exit codes, ``dispersion``, ``trial-eval`` and the whole
``solve`` command. This module, with numpy and the solver stack, is loaded
for the rest:

    scan    locate the self-consistent coupling a0 (k = 1)
    _solve  the numpy solve of a ``solve`` that the front does not certify

``_solve`` returns the front's record of the solved state, and the front
writes every solve's artifacts from it; ``scan`` writes its state through
the same front writer. ``main`` here hands any command to ``front.main``,
so in-process callers take the same path as the command line.

Exit codes are part of the contract: 0 success, 2 usage or configuration
error, 3 inner solver did not converge, 4 coupling scan failed, 5 I/O or
snapshot problem. The output directory resolves flag first, then the
SOLITONSCF_OUTPUT_DIR environment variable, then the config file, then the
current directory. All artifacts are deterministic; rerunning a command
with the same inputs reproduces byte-identical files.
"""

from typing import List, Optional

from . import front
from . import io as io_mod
from .errors import ScanFailureError
from .front import (  # the exit codes and OUTPUT_DIR_ENV are re-exported
    EXIT_IO,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_SCAN_FAILURE,
    EXIT_USAGE,
    OUTPUT_DIR_ENV,
    _out,
    _run_config,
    build_parser,
    main_entry,
)
from .functional import charge_relation, energy_report
from .scan import find_a0, verify_extremum
from .solver import solve_fixed_a

__all__ = ["build_parser", "main", "main_entry"]


def _solved(state, report) -> front._Solved:
    """A solver state and its energy report as the front's record."""
    return front._Solved(
        state.a, state.k, state.pair.u, state.pair.v, state.field.phi0,
        state.iteration, state.residual_norm, state.trace, report.T, report.Pi,
        report.localization_radius,
    )


def _solve(cfg, a, k0, snap) -> front._Solved:
    """front._cmd_solve's numpy solve: solve_fixed_a at a from k0 and the
    snapshot's pair, or from the seed when snap is None."""
    # the summary needs |a| < alpha0; refuse a coupling beyond it unsolved
    charge_relation(a, alpha0=cfg.alpha0)
    grid = cfg.build_grid()
    init = None if snap is None else snap.pair()
    state = solve_fixed_a(a, grid, config=cfg, init=init, k0=k0)
    return _solved(state, energy_report(state.pair, grid, state.a, alpha0=cfg.alpha0))


def _cmd_scan(args) -> int:
    cfg = _run_config(args)
    grid = cfg.build_grid()
    try:
        result = find_a0(cfg, grid, solver_config=cfg, alpha0=cfg.alpha0)
    except ScanFailureError as exc:
        if "csv" in cfg.formats and exc.k_history:
            io_mod.write_history_csv(_out(cfg, "k_history.csv"), exc.k_history)
        raise
    mismatch = verify_extremum(result, grid)
    report = result.report
    summary = {
        "a0": result.a0,
        "T": report.T,
        "Pi": report.Pi,
        "E0_over_m0": report.E0_over_m0,
        "e_times_e0": report.e_times_e0,
        "extremum_mismatch": mismatch,
        "evaluations": len(result.k_history),
        "warnings": result.warnings,
    }
    if "json" in cfg.formats:
        io_mod.write_summary_json(_out(cfg, "scan_summary.json"), summary)
    if "csv" in cfg.formats:
        io_mod.write_history_csv(_out(cfg, "k_history.csv"), result.k_history)
    snapshot_path = args.snapshot or _out(cfg, "a0_state.json")
    front._write_state(cfg, grid, _solved(result.solution, report), snapshot_path)
    print(
        f"scan: a0 = {result.a0:.6g}, T = {report.T:.6g}, "
        f"E0/m0 = {report.E0_over_m0:.6g}, "
        f"extremum mismatch = {mismatch:.3g}, "
        f"evaluations = {len(result.k_history)}"
    )
    return EXIT_OK


# the command front.main loads this module for
COMMANDS = {"scan": _cmd_scan}


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command through the front, as ``python -m solitonscf`` does."""
    return front.main(argv)

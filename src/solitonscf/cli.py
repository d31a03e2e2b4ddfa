"""Command line: the commands that solve.

Four subcommands cover the package's workflows:

    solve       bound state at a fixed coupling
    scan        locate the self-consistent coupling a0 (k = 1)
    dispersion  closed-form moving-state spectrum table
    trial-eval  energy functional on the variational seed family

The parser, the exit codes and the dispersion command live in
``solitonscf.front``, which needs only the standard library; ``python -m
solitonscf`` and the installed ``solitonscf`` command enter there and load
this module, with numpy and the solver stack, only for solve, scan and
trial-eval. ``main`` here hands any of the four commands to ``front.main``,
so in-process callers take the same path as the command line.

Exit codes are part of the contract: 0 success, 2 usage or configuration
error, 3 inner solver did not converge, 4 coupling scan failed, 5 I/O or
snapshot problem. The output directory resolves flag first, then the
SOLITONSCF_OUTPUT_DIR environment variable, then the config file, then the
current directory. All artifacts are deterministic; rerunning a command
with the same inputs reproduces byte-identical files.
"""

import sys
from typing import List, Optional

import numpy as np

from . import front
from . import io as io_mod
from .errors import ConfigurationError, ScanFailureError
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
from .functional import charge_relation, energy_report, kinetic_T, potential_Pi
from .grid import integrate
from .model import density, trial_functions
from .scan import find_a0, verify_extremum
from .solver import solve_fixed_a

__all__ = ["build_parser", "main", "main_entry"]


def _state_summary(state, grid, alpha0) -> dict:
    report = energy_report(state.pair, grid, state.a, alpha0=alpha0)
    return {
        "a": state.a,
        "k": state.k,
        "iterations": state.iteration,
        "residual": state.residual_norm,
        "T": report.T,
        "Pi": report.Pi,
        "a_extremum": report.a_extremum,
        "E0_over_m0": report.E0_over_m0,
        "e_times_e0": report.e_times_e0,
        "delta": report.delta,
        "C": report.C,
        "localization_radius": report.localization_radius,
    }


def _write_state_artifacts(cfg, grid, state, snapshot_path):
    if "csv" in cfg.formats:
        io_mod.write_profiles_csv(
            _out(cfg, "profiles.csv"),
            grid,
            state.pair.u,
            state.pair.v,
            state.field.phi0,
        )
    if snapshot_path:
        io_mod.save_snapshot(
            snapshot_path,
            io_mod.Snapshot(
                theta_min=grid.theta_min,
                theta_max=grid.theta_max,
                n_nodes=grid.n_nodes,
                a=state.a,
                k=state.k,
                u=state.pair.u,
                v=state.pair.v,
            ),
        )


def _cmd_solve(args) -> int:
    cfg = _run_config(args)
    grid = cfg.build_grid()
    a = cfg.a_start if args.a is None else args.a
    init = None
    k0 = 1.0
    if args.warm_start:
        snap = io_mod.load_snapshot(args.warm_start)
        if (snap.theta_min, snap.theta_max, snap.n_nodes) != (
            grid.theta_min,
            grid.theta_max,
            grid.n_nodes,
        ):
            raise ConfigurationError(
                "warm-start snapshot grid does not match the requested grid"
            )
        init, k0 = snap.pair(), snap.k
        if args.a is None:
            a = snap.a
        elif all(np.isfinite(c) and c < 0 for c in (a, snap.a)):
            # only k^2 a enters the equations, so the snapshot's state is
            # converged at a with k = k_s sqrt(a_s / a); solve_fixed_a
            # refuses any other a. Its own least-squares refit of a warm
            # pair would also find this k, but only to about 1e-9 in k^2 a;
            # the exact form keeps k^2 a on the snapshot's to about 1e-16.
            k0 = snap.k * np.sqrt(snap.a / a)
    # the summary needs |a| < alpha0; refuse a coupling beyond it unsolved
    charge_relation(a, alpha0=cfg.alpha0)
    state = solve_fixed_a(a, grid, config=cfg, init=init, k0=k0)
    summary = _state_summary(state, grid, cfg.alpha0)
    if "json" in cfg.formats:
        io_mod.write_summary_json(_out(cfg, "solve_summary.json"), summary)
    _write_state_artifacts(cfg, grid, state, args.snapshot)
    if args.trace and "csv" in cfg.formats:
        io_mod.write_trace_csv(_out(cfg, "trace.csv"), state.trace)
    print(
        f"solve: a = {state.a:.6g}, k = {state.k:.6g}, "
        f"T = {summary['T']:.6g}, iterations = {state.iteration}"
    )
    return EXIT_OK


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
    _write_state_artifacts(cfg, grid, result.solution, snapshot_path)
    print(
        f"scan: a0 = {result.a0:.6g}, T = {report.T:.6g}, "
        f"E0/m0 = {report.E0_over_m0:.6g}, "
        f"extremum mismatch = {mismatch:.3g}, "
        f"evaluations = {len(result.k_history)}"
    )
    for warning in result.warnings:
        print(f"scan warning: {warning}", file=sys.stderr)
    return EXIT_OK


def _cmd_trial_eval(args) -> int:
    cfg = _run_config(args)
    grid = cfg.build_grid()
    b = cfg.trial_b if args.b is None else args.b
    pair = trial_functions(b, grid)
    raw_norm = density(pair, grid).norm
    pair = pair.normalized(grid)
    T = kinetic_T(pair, grid)
    Pi = potential_Pi(pair, grid)
    summary = {
        "b": float(b),
        "norm_before_rescale": raw_norm,
        "T": T,
        "Pi": Pi,
        "a_extremum": -T / Pi,
        "mean_radius": integrate(
            grid.x * density(pair, grid).rho, grid
        ),
    }
    if "json" in cfg.formats:
        io_mod.write_summary_json(_out(cfg, "trial_summary.json"), summary)
    print(
        f"trial-eval: b = {b:.6g}, T = {T:.6g}, Pi = {Pi:.6g}, "
        f"-T/Pi = {-T / Pi:.6g}"
    )
    return EXIT_OK


# the commands front.main loads this module for
COMMANDS = {
    "solve": _cmd_solve,
    "scan": _cmd_scan,
    "trial-eval": _cmd_trial_eval,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command through the front, as ``python -m solitonscf`` does."""
    return front.main(argv)

"""Command line front end.

Four subcommands cover the package's workflows:

    solve       bound state at a fixed coupling
    scan        locate the self-consistent coupling a0 (k = 1)
    dispersion  closed-form moving-state spectrum table
    trial-eval  energy functional on the variational seed family

Exit codes are part of the contract: 0 success, 2 usage or configuration
error, 3 inner solver did not converge, 4 coupling scan failed, 5 I/O or
snapshot problem. The output directory resolves flag first, then the
SOLITONSCF_OUTPUT_DIR environment variable, then the config file, then the
current directory. All artifacts are deterministic; rerunning a command
with the same inputs reproduces byte-identical files.
"""

import argparse
import os
import sys
from dataclasses import replace
from typing import List, Optional

import numpy as np

from . import io as io_mod
from .dispersion import dispersion_table
from .errors import (
    ConfigurationError,
    ScanFailureError,
    SnapshotError,
    SolitonError,
)
from .functional import check_alpha0, energy_report, kinetic_T, potential_Pi
from .grid import integrate
from .model import density, trial_functions
from .scan import ScanConfig, find_a0, verify_extremum
from .solver import SolverConfig, solve_fixed_a

__all__ = ["build_parser", "main", "main_entry"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_SCAN_FAILURE = 4
EXIT_IO = 5

OUTPUT_DIR_ENV = "SOLITONSCF_OUTPUT_DIR"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solitonscf",
        description="Self-consistent soliton bound state: solve, scan, dispersion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol_help):
        p.add_argument("--config", metavar="PATH", help="key=value config file")
        p.add_argument(
            "--grid-nodes", type=int, metavar="N", help="override grid node count"
        )
        p.add_argument("--tau", type=float, help="field damping factor in (0, 1]")
        p.add_argument("--tol", type=float, help=tol_help)
        p.add_argument(
            "--output-dir", metavar="DIR", help="directory for output artifacts"
        )
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            action="append",
            dest="formats",
            help="restrict artifact formats (repeatable; default both)",
        )

    p_solve = sub.add_parser("solve", help="bound state at fixed coupling")
    common(p_solve, "solver residual tolerance")
    p_solve.add_argument("--a", type=float, help="coupling (default: a_start)")
    p_solve.add_argument(
        "--snapshot", metavar="PATH", help="write a warm-start snapshot here"
    )
    p_solve.add_argument(
        "--warm-start", metavar="PATH", help="initialize from this snapshot"
    )
    p_solve.add_argument(
        "--trace", action="store_true", help="write the iteration trace CSV"
    )

    p_scan = sub.add_parser("scan", help="locate the self-consistent coupling")
    common(p_scan, "scan tolerance on |k^2 - 1|")
    p_scan.add_argument(
        "--snapshot", metavar="PATH", help="write the a0 state snapshot here"
    )

    p_disp = sub.add_parser("dispersion", help="moving-state spectrum table")
    common(p_disp, "(unused for dispersion)")
    p_disp.add_argument("--e0", type=float, help="rest energy E0 (in m0 units)")
    p_disp.add_argument(
        "--from-summary",
        metavar="PATH",
        help="read E0_over_m0 from a scan summary JSON",
    )
    p_disp.add_argument("--p-min", type=float, default=0.0, help="first momentum")
    p_disp.add_argument("--p-max", type=float, default=2.0, help="last momentum")
    p_disp.add_argument("--p-count", type=int, default=41, help="number of rows")

    p_trial = sub.add_parser("trial-eval", help="energy functional on the seed family")
    common(p_trial, "(unused for trial-eval)")
    p_trial.add_argument("--b", type=float, help="seed scale (default: trial_b)")

    return parser


def _run_config(args) -> io_mod.RunConfig:
    cfg = io_mod.RunConfig()
    if args.config:
        cfg = io_mod.load_config(args.config, base=cfg)
    overrides = {}
    if getattr(args, "grid_nodes", None) is not None:
        overrides["n_nodes"] = args.grid_nodes
    if getattr(args, "tau", None) is not None:
        overrides["tau"] = args.tau
    if getattr(args, "formats", None):
        overrides["formats"] = set(args.formats)
    if args.output_dir is not None:
        overrides["output_dir"] = args.output_dir
    elif os.environ.get(OUTPUT_DIR_ENV):
        overrides["output_dir"] = os.environ[OUTPUT_DIR_ENV]
    if getattr(args, "tol", None) is not None:
        if args.command == "scan":
            overrides["tol_k"] = args.tol
        else:
            overrides["tol_residual"] = args.tol
    cfg = replace(cfg, **overrides)
    # alpha0 is read only after the solve; reject it before spending one.
    check_alpha0(cfg.alpha0)
    return cfg


def _solver_config(cfg: io_mod.RunConfig) -> SolverConfig:
    return SolverConfig(
        tau=cfg.tau,
        tol_residual=cfg.tol_residual,
        max_iterations=cfg.max_iterations,
    ).validate()


def _out(cfg: io_mod.RunConfig, name: str) -> str:
    return os.path.join(cfg.output_dir, name)


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
    solver_cfg = _solver_config(cfg)
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
    state = solve_fixed_a(a, grid, config=solver_cfg, init=init, k0=k0)
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
    solver_cfg = _solver_config(cfg)
    scan_cfg = ScanConfig(
        a_start=cfg.a_start,
        tol_k=cfg.tol_k,
        max_evals=cfg.max_evals,
        trial_b=cfg.trial_b,
    )
    try:
        result = find_a0(scan_cfg, grid, solver_config=solver_cfg, alpha0=cfg.alpha0)
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


def _cmd_dispersion(args) -> int:
    cfg = _run_config(args)
    if (args.e0 is None) == (args.from_summary is None):
        raise ConfigurationError(
            "dispersion needs exactly one of --e0 or --from-summary"
        )
    if args.from_summary:
        import json

        try:
            with open(args.from_summary, "r", encoding="utf-8") as fh:
                # every JSON number becomes a float (a huge integer turns
                # into inf, which the table refuses), and a bool never does
                summary = json.load(fh, parse_int=float)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: arrays or objects nested too deep to decode
            raise ConfigurationError(
                f"{args.from_summary}: not a JSON summary ({exc})"
            ) from exc
        if not isinstance(summary, dict) or "E0_over_m0" not in summary:
            raise ConfigurationError(
                f"{args.from_summary}: summary lacks E0_over_m0"
            )
        e0 = summary["E0_over_m0"]
        if not isinstance(e0, float):
            raise ConfigurationError(
                f"{args.from_summary}: E0_over_m0 must be a JSON number, "
                f"got {e0!r}"
            )
    else:
        e0 = args.e0
    if args.p_count < 1:
        raise ConfigurationError(f"--p-count must be >= 1, got {args.p_count}")
    if not (0.0 <= args.p_min <= args.p_max < np.inf):
        raise ConfigurationError(
            f"momentum range invalid: [{args.p_min!r}, {args.p_max!r}]"
        )
    momenta = np.linspace(args.p_min, args.p_max, args.p_count)
    points = dispersion_table(e0, momenta)
    if "csv" in cfg.formats:
        io_mod.write_dispersion_csv(_out(cfg, "dispersion.csv"), points)
    if "json" in cfg.formats:
        io_mod.write_summary_json(
            _out(cfg, "dispersion_summary.json"),
            {
                "E0": e0,
                "p_min": float(args.p_min),
                "p_max": float(args.p_max),
                "rows": len(points),
            },
        )
    last = points[-1]
    print(
        f"dispersion: E0 = {e0:.6g}, {len(points)} rows, "
        f"E({last.P:.6g}) = {last.E_electron:.6g}"
    )
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


_COMMANDS = {
    "solve": _cmd_solve,
    "scan": _cmd_scan,
    "dispersion": _cmd_dispersion,
    "trial-eval": _cmd_trial_eval,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ScanFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCAN_FAILURE
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SolitonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


def main_entry() -> None:
    sys.exit(main())

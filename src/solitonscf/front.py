"""Command line front: the parser, the exit codes and the dispersion command.

The module needs only the standard library. ``solitonscf dispersion`` is
closed-form scalar arithmetic, and ``--help`` and usage errors compute
nothing, so they run here without importing numpy. The commands that
solve (``solve``, ``scan``, ``trial-eval``) live in ``solitonscf.cli``,
which this module imports only when one of them is asked for.

Exit codes are part of the contract: 0 success, 2 usage or configuration
error, 3 inner solver did not converge, 4 coupling scan failed, 5 I/O or
snapshot problem.
"""

import argparse
import math
import os
import sys
from dataclasses import replace
from typing import List, Optional

from . import io as io_mod
from .dispersion import dispersion_table
from .errors import (
    ConfigurationError,
    ScanFailureError,
    SnapshotError,
    SolitonError,
    check_alpha0,
)

__all__ = ["build_parser", "run_command", "main", "main_entry"]

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


def _out(cfg: io_mod.RunConfig, name: str) -> str:
    return os.path.join(cfg.output_dir, name)


def _linspace(start: float, stop: float, num: int) -> List[float]:
    """num evenly spaced doubles from start to stop, as np.linspace gives them.

    The arithmetic is numpy's, step for step: i * step + start, with the
    last point set to stop. A step that underflows to zero (a range of
    subnormal width) scales by (i / div) * delta instead.
    """
    delta = stop - start
    div = num - 1
    if div > 0:
        step = delta / div
        if step == 0:
            ys = [i / div * delta for i in range(num)]
        else:
            ys = [i * step for i in range(num)]
    else:
        ys = [i * delta for i in range(num)]
    ys = [y + start for y in ys]
    if num > 1:
        ys[-1] = stop
    return ys


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
    if not (0.0 <= args.p_min <= args.p_max < math.inf):
        raise ConfigurationError(
            f"momentum range invalid: [{args.p_min!r}, {args.p_max!r}]"
        )
    momenta = _linspace(args.p_min, args.p_max, args.p_count)
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


def run_command(command, args) -> int:
    """Run one parsed command and map the package's errors to exit codes."""
    try:
        return command(args)
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


def main(argv: Optional[List[str]] = None) -> int:
    """Parse argv and run its command; the solving commands load cli."""
    args = build_parser().parse_args(argv)
    if args.command == "dispersion":
        return run_command(_cmd_dispersion, args)
    from . import cli  # numpy and the solver stack

    return run_command(cli.COMMANDS[args.command], args)


def main_entry() -> None:
    sys.exit(main())

"""Command line front: the parser, the exit codes, dispersion and trial-eval.

The module needs only the standard library. ``solitonscf dispersion`` is
closed-form scalar arithmetic, ``solitonscf trial-eval`` evaluates the
seed family on lists of floats, and ``--help`` and usage errors compute
nothing, so they run here without importing numpy. The commands that
solve (``solve``, ``scan``) live in ``solitonscf.cli``, which this module
imports only when one of them is asked for.

trial-eval repeats the arithmetic of the numpy layers element for element
(see ``_trial_summary``), but takes each integral with math.fsum where
numpy takes a dot product, so the two agree to about 1e-15 relative, well
inside the summary's 6 digits. It costs about 3 us per node, so above
about 5e4 grid nodes it is slower than the numpy layers would be.

Exit codes are part of the contract: 0 success, 2 usage or configuration
error, 3 inner solver did not converge, 4 coupling scan failed, 5 I/O or
snapshot problem.
"""

import argparse
import math
import os
import sys
from dataclasses import replace
from itertools import accumulate
from typing import List, Optional

from . import io as io_mod
from .dispersion import dispersion_table
from .errors import (
    NORM_TOL,
    ConfigurationError,
    NumericError,
    ScanFailureError,
    SnapshotError,
    SolitonError,
    UnnormalizedStateError,
    check_grid,
    check_value,
)

__all__ = ["build_parser", "run_command", "main", "main_entry"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_SCAN_FAILURE = 4
EXIT_IO = 5

OUTPUT_DIR_ENV = "SOLITONSCF_OUTPUT_DIR"
MAX_P_COUNT = 100000  # dispersion rows; every row is held in memory
# the flags that name a file or directory, by their argparse dest
_PATH_FLAGS = ("config", "output_dir", "snapshot", "warm_start", "from_summary")


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
    p_disp.add_argument(
        "--p-count",
        type=int,
        default=41,
        help=f"number of rows, 1 to {MAX_P_COUNT}",
    )

    p_trial = sub.add_parser("trial-eval", help="energy functional on the seed family")
    common(p_trial, "(unused for trial-eval)")
    p_trial.add_argument("--b", type=float, help="seed scale (default: trial_b)")

    return parser


def _run_config(args) -> io_mod.RunConfig:
    """The defaults, then --config, then the flags; checked whole before any work."""
    for dest in _PATH_FLAGS:
        path = getattr(args, dest, None)  # only some commands have each flag
        if path and "\0" in path:  # open() would raise a bare ValueError
            raise ConfigurationError(
                f"--{dest.replace('_', '-')} must be a path without a NUL "
                f"character, got {path!r}"
            )
    cfg = io_mod.load_config(args.config) if args.config else io_mod.RunConfig()
    overrides = {}
    if args.grid_nodes is not None:
        overrides["n_nodes"] = args.grid_nodes
    if args.tau is not None:
        overrides["tau"] = args.tau
    if args.formats:
        overrides["formats"] = set(args.formats)
    if args.output_dir is not None:
        overrides["output_dir"] = args.output_dir
    elif os.environ.get(OUTPUT_DIR_ENV):
        overrides["output_dir"] = os.environ[OUTPUT_DIR_ENV]
    if args.tol is not None:
        overrides["tol_k" if args.command == "scan" else "tol_residual"] = args.tol
    return replace(cfg, **overrides).validate()


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
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
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
    check_value("--p-count", args.p_count, 1, MAX_P_COUNT, integer=True)
    check_value("--p-min", args.p_min, 0.0)
    check_value("--p-max", args.p_max, args.p_min)
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


def _trial_summary(b, theta_min, theta_max, n_nodes) -> dict:
    """trial-eval's numbers for the seed pair at scale b on the given grid.

    The same arithmetic, element for element, as grid.build_grid,
    model.trial_functions, SpinorPair.normalized, functional.kinetic_T and
    potential_Pi, with the same refusals: the grid's, b's, a seed with no
    finite positive norm, and a rescaled pair whose norm is not 1.
    """
    theta_min, theta_max, n = check_grid(theta_min, theta_max, n_nodes)
    check_value("trial scale b", b, 0.0, open_low=True)
    h = (theta_max - theta_min) / (n - 1)
    x = [math.exp(theta) for theta in _linspace(theta_min, theta_max, n)]
    w = [h * xi for xi in x]  # trapezoid weights, the Jacobian e^theta absorbed
    w[0], w[-1] = 0.5 * h * x[0], 0.5 * h * x[-1]

    def integral(f):  # grid.integrate, which refuses non-finite values
        if not all(map(math.isfinite, f)):
            raise NumericError("integrate: input contains non-finite values")
        return math.fsum(wi * fi for wi, fi in zip(w, f))

    try:
        amp = b**1.5
    except OverflowError:  # numpy's power gives inf, and the norm below nan
        amp = math.inf
    A = math.sqrt(2.0 / 7.0) * amp
    B = math.sqrt(2.0 / 3.0) * amp
    decay = [math.exp(-b * xi) for xi in x]
    u = [A * xi * (1.0 + b * xi) * d for xi, d in zip(x, decay)]
    v = [B * xi * xi * d for xi, d in zip(x, decay)]
    try:  # unchecked, as in trial_functions: a non-finite norm is refused
        norm = math.fsum(wi * (ui * ui + vi * vi) for wi, ui, vi in zip(w, u, v))
    except OverflowError:  # finite terms whose sum overflows: numpy gives inf
        norm = math.inf
    if not (math.isfinite(norm) and norm > 0.0):
        raise ConfigurationError(
            f"trial scale b = {b!r} gives no finite seed with a positive "
            f"norm on this grid (norm {norm!r})"
        )
    s = 1.0 / math.sqrt(norm)
    u = [ui * s for ui in u]
    v = [vi * s for vi in v]
    rho = [ui * ui + vi * vi for ui, vi in zip(u, v)]
    unit = integral(rho)
    if abs(unit - 1.0) > NORM_TOL:
        raise UnnormalizedStateError(unit, NORM_TOL)

    def d_dx(f):  # centred inside, one-sided at the two ends
        d = [(f[i + 1] - f[i - 1]) / (2.0 * h) for i in range(1, n - 1)]
        d = [(f[1] - f[0]) / h] + d + [(f[-1] - f[-2]) / h]
        return [di / xi for di, xi in zip(d, x)]

    T = integral(
        [
            (dui * vi - dvi * ui) - 2.0 * ui * vi / xi + (ui * ui - vi * vi)
            for dui, dvi, ui, vi, xi in zip(d_dx(u), d_dx(v), u, v, x)
        ]
    )
    # phi0: the backward sweep of rho dtheta plus the forward sweep of
    # rho x dtheta over x, as model.potential
    c = 0.5 * h
    outer = [c * (rho[i + 1] + rho[i]) for i in reversed(range(n - 1))]
    outer = list(accumulate(outer, initial=0.0))[::-1]
    inner = [c * (rho[i + 1] * x[i + 1] + rho[i] * x[i]) for i in range(n - 1)]
    inner = accumulate(inner, initial=0.0)
    Pi = integral(
        [(o + q / xi) * r for o, q, xi, r in zip(outer, inner, x, rho)]
    )
    return {
        "b": float(b),
        "norm_before_rescale": norm,
        "T": T,
        "Pi": Pi,
        "a_extremum": -T / Pi,
        "mean_radius": integral([xi * r for xi, r in zip(x, rho)]),
    }


def _cmd_trial_eval(args) -> int:
    cfg = _run_config(args)
    b = cfg.trial_b if args.b is None else args.b
    summary = _trial_summary(b, cfg.theta_min, cfg.theta_max, cfg.n_nodes)
    if "json" in cfg.formats:
        io_mod.write_summary_json(_out(cfg, "trial_summary.json"), summary)
    print(
        f"trial-eval: b = {b:.6g}, T = {summary['T']:.6g}, "
        f"Pi = {summary['Pi']:.6g}, -T/Pi = {summary['a_extremum']:.6g}"
    )
    return EXIT_OK


def run_command(command, args) -> int:
    """Run one parsed command and map the package's errors to exit codes.

    Only the package's own ValueErrors (ConfigurationError and its kin)
    are usage errors; any other exception is a fault and propagates.
    """
    try:
        return command(args)
    except ScanFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCAN_FAILURE
    except (SnapshotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SolitonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ValueError) else EXIT_NO_CONVERGENCE


# the commands that run on the standard library alone
COMMANDS = {"dispersion": _cmd_dispersion, "trial-eval": _cmd_trial_eval}


def main(argv: Optional[List[str]] = None) -> int:
    """Parse argv and run its command; solve and scan load cli."""
    args = build_parser().parse_args(argv)
    command = COMMANDS.get(args.command)
    if command is None:
        from . import cli  # numpy and the solver stack

        command = cli.COMMANDS[args.command]
    return run_command(command, args)


def main_entry() -> None:
    sys.exit(main())

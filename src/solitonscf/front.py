"""Command line front: the parser, the exit codes, dispersion, trial-eval
and solve.

The module needs only the standard library. ``solitonscf dispersion`` is
closed-form scalar arithmetic, ``solitonscf trial-eval`` evaluates the
seed family on lists of floats, and ``--help`` and usage errors compute
nothing, so they run here without importing numpy. ``scan`` lives in
``solitonscf.cli``, which this module imports only when it is asked for.

``solve`` runs here whole. ``_cmd_solve`` checks the configuration and the
grid, reads a ``--warm-start`` snapshot once and fixes the coupling and
the starting frequency (by the k^2 a invariance, a snapshot's state is
the converged state at any coupling). A warm pair that solve_fixed_a's
first convergence check certifies (``_certify``, on lists of floats) is
the solved state; any other solve goes to ``cli._solve``, the numpy
solver. Both return one record, which one summary and one state writer
turn into the artifacts; a certified pair's are the bytes the numpy solve
would write.

These commands run on the node and weight buffers (array('d')) of
grid.Grid, the grid of the numpy layers too, which makes its numpy views
of them only when they are asked for. They repeat the arithmetic of the numpy layers element for
element, but take each integral with math.fsum where numpy takes a dot
product, so the two agree to about 1e-15 relative, well inside the
summaries' 6 digits. The certificate takes grid's box-scheme coefficients
and boundary rows, the functions the numpy solver calls, and checks the
residual and sums I_mu in one forward sweep (_sweep). trial-eval costs
about 3 us per node, and a certified solve about 16 us per node of
command time (snapshot, grid, check and writes; the sweep is about 2 us of
it), so above about 5e4 and 3e4 grid nodes respectively they are no
faster than the numpy layers would be.

Exit codes are part of the contract: 0 success, 2 usage or configuration
error, 3 inner solver did not converge, 4 coupling scan failed, 5 I/O or
snapshot problem.
"""

import argparse
import math
import os
import sys
from collections import namedtuple
from dataclasses import replace
from itertools import accumulate
from operator import mul, truediv
from typing import List, Optional

from . import io as io_mod
from .dispersion import dispersion_table
from .errors import (
    MU_DENOM_TOL,
    NODE_TOL,
    NORM_TOL,
    ConfigurationError,
    DegenerateLinearizationError,
    NumericError,
    ScanFailureError,
    SnapshotError,
    SolitonError,
    UnnormalizedStateError,
    check_coupling,
    check_value,
)
from .grid import Grid, _coefficients, _linspace, _origin_row, _tail_row

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


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a negative number in any spelling
    float() reads (-1e-3, -5., -inf) is a value, not an unknown option:
    argparse's own test knows only -N and -N.N."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _integral(grid: Grid, f) -> float:
    """grid.integrate, which refuses non-finite values, with math.fsum."""
    if not all(map(math.isfinite, f)):
        raise NumericError("integrate: input contains non-finite values")
    return math.fsum(map(mul, grid.ws, f))


def _d_dx(grid: Grid, f) -> List[float]:
    """grid.differentiate: centred inside, one-sided at the two ends."""
    h = grid.h
    d = [(f[i + 1] - f[i - 1]) / (2.0 * h) for i in range(1, len(f) - 1)]
    d = [(f[1] - f[0]) / h] + d + [(f[-1] - f[-2]) / h]
    return list(map(truediv, d, grid.xs))


def _phi0(grid: Grid, rho) -> List[float]:
    """model.potential: the backward sweep of rho dtheta plus the forward
    sweep of rho x dtheta over x."""
    x, c, n = grid.xs, 0.5 * grid.h, len(rho)
    outer = [c * (rho[i + 1] + rho[i]) for i in reversed(range(n - 1))]
    outer = list(accumulate(outer, initial=0.0))[::-1]
    inner = [c * (rho[i + 1] * x[i + 1] + rho[i] * x[i]) for i in range(n - 1)]
    inner = accumulate(inner, initial=0.0)
    return [o + q / xi for o, q, xi in zip(outer, inner, x)]


def _energy(grid: Grid, u, v, rho, phi0):
    """T, Pi and the integral of x rho, as functional.energy_report takes them."""
    du, dv = _d_dx(grid, u), _d_dx(grid, v)
    kinetic = [
        (dui * vi - dvi * ui) - 2.0 * ui * vi / xi + (ui * ui - vi * vi)
        for dui, dvi, ui, vi, xi in zip(du, dv, u, v, grid.xs)
    ]
    shell, radial = list(map(mul, phi0, rho)), list(map(mul, grid.xs, rho))
    return tuple(_integral(grid, f) for f in (kinetic, shell, radial))


def _trial_summary(b, theta_min, theta_max, n_nodes) -> dict:
    """trial-eval's numbers for the seed pair at scale b on the given grid.

    The same arithmetic, element for element, as model.trial_functions,
    SpinorPair.normalized, functional.kinetic_T and potential_Pi on the
    same Grid, with the same refusals: the grid's, b's, a seed with no
    finite positive norm, and a rescaled pair whose norm is not 1. A seed
    whose energy integrands are not finite on the grid is refused too.
    """
    grid = Grid(theta_min, theta_max, n_nodes)
    check_value("trial scale b", b, 0.0, open_low=True)
    x = grid.xs
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
        norm = math.fsum(wi * (ui * ui + vi * vi) for wi, ui, vi in zip(grid.ws, u, v))
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
    unit = _integral(grid, rho)
    if abs(unit - 1.0) > NORM_TOL:
        raise UnnormalizedStateError(unit, NORM_TOL)
    try:
        T, Pi, radius = _energy(grid, u, v, rho, _phi0(grid, rho))
    except NumericError as exc:
        raise ConfigurationError(
            f"trial scale b = {b!r} gives a seed whose energy integrands are "
            f"not finite on this grid ({exc})"
        ) from exc
    return {
        "b": float(b),
        "norm_before_rescale": norm,
        "T": T,
        "Pi": Pi,
        "a_extremum": -T / Pi,
        "mean_radius": radius,
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


def _fsum(terms) -> float:
    """math.fsum, or nan where it raises: on finite terms whose sum
    overflows, and on inf and -inf together."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.nan


def _sweep(grid: Grid, u, v, phi, k, tol):
    """The max-norm of solver.ode_residual and I_mu of solver.mu_update, in
    one forward sweep over the intervals; None at the first residual not
    below tol, and where the linearization has no solution.

    I_mu = sum_j w_j . z_j is the weighted overlap of (u, v) with the
    frequency direction z that solver.solve_corrections solves for: grid's
    box and boundary rows and the same right-hand side, solved by
    sequential 2x2 block elimination. Block j is the rows (2j, 2j+1) and
    z_j = (u_j, v_j); row 2j reaches block j - 1, and row 2j + 1 reaches
    block j + 1 through up_j. Elimination leaves z_j = g_j - c_j y_j with
    y_j = up_j . z_{j+1}, so the overlap of blocks 0 to j is sigma + tau y_j,
    and the tail block, which reaches no block after it, leaves
    I_mu = sigma. None also where the tail row has no root or a pivot
    block's determinant is zero or not finite.
    """
    x, ws, h = grid.xs, grid.ws, grid.h
    c0, dc0 = _origin_row(k, phi[0])
    try:
        r_end, dr_end = _tail_row(k, phi[-1], x[-1])
    except DegenerateLinearizationError:
        return None
    # row 0 of block 0 is the origin's: -c0 x_0 u_0 + v_0
    b00, b01, f0 = -c0 * x[0], 1.0, dc0 * x[0] * u[0]
    worst = sigma = tau = up0 = up1 = 0.0
    last = len(u) - 1
    for j in range(last + 1):
        if j < last:  # interval j: its first equation is row 1 of block j
            p, q, dp, dq = _coefficients(k, 0.5 * (phi[j + 1] + phi[j]))
            xm = math.sqrt(x[j + 1] * x[j])
            hx = h * xm
            um, vm = 0.5 * (u[j + 1] + u[j]), 0.5 * (v[j + 1] + v[j])
            r_u = abs((u[j + 1] - u[j]) / hx - um / xm - p * vm)
            r_v = abs((v[j + 1] - v[j]) / hx + vm / xm - q * um)
            if not (r_u < tol and r_v < tol):
                return None
            worst = max(worst, r_u, r_v)
            g_a, g_b = 0.5 * hx * p, 0.5 * hx * q
            b10, b11, f1 = -1.0 - 0.5 * h, -g_a, hx * dp * vm
        else:  # the outer Riccati row
            b10, b11, f1 = 1.0, -r_end, dr_end * v[-1]
        det = b00 * b11 - b01 * b10
        if not (math.isfinite(det) and det != 0.0):
            return None
        # z_j = g - c y_j, c the second column of the block's inverse
        c0, c1 = -b01 / det, b00 / det
        g0, g1 = (b11 * f0 - b01 * f1) / det, (b00 * f1 - b10 * f0) / det
        # y_{j-1} = up_{j-1} . z_j, with up_{-1} = 0
        wu, wv = ws[j] * u[j], ws[j] * v[j]
        sigma += tau * (up0 * g0 + up1 * g1) + (wu * g0 + wv * g1)
        tau = -tau * (up0 * c0 + up1 * c1) - (wu * c0 + wv * c1)
        if j < last:  # interval j's second equation is row 0 of block j + 1
            up0, up1 = 1.0 - 0.5 * h, -g_a
            t = (-g_b * c0) + (-1.0 + 0.5 * h) * c1
            b00, b01 = -g_b - t * up0, 1.0 + 0.5 * h - t * up1
            f0 = hx * dq * um - ((-g_b * g0) + (-1.0 + 0.5 * h) * g1)
    return worst, sigma


# a solved state, as _certify and cli's numpy solve return it: coupling,
# frequency, fields, iterations, residual norm, iteration trace, and T, Pi
# and the localization radius of its energy report
_Solved = namedtuple("_Solved", "a k u v phi0 iterations residual trace T Pi radius")


def _certify(cfg, grid: Grid, a, k, snap) -> Optional[_Solved]:
    """The snapshot's pair as the state solved at (a, k), if solve_fixed_a's
    first convergence check certifies it; else None.

    That check on lists of floats: the residual, the potential and the
    artifacts' values are the numpy path's bit for bit, the integrals come
    from math.fsum and I_mu from _sweep's block elimination. The pair is
    certified only when the residual is below tol_residual, |mu| is at most
    half of tol_residual times k, |I_mu| k is at least MU_DENOM_TOL, the fsum
    norm is within 2 eps of 1 (the numpy path keeps a pair within 4 eps of
    its dot-product norm), u has no interior node, the tail row has a root
    and every pivot is finite and non-zero. The caller has checked
    -alpha0 < a < 0, and Grid that no h sqrt(x_j x_{j+1}) underflows.
    """
    u, v, tol = snap.u, snap.v, cfg.tol_residual
    rho = [ui * ui + vi * vi for ui, vi in zip(u, v)]
    norm = _fsum(map(mul, grid.ws, rho))
    if not (0.0 < k < math.inf and abs(norm - 1.0) <= 2.0 * sys.float_info.epsilon):
        return None
    phi0 = _phi0(grid, rho)
    swept = _sweep(grid, u, v, [a * p for p in phi0], k, tol)
    if swept is None:
        return None
    residual, i_mu = swept
    # the thresholds of solve_fixed_a, in units of k: only k^2 a enters
    i_mu_k = abs(i_mu) * k
    if not (MU_DENOM_TOL <= i_mu_k < math.inf and abs(norm / i_mu) <= 0.5 * tol * k):
        return None
    scale = max(map(abs, u))
    core = [z for z in u if abs(z) > NODE_TOL * scale]
    if any((p < 0.0) != (q < 0.0) for p, q in zip(core, core[1:])):
        return None  # a node: solve_fixed_a refuses the state
    T, Pi, radius = _energy(grid, u, v, rho, phi0)
    return _Solved(a, k, u, v, phi0, 0, residual, [], T, Pi, radius / norm)


def _write_state(cfg, grid, solved: _Solved, snapshot_path) -> None:
    """profiles.csv and the snapshot file of a solved state, for solve and
    scan."""
    if "csv" in cfg.formats:
        io_mod.write_profiles_csv(
            _out(cfg, "profiles.csv"), grid, solved.u, solved.v, solved.phi0
        )
    if snapshot_path:  # the grid's bounds, then the state's a, k, u and v
        bounds = (grid.theta_min, grid.theta_max, grid.n_nodes)
        io_mod.save_snapshot(snapshot_path, io_mod.Snapshot(*bounds, *solved[:4]))


def _cmd_solve(args) -> int:
    """solve: the settings, the grid and a --warm-start snapshot are read and
    checked once, here; a pair that _certify accepts is the solved state,
    any other solve is cli's numpy solver's. One writer serves both."""
    cfg = _run_config(args)
    grid = cfg.build_grid()
    a = cfg.a_start if args.a is None else args.a
    k0, snap = 1.0, None
    if args.warm_start:
        snap = io_mod._read_snapshot(args.warm_start)
        bounds = (grid.theta_min, grid.theta_max, grid.n_nodes)
        if (snap.theta_min, snap.theta_max, snap.n_nodes) != bounds:
            raise ConfigurationError(
                "warm-start snapshot grid does not match the requested grid"
            )
        a, k0 = (snap.a if args.a is None else a), snap.k
        if -math.inf < a < 0.0 and snap.a < 0.0:
            # only k^2 a enters the equations, so the snapshot's state is
            # converged at a with k = k_s sqrt(a_s / a); solve_fixed_a
            # refuses any other a. Its own least-squares refit of a warm
            # pair would also find this k, but only to about 1e-9 in k^2 a;
            # the exact form keeps k^2 a on the snapshot's to about 1e-16.
            k0 *= math.sqrt(snap.a / a)
            if not math.isfinite(k0):  # a_s / a overflowed
                raise ConfigurationError(f"coupling a = {a!r} is too close to 0")
    # the summary needs |a| < alpha0, and the bound branch a < 0 (the
    # first checks of solve_fixed_a): refuse any other coupling unsolved
    check_coupling(a, cfg.alpha0)
    check_value("coupling a", a, high=0.0, open_high=True)
    solved = None if snap is None else _certify(cfg, grid, a, k0, snap)
    if solved is None:
        from . import cli  # numpy and the solver stack

        solved = cli._solve(cfg, grid, a, k0, snap)
    a, T, alpha0 = solved.a, solved.T, cfg.alpha0
    if "json" in cfg.formats:  # the values of functional.energy_report
        io_mod.write_summary_json(_out(cfg, "solve_summary.json"), {
            "a": a, "k": solved.k, "iterations": solved.iterations,
            "residual": solved.residual, "T": T, "Pi": solved.Pi,
            "a_extremum": -T / solved.Pi, "E0_over_m0": -T * a / (2.0 * alpha0),
            "e_times_e0": 4.0 * math.pi * a, "delta": a / alpha0,
            "C": (alpha0 - a) / (alpha0 + a), "localization_radius": solved.radius,
        })
    _write_state(cfg, grid, solved, args.snapshot)
    if args.trace and "csv" in cfg.formats:
        io_mod.write_trace_csv(_out(cfg, "trace.csv"), solved.trace)
    print(
        f"solve: a = {a:.6g}, k = {solved.k:.6g}, T = {T:.6g}, "
        f"iterations = {solved.iterations}"
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


# the commands that start on the standard library; solve may load cli
COMMANDS = {"dispersion": _cmd_dispersion, "trial-eval": _cmd_trial_eval,
            "solve": _cmd_solve}


def main(argv: Optional[List[str]] = None) -> int:
    """Parse argv and run its command; scan, and solve unless certified
    here, load cli."""
    args = build_parser().parse_args(argv)
    command = COMMANDS.get(args.command)
    if command is None:
        from . import cli  # numpy and the solver stack

        command = cli.COMMANDS[args.command]
    return run_command(command, args)


def main_entry() -> None:
    sys.exit(main())

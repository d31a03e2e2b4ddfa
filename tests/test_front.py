"""The stdlib-only command line front and the lazy package exports.

dispersion, trial-eval, a certified warm solve, --help and usage errors
must run without importing numpy, and so must building a Grid. The
standard-library linspace and Grid's node and weight lists must give the
doubles of numpy's formulas bit for bit. The warm-start certificate's one
forward sweep must give the residual and I_mu of a two-pass block
elimination, and a negative number after a float flag is its value.
"""

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import solitonscf
from solitonscf import front
from solitonscf import grid as grid_mod
from solitonscf import io as io_mod
from solitonscf import model, solver
from solitonscf.errors import MU_DENOM_TOL, DegenerateLinearizationError
from solitonscf.front import EXIT_OK, EXIT_USAGE, main
from solitonscf.grid import _linspace
from solitonscf.scan import find_a0

LAYERS = ("cli", "scan", "solver", "model", "grid", "functional", "dispersion", "io")

# Runs python -m solitonscf with the given arguments, as runpy would from
# the command line, then reports whether numpy was imported and the exit code.
_RUN_MODULE = """
import json, runpy, sys
sys.argv = ["solitonscf"] + sys.argv[1:]
try:
    runpy.run_module("solitonscf", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
print(json.dumps({"numpy": "numpy" in sys.modules, "exit": code}))
"""


# the child imports the package this test imported, whatever the cwd
_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(os.path.abspath(solitonscf.__file__)))]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    ),
)


def _run(argv, cwd=None):
    return subprocess.run(
        [sys.executable] + argv, capture_output=True, text=True, cwd=cwd, env=_ENV
    )


def _run_module(args, cwd):
    proc = _run(["-c", _RUN_MODULE] + args, cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


@pytest.fixture(scope="module")
def a0_state(tmp_path_factory):
    """The snapshot a default scan writes."""
    out = tmp_path_factory.mktemp("scan")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["scan", "--output-dir", str(out)]) == EXIT_OK
    return out / "a0_state.json"


@pytest.mark.parametrize(
    "args, code",
    [
        (["dispersion", "--e0", "0.15855", "--p-count", "5"], EXIT_OK),
        (["dispersion", "--from-summary", "summary.json"], EXIT_OK),
        (["dispersion", "--e0", "1.0", "--p-count", "0"], EXIT_USAGE),
        (["--help"], EXIT_OK),
        (["dispersion", "--help"], EXIT_OK),
        (["scan", "--no-such-flag"], EXIT_USAGE),
        ([], EXIT_USAGE),
        (["trial-eval", "--grid-nodes", "50"], EXIT_OK),
        (["trial-eval", "--b", "1e300"], EXIT_USAGE),
        (["solve", "--warm-start", "a0_state.json", "--a", "-3.1"], EXIT_OK),
    ],
    ids=[
        "e0",
        "from-summary",
        "bad-count",
        "help",
        "dispersion-help",
        "bad-flag",
        "none",
        "trial-eval",
        "trial-eval-no-seed",
        "warm-solve",
    ],
)
def test_commands_that_compute_nothing_numeric_skip_numpy(
    tmp_path, a0_state, args, code
):
    (tmp_path / "summary.json").write_text('{"E0_over_m0": 0.15855}\n')
    shutil.copy(a0_state, tmp_path / "a0_state.json")
    report, stderr = _run_module(args, tmp_path)
    assert report == {"numpy": False, "exit": code}, stderr


@pytest.mark.parametrize("start", ["cold", "warm"])
@pytest.mark.parametrize(
    "a, message",
    [
        ("-20", "|a| = 20 >= alpha0 = 10: mixing parameters undefined"),
        ("0.5", "coupling a must be finite and negative, got 0.5"),
        ("nan", "coupling a must be finite, got nan"),
        ("-1e400", "coupling a must be finite, got -inf"),
    ],
    ids=["beyond-alpha0", "positive", "nan", "overflow"],
)
def test_a_bad_coupling_is_refused_before_numpy(tmp_path, a0_state, start, a, message):
    argv = ["solve", f"--a={a}"]
    if start == "warm":
        shutil.copy(a0_state, tmp_path / "a0_state.json")
        argv += ["--warm-start", "a0_state.json"]
    report, stderr = _run_module(argv, tmp_path)
    assert report == {"numpy": False, "exit": EXIT_USAGE}, stderr
    assert stderr == f"error: {message}\n"
    written = {p.name for p in tmp_path.iterdir()} - {"a0_state.json"}
    assert written == set()


def test_a_solving_command_loads_numpy(tmp_path):
    report, stderr = _run_module(["solve", "--grid-nodes", "200"], tmp_path)
    assert report == {"numpy": True, "exit": EXIT_OK}, stderr


@pytest.mark.parametrize("case", ["tight-tol", "seed"])
def test_a_warm_solve_that_needs_iterations_loads_numpy(tmp_path, a0_state, case):
    if case == "seed":  # the normalized b = 1 seed, which the solve iterates
        grid = io_mod.RunConfig().build_grid()
        pair = solitonscf.trial_functions(1.0, grid).normalized(grid)
        io_mod.save_snapshot(
            str(tmp_path / "a0_state.json"),
            io_mod.Snapshot(
                grid.theta_min, grid.theta_max, grid.n_nodes, -3.3, 1.0, pair.u, pair.v
            ),
        )
        args = []
    else:
        shutil.copy(a0_state, tmp_path / "a0_state.json")
        args = ["--a", "-3.1", "--tol", "1e-12"]
    argv = ["solve", "--warm-start", "a0_state.json"] + args
    report, stderr = _run_module(argv, tmp_path)
    assert report == {"numpy": True, "exit": EXIT_OK}, stderr


def test_import_cli_loads_every_layer():
    # the benchmark's tracer finds the layer modules in sys.modules after
    # importing solitonscf.cli alone
    code = (
        "import sys, solitonscf.cli; "
        f"print(all('solitonscf.' + m in sys.modules for m in {LAYERS!r}))"
    )
    proc = _run(["-c", code])
    assert proc.stdout.strip() == "True", proc.stderr


def test_scan_through_the_front_does_not_load_cli(tmp_path):
    # front runs every command itself; cli is only the in-process main
    code = (
        "import sys; from solitonscf.front import main; "
        "code = main(['scan', '--format', 'json']); "
        "print(code, 'solitonscf.cli' in sys.modules)"
    )
    proc = _run(["-c", code], tmp_path)
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} False", proc.stderr


def test_commands_are_the_parsers_subcommands():
    parser = front.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(front.COMMANDS) == set(sub.choices)


def test_cli_exports_only_main():
    # the exit codes and entry points are front's, which defines them
    from solitonscf import cli

    assert cli.__all__ == ["main"]


def test_every_export_resolves_to_its_submodule():
    for name in solitonscf.__all__:
        value = getattr(solitonscf, name)
        if name != "__version__":
            module = sys.modules[f"solitonscf.{solitonscf._EXPORTS[name]}"]
            assert value is getattr(module, name)
    assert set(solitonscf.__all__) <= set(dir(solitonscf))
    with pytest.raises(AttributeError, match="no_such_name"):
        solitonscf.no_such_name


def test_exports_follow_a_rebound_submodule_attribute(monkeypatch):
    original = grid_mod.integrate
    assert solitonscf.integrate is original

    def stand_in(values, grid):
        return 0.0

    monkeypatch.setattr(grid_mod, "integrate", stand_in)
    assert solitonscf.integrate is stand_in
    monkeypatch.undo()
    assert solitonscf.integrate is original
    assert "integrate" not in vars(solitonscf)


def _bits(values):
    return [struct.pack("<d", v) for v in values]


@pytest.mark.parametrize(
    "start, stop, num",
    [
        (0.0, 2.0, 41),
        (0.0, 2.0, 1),
        (0.3, 7.0, 1),
        (-0.0, 0.0, 1),
        (1.25, 1.25, 5),
        (1.25, 1.25, 1),
        (0.0, 1e300, 9),
        (0.0, 1.7976931348623157e308, 4),
        (5e-324, 2e-323, 7),          # step 0.5 ulp of the smallest subnormal
        (0.0, 1e-320, 13),
        (0.0, 5e-324, 3),
        (1e-310, 1e-310 + 4e-323, 11),
        (0.1, 0.7, 2),
    ],
)
def test_linspace_matches_numpy_bit_for_bit(start, stop, num):
    # near the top of the range i * step overflows before the last point is
    # set to stop, in both
    with np.errstate(over="ignore"):
        expected = np.linspace(start, stop, num)
    assert _bits(_linspace(start, stop, num)) == _bits(expected)


def test_linspace_matches_numpy_on_random_ranges():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        start, stop = sorted(rng.uniform(0.0, 10.0 ** rng.integers(-300, 300), 2))
        num = int(rng.integers(1, 60))
        assert _bits(_linspace(start, stop, num)) == _bits(
            np.linspace(start, stop, num)
        ), (start, stop, num)


@pytest.mark.parametrize("n_nodes", [500, 2000, 16000])
def test_stdlib_grid_is_grid_x_and_weights_bit_for_bit(n_nodes):
    # the reference: Grid's nodes and weights by numpy's formulas
    cfg = io_mod.RunConfig()
    grid = grid_mod.Grid(cfg.theta_min, cfg.theta_max, n_nodes)
    theta = np.linspace(cfg.theta_min, cfg.theta_max, n_nodes)
    x = np.array([math.exp(t) for t in theta.tolist()])
    h = (cfg.theta_max - cfg.theta_min) / (n_nodes - 1)
    w = np.full(n_nodes, h)
    w[0] = w[-1] = 0.5 * h
    for values, array, expected in (
        (grid.thetas, grid.theta, theta),
        (grid.xs, grid.x, x),
        (grid.ws, grid.quad_weights, w * x),
    ):
        assert _bits(values) == _bits(array) == _bits(expected)
    assert grid.h == h


def test_building_a_grid_imports_no_numpy():
    # and neither does importing model and functional, whose report the
    # certified solve builds
    code = (
        "import sys, solitonscf.model, solitonscf.functional; "
        "from solitonscf.grid import Grid; "
        "from solitonscf.io import RunConfig; c = RunConfig(); "
        "g = Grid(c.theta_min, c.theta_max, c.n_nodes); "
        "print('numpy' in sys.modules, len(g.xs))"
    )
    proc = _run(["-c", code])
    assert proc.stdout.split() == ["False", "2000"], proc.stderr


def test_iteration_state_imports_no_numpy():
    # the certificate returns one without numpy, so its class lives in
    # model, which solver re-exports, and so does the package
    code = (
        "import sys, solitonscf; from solitonscf.model import IterationState; "
        "print('numpy' in sys.modules, solitonscf.IterationState is IterationState)"
    )
    proc = _run(["-c", code])
    assert proc.stdout.split() == ["False", "True"], proc.stderr
    assert solver.IterationState is model.IterationState


def test_a_warm_solve_near_zero_coupling_is_certified(tmp_path, a0_state):
    # only k^2 a enters, so the a0 state is converged at a = -1e-20 too, at
    # k = k_s sqrt(a_s / a) near 1.5e10; the certificate's tolerances scale
    # with k as solve_fixed_a's do
    shutil.copy(a0_state, tmp_path / "a0_state.json")
    argv = ["solve", "--warm-start", "a0_state.json", "--a=-1e-20"]
    report, stderr = _run_module(argv, tmp_path)
    assert report == {"numpy": False, "exit": EXIT_OK}, stderr
    summary = json.loads((tmp_path / "solve_summary.json").read_text())
    assert summary["iterations"] == 0


def _outcome(argv, out):
    """Exit code, stdout and stderr of main(argv) writing to out, in process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv + ["--output-dir", str(out)])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (["solve"], "--a", "-1e-3"),
        (["solve"], "--a", "-2.5e1"),
        (["solve"], "--a", "-nan"),
        (["solve"], "--tau", "-5."),
        (["solve"], "--tol", "-1e-3"),
        (["dispersion"], "--e0", "-inf"),
        (["dispersion", "--e0", "1"], "--p-min", "-5."),
        (["dispersion", "--e0", "1"], "--p-max", "-1e-3"),
        (["trial-eval"], "--b", "-2.5e0"),
    ],
    ids=lambda p: p if isinstance(p, str) else " ".join(p),
)
def test_a_negative_float_flag_value_in_any_spelling(tmp_path, command, flag, value):
    # argparse takes only -N and -N.N for negative numbers; the front's
    # parser takes whatever float() reads, so "--flag V" is "--flag=V"
    spaced = _outcome(command + [flag, value], tmp_path / "spaced")
    joined = _outcome(command + [f"{flag}={value}"], tmp_path / "joined")
    assert spaced == joined
    assert spaced[0] != EXIT_OK and "expected one argument" not in spaced[2]
    assert spaced[2].startswith("error: ")  # the value check's own message


# The certificate's two passes before it became one sweep, kept as the
# reference: every |residual| in a list, then I_mu by forward block
# elimination into a list and a backward pass.
def _reference_residual(grid, u, v, phi, k):
    x, h, kk = grid.xs, grid.h, k * k
    out = []
    for i in range(len(u) - 1):
        phi_m = 0.5 * (phi[i + 1] + phi[i])
        xm = math.sqrt(x[i + 1] * x[i])
        um, vm = 0.5 * (u[i + 1] + u[i]), 0.5 * (v[i + 1] + v[i])
        r_u = (u[i + 1] - u[i]) / (h * xm) - um / xm - (1.0 - kk * phi_m) * vm
        r_v = (v[i + 1] - v[i]) / (h * xm) + vm / xm - (1.0 + kk * phi_m) * um
        out += (abs(r_u), abs(r_v))
    return out


def _reference_i_mu(grid, u, v, phi, k):
    x, h, n, kk = grid.xs, grid.h, len(u), k * k
    pe, qe, de = 1.0 - kk * phi[-1], 1.0 + kk * phi[-1], 2.0 * k * phi[-1]
    disc = 1.0 / (x[-1] * x[-1]) + pe * qe
    if not disc > 0.0:
        return math.nan
    s = math.sqrt(disc)
    r_end = (1.0 / x[-1] - s) / qe
    dr_end = -(pe * de - qe * de) / (2.0 * s) / qe - (1.0 / x[-1] - s) * de / (qe * qe)
    b00, b01 = -(1.0 + kk * phi[0]) / 3.0 * x[0], 1.0
    f0 = 2.0 * k * phi[0] / 3.0 * x[0] * u[0]
    blocks = []
    for j in range(n):
        if j < n - 1:
            phi_m = 0.5 * (phi[j + 1] + phi[j])
            hx = h * math.sqrt(x[j + 1] * x[j])
            g_a, g_b = 0.5 * hx * (1.0 - kk * phi_m), 0.5 * hx * (1.0 + kk * phi_m)
            b10, b11, up0, up1 = -1.0 - 0.5 * h, -g_a, 1.0 - 0.5 * h, -g_a
            f1 = hx * (-2.0 * k * phi_m) * (0.5 * (v[j + 1] + v[j]))
        else:
            b10, b11, up0, up1, f1 = 1.0, -r_end, 0.0, 0.0, dr_end * v[-1]
        det = b00 * b11 - b01 * b10
        if not (math.isfinite(det) and det != 0.0):
            return math.nan
        c0, c1 = -b01 / det, b00 / det
        g0, g1 = (b11 * f0 - b01 * f1) / det, (b00 * f1 - b10 * f0) / det
        blocks.append((c0, c1, g0, g1, up0, up1, grid.ws[j] * u[j], grid.ws[j] * v[j]))
        if j < n - 1:
            t = (-g_b * c0) + (-1.0 + 0.5 * h) * c1
            b00, b01 = -g_b - t * up0, 1.0 + 0.5 * h - t * up1
            f0 = hx * (2.0 * k * phi_m) * (0.5 * (u[j + 1] + u[j]))
            f0 -= (-g_b * g0) + (-1.0 + 0.5 * h) * g1
    z0 = z1 = 0.0
    terms = []
    for c0, c1, g0, g1, up0, up1, wu, wv in reversed(blocks):
        t = up0 * z0 + up1 * z1
        z0, z1 = g0 - t * c0, g1 - t * c1
        terms.append(wu * z0 + wv * z1)
    return front._fsum(terms)


@pytest.fixture(scope="module", params=[700, 2000])
def a0_pair(request):
    """The grid, and the a0 state of a default scan on it as a snapshot."""
    cfg = io_mod.RunConfig()
    grid = grid_mod.Grid(cfg.theta_min, cfg.theta_max, request.param)
    result = find_a0(cfg, grid)
    state = result.solution
    snap = io_mod.Snapshot(
        grid.theta_min, grid.theta_max, grid.n_nodes, result.a0, state.k,
        state.pair.u.tolist(), state.pair.v.tolist(),
    )
    return grid, snap


@pytest.mark.parametrize("a", [-4.4, -3.0, -1.6, -1e-20])
def test_one_sweep_certificate_matches_the_two_pass_elimination(a0_pair, a):
    grid, snap = a0_pair
    u, v = snap.u, snap.v
    rho = [ui * ui + vi * vi for ui, vi in zip(u, v)]
    norm = front._fsum(w * r for w, r in zip(grid.ws, rho))
    phi0 = front._phi0(grid, rho)
    phi = [a * p for p in phi0]
    k_a = snap.k * math.sqrt(snap.a / a)  # the converged frequency at a
    decisions = []
    for k in (k_a, k_a * (1.0 + 1e-9), k_a * (1.0 + 1e-6)):
        residual = _reference_residual(grid, u, v, phi, k)
        i_mu = _reference_i_mu(grid, u, v, phi, k)
        worst, swept_i_mu = front._sweep(grid, u, v, phi, k, math.inf)
        assert worst == max(residual)
        assert swept_i_mu == pytest.approx(i_mu, rel=1e-12, abs=0.0)
        for tol in (1e-8, 1e-10, 1e-12):
            # the two-pass certificate's decision
            expected = (
                all(r < tol for r in residual)
                and MU_DENOM_TOL <= abs(i_mu) * k < math.inf
                and abs(norm / i_mu) <= 0.5 * tol * k
            )
            cfg = io_mod.RunConfig(tol_residual=tol)
            solved = front._certify(cfg, grid, a, k, snap)
            assert (solved is not None) == expected, (k, tol)
            if solved is not None:
                assert solved[0].residual_norm == worst
            decisions.append(expected)
    assert True in decisions and False in decisions


def test_a_pair_with_zero_q_at_the_outer_node_is_not_certified(
    a0_pair, q_zero_coupling
):
    # k^2 phi = -1 at the outer node: the shared tail row refuses it, so the
    # sweep returns None; the two-pass elimination divided by Q = 0
    grid, snap = a0_pair
    rho = [ui * ui + vi * vi for ui, vi in zip(snap.u, snap.v)]
    phi0 = front._phi0(grid, rho)
    a, k = q_zero_coupling(phi0[-1])
    phi = [a * p for p in phi0]
    with pytest.raises(DegenerateLinearizationError):
        grid_mod._tail_row(k, phi[-1], grid.xs[-1])
    with pytest.raises(ZeroDivisionError):
        _reference_i_mu(grid, snap.u, snap.v, phi, k)
    assert front._sweep(grid, snap.u, snap.v, phi, k, math.inf) is None
    assert front._certify(io_mod.RunConfig(), grid, a, k, snap) is None

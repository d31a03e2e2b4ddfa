"""solve --warm-start certified on the standard library against the numpy path.

front._certify runs solve_fixed_a's first convergence check on lists of
floats. Where it certifies the pair, the command must write the artifacts
and the line that the same command writes through front._solve, the numpy
solver, when the certificate declines, byte for byte; where it does not,
the command must end as that numpy path ends it: same exit code, same
message, same files. The snapshot is read once either way.
"""

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from array import array
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from solitonscf import front, solver
from solitonscf import io as io_mod
from solitonscf.front import EXIT_IO, EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_USAGE
from solitonscf.functional import EnergyReport
from solitonscf.model import trial_functions

A_STARTS = (-2.8, -3.3, -3.8)  # scan starts that converge (perfbench/README.md)
COUPLINGS = st.floats(min_value=-4.4, max_value=-1.6)


@pytest.fixture(scope="module")
def scan_snapshots(tmp_path_factory):
    """a0_state.json of a default-grid scan from each of A_STARTS."""
    root = tmp_path_factory.mktemp("scans")
    paths = []
    for a_start in A_STARTS:
        out = root / repr(a_start)
        config = root / f"{a_start!r}.cfg"
        config.write_text(f"a_start = {a_start!r}\n")
        argv = ["scan", "--config", str(config), "--output-dir", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert front.main(argv) == EXIT_OK
        paths.append(str(out / "a0_state.json"))
    return paths


def _outcome(run, argv, out):
    """Exit code, stdout, stderr and the files written to out by one run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(argv + ["--output-dir", out])
    files = {}
    if os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
    return code, stdout.getvalue(), stderr.getvalue(), files


def _numpy_path(argv):
    """The command through front.main with the certificate declining, so
    front._solve solves it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(front, "_certify", lambda *args: None)
        return front.main(argv)


def _both_paths(argv, root):
    """The outcomes of argv through front.main and through the numpy path.

    "{out}" in argv is replaced by each run's own output directory.
    """
    outcomes = []
    for name, run in (("front", front.main), ("numpy", _numpy_path)):
        out = os.path.join(root, name)
        outcomes.append(_outcome(run, [a.format(out=out) for a in argv], out))
    return outcomes


@pytest.fixture
def certified(monkeypatch):
    """Whether each front._certify call certified its pair, in order."""
    results = []
    certify = front._certify

    def recorded(*args):
        solved = certify(*args)
        results.append(solved is not None)
        return solved

    monkeypatch.setattr(front, "_certify", recorded)
    return results


def test_warm_solves_match_the_numpy_path_byte_for_byte(scan_snapshots, certified):
    @settings(database=None, derandomize=True, deadline=None, max_examples=30)
    @given(
        start=st.sampled_from(range(len(A_STARTS))),
        chain=st.lists(COUPLINGS, max_size=2),
        a=COUPLINGS,
        formats=st.sampled_from([[], ["csv"], ["json"], ["csv", "json"]]),
        trace=st.booleans(),
        snapshot=st.booleans(),
    )
    def check(start, chain, a, formats, trace, snapshot):
        with tempfile.TemporaryDirectory() as root:
            warm = scan_snapshots[start]
            for i, step in enumerate(chain):  # chained warm solves
                moved = os.path.join(root, f"step{i}.json")
                argv = ["solve", "--warm-start", warm, "--a", repr(step)]
                argv += ["--snapshot", moved, "--output-dir", root]
                with contextlib.redirect_stdout(io.StringIO()):
                    assert front.main(argv) == EXIT_OK
                warm = moved
            argv = ["solve", "--warm-start", warm, "--a", repr(a)]
            argv += [flag for f in formats for flag in ("--format", f)]
            argv += ["--trace"] * trace
            argv += ["--snapshot", os.path.join("{out}", "state.json")] * snapshot
            via_front, via_numpy = _both_paths(argv, root)
            assert via_front[0] == EXIT_OK
            assert via_front == via_numpy

    check()
    # every state here is converged, so nearly every solve is certified
    assert sum(certified) >= 0.9 * len(certified), certified


def test_solve_summary_is_the_energy_report_and_the_run(
    scan_snapshots, certified, tmp_path
):
    # both paths write functional.EnergyReport's fields and k, iterations
    # and residual, and nothing else
    argv = ["solve", "--warm-start", scan_snapshots[1], "--a", "-4.1"]
    keys = {f.name for f in fields(EnergyReport)} | {"k", "iterations", "residual"}
    for code, _, _, files in _both_paths(argv, str(tmp_path)):
        assert code == EXIT_OK
        assert json.loads(files["solve_summary.json"]).keys() == keys
    assert certified == [True]


@pytest.mark.parametrize("a", [-4.1, -2.5])
def test_the_certificate_returns_the_numpy_solves_record(scan_snapshots, a):
    # the a0 pair at a transported k: both routes return an IterationState
    # and its EnergyReport, equal but for the last bits of last_mu (the
    # elimination orders differ) and of the radius (fsum against a dot)
    cfg = io_mod.RunConfig()
    grid = cfg.build_grid()
    snap = io_mod._read_snapshot(scan_snapshots[1])
    k = snap.k * math.sqrt(snap.a / a)
    (cert, cert_report), (state, report) = (
        solve(cfg, grid, a, k, snap) for solve in (front._certify, front._solve)
    )
    for name in ("a", "k", "iteration", "residual_norm", "trace"):
        assert getattr(cert, name) == getattr(state, name), name
    for got, expected in (
        (cert.pair.u, state.pair.u),
        (cert.pair.v, state.pair.v),
        (cert.field.phi0, state.field.phi0),
    ):
        assert array("d", got).tobytes() == array("d", expected).tobytes()
    assert cert.last_mu == pytest.approx(state.last_mu, rel=1e-4, abs=0.0)
    for mu in (cert.last_mu, state.last_mu):
        assert abs(mu) <= 0.5 * cfg.tol_residual * k
    for name in ("T", "Pi", "E0_over_m0"):
        assert getattr(cert_report, name) == getattr(report, name), name
    assert cert_report.localization_radius == pytest.approx(
        report.localization_radius, rel=1e-15, abs=0.0
    )


def _save(path, a, k, u, v):
    """A snapshot of the pair (u, v) at (a, k) on the default grid."""
    grid = io_mod.RunConfig().build_grid()
    bounds = (grid.theta_min, grid.theta_max, grid.n_nodes)
    io_mod.save_snapshot(path, io_mod.Snapshot(*bounds, a, k, u, v))


def _seed_snapshot(path):
    """The normalized seed pair at b = 1 on the default grid, as a snapshot."""
    grid = io_mod.RunConfig().build_grid()
    pair = trial_functions(1.0, grid).normalized(grid)
    _save(path, -3.3, 1.0, pair.u, pair.v)


def _one_node_snapshot(path):
    """The converged state whose u has one interior node: a cold solve at
    -4.3 with the node check off, as in test_solver's one-node regression."""
    grid = io_mod.RunConfig().build_grid()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "count_nodes", lambda values: 0)
        state = solver.solve_fixed_a(-4.3, grid, k0=1.0)
    _save(path, -4.3, state.k, state.pair.u, state.pair.v)


def _overflow_snapshot(path):
    """u = v = 3e153 on the last 20 nodes, 0 elsewhere: each density term
    is finite, but their fsum overflows."""
    n = io_mod.RunConfig().n_nodes
    u = [0.0] * (n - 20) + [3e153] * 20
    _save(path, -3.3, 1.0, u, list(u))


def _rescaled(src, path, pair_scale=1.0, k_scale=1.0):
    """The snapshot at src with its pair times pair_scale and its k times
    k_scale."""
    snap = io_mod._read_snapshot(src)
    u, v = ([pair_scale * z for z in f] for f in (snap.u, snap.v))
    io_mod.save_snapshot(path, replace(snap, k=k_scale * snap.k, u=u, v=v))


def _corrupt(path):
    """The snapshot at path with one digit of its checksum changed."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    at = text.index('"checksum": "') + len('"checksum": "')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text[:at] + "0123456789abcdef"[int(text[at], 16) ^ 1] + text[at + 1 :])


# flags after --warm-start, exit code and a part of the message
_UNCERTIFIED = {
    "grid-mismatch": (["--grid-nodes", "400"], EXIT_USAGE, "grid does not match"),
    "beyond-alpha0": (["--a", "-10.5"], EXIT_USAGE, ">= alpha0"),
    "non-negative-a": (["--a", "0.5"], EXIT_USAGE, "finite and negative"),
    "corrupt": (["--a", "-3.1"], EXIT_IO, "checksum mismatch"),
    "unconverged": (["--config", "{cfg}"], EXIT_NO_CONVERGENCE, "no convergence"),
    "tight-tol": (["--a", "-3.1", "--tol", "1e-12"], EXIT_OK, ""),
    "seed": (["--trace"], EXIT_OK, ""),
    # the certificate's own refusals: the norm (off by 2e-9, or an fsum that
    # overflows), |mu| and the node check. The solver rescales the
    # overflowing pair by its largest value first, and its 20-node spike at
    # the outer edge then diverges
    "off-norm": ([], EXIT_OK, ""),
    "norm-overflow": ([], EXIT_NO_CONVERGENCE, "update produced no valid state"),
    "half-k": (["--tol", "1"], EXIT_OK, ""),
    "one-node": ([], EXIT_NO_CONVERGENCE, "1 interior node(s)"),
}


def _warm_start(case, scan_snapshots, tmp_path):
    """The path of the warm-start snapshot of an _UNCERTIFIED case."""
    warm = str(tmp_path / "warm.json")
    a0_state = scan_snapshots[1]
    if case in ("unconverged", "seed"):
        _seed_snapshot(warm)
    elif case == "one-node":
        _one_node_snapshot(warm)
    elif case == "norm-overflow":
        _overflow_snapshot(warm)
    elif case == "off-norm":  # its norm is 1 + 2e-9, not within 2 eps of 1
        _rescaled(a0_state, warm, pair_scale=1.0 + 1e-9)
    elif case == "half-k":  # its residual is below 1, |mu| above tol k / 2
        _rescaled(a0_state, warm, k_scale=0.5)
    else:
        shutil.copyfile(a0_state, warm)
    if case == "corrupt":
        _corrupt(warm)
    return warm


@pytest.mark.parametrize("case", sorted(_UNCERTIFIED))
def test_an_uncertified_warm_solve_ends_as_the_numpy_path(
    scan_snapshots, certified, tmp_path, case
):
    extra, code, message = _UNCERTIFIED[case]
    warm = _warm_start(case, scan_snapshots, tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_iterations = 2\n")
    argv = ["solve", "--warm-start", warm] + [a.format(cfg=cfg) for a in extra]
    argv += ["--snapshot", os.path.join("{out}", "state.json")]
    via_front, via_numpy = _both_paths(argv, str(tmp_path))
    assert via_front == via_numpy
    assert via_front[0] == code
    assert message in via_front[2]
    # the front certified nothing; the refusals before its check raised
    assert not any(certified)


@pytest.mark.parametrize("case", ["seed", "tight-tol"])
def test_an_uncertified_warm_solve_reads_its_snapshot_once(
    scan_snapshots, certified, tmp_path, monkeypatch, case
):
    # the certificate declines and the numpy solver starts from the pair
    # already read, so neither parses the file again
    warm = _warm_start(case, scan_snapshots, tmp_path)
    reads = []
    read = io_mod._read_snapshot

    def counted(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(io_mod, "_read_snapshot", counted)
    argv = ["solve", "--warm-start", warm] + _UNCERTIFIED[case][0]
    with contextlib.redirect_stdout(io.StringIO()):
        assert front.main(argv + ["--output-dir", str(tmp_path / "out")]) == EXIT_OK
    assert certified == [False]
    assert reads == [warm]


def test_a_grid_whose_squares_underflow_ends_as_the_numpy_path(
    certified, monkeypatch, tmp_path
):
    # below x = 1e-162, x_0 x_1 underflows to 0 and the box rows would divide
    # by zero: the grid check refuses the bounds (exit 2) on both paths alike,
    # before the snapshot is read or a solve starts
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("theta_min = -400.0\ntheta_max = -380.0\nn_nodes = 200\n")
    warm = str(tmp_path / "tiny.json")
    u = [math.exp(-(((i - 100) / 30.0) ** 2)) for i in range(200)]
    snap = io_mod.Snapshot(-400.0, -380.0, 200, -3.3, 1.0, u, [0.1 * x for x in u])
    io_mod.save_snapshot(warm, snap)
    reads = []
    monkeypatch.setattr(io_mod, "_read_snapshot", reads.append)
    argv = ["solve", "--config", str(cfg), "--warm-start", warm]
    via_front, via_numpy = _both_paths(argv, str(tmp_path))
    assert via_front == via_numpy
    code, stdout, stderr, files = via_front
    assert (code, stdout, files) == (EXIT_USAGE, "", {})
    assert stderr.startswith("error: grid (-400.0, -380.0, 200 nodes) has a first interval")
    assert reads == [] and certified == []

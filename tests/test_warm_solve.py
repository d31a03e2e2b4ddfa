"""solve --warm-start certified on the standard library against the numpy path.

front._certify runs solve_fixed_a's first convergence check on lists of
floats. Where it certifies the pair, the command must write the artifacts
and the line that the same command writes through cli._solve, the numpy
solver, when the certificate declines, byte for byte; where it does not,
the command must end as that numpy path ends it: same exit code, same
message, same files. The snapshot is read once either way.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from solitonscf import front
from solitonscf import io as io_mod
from solitonscf.front import EXIT_IO, EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_USAGE
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
    cli._solve solves it."""
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


def _seed_snapshot(path):
    """The normalized seed pair at b = 1 on the default grid, as a snapshot."""
    grid = io_mod.RunConfig().build_grid()
    pair = trial_functions(1.0, grid).normalized(grid)
    io_mod.save_snapshot(
        path,
        io_mod.Snapshot(
            grid.theta_min, grid.theta_max, grid.n_nodes, -3.3, 1.0, pair.u, pair.v
        ),
    )


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
}


def _warm_start(case, scan_snapshots, tmp_path):
    """The path of the warm-start snapshot of an _UNCERTIFIED case."""
    warm = str(tmp_path / "warm.json")
    if case in ("unconverged", "seed"):
        _seed_snapshot(warm)
    else:
        with open(scan_snapshots[1], "rb") as src, open(warm, "wb") as dst:
            dst.write(src.read())
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

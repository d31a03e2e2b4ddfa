"""Property tests of the command line over arbitrary dispersion, trial-eval,
solve and scan inputs."""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from solitonscf import front
from solitonscf import io as io_mod
from solitonscf.cli import main
from solitonscf.front import (
    EXIT_IO,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_SCAN_FAILURE,
    EXIT_USAGE,
)
from solitonscf.model import trial_functions

# every command runs with warnings as errors: a numpy warning on the way to
# an exit code is a defect the exit code hides
pytestmark = pytest.mark.filterwarnings("error")

_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**400), max_value=10**400),
    _FLOATS,
    st.sampled_from(["", "0.158", "nan", "1e400"]),
    st.lists(_FLOATS, max_size=2),
)
_SUMMARIES = st.one_of(
    _JSON_VALUES,
    st.fixed_dictionaries({"E0_over_m0": _JSON_VALUES}),
    st.dictionaries(st.sampled_from(["", "E0", "a0"]), _JSON_VALUES, max_size=2),
)

_SHORT_TABLE = {"p_min": 0.0, "p_max": 2.0, "p_count": 3}


def _refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@settings(database=None, derandomize=True, deadline=None)
@given(
    source=st.one_of(
        st.tuples(st.just("e0"), _FLOATS),
        st.tuples(st.just("summary"), _SUMMARIES),
    ),
    p_min=_FLOATS,
    p_max=_FLOATS,
    p_count=st.integers(min_value=-2, max_value=64),
)
# P * P overflows, the energy overflows, a summary root that is no object,
# a bool and an integer beyond the float range in place of E0
@example(source=("e0", 1.0), p_min=0.0, p_max=1e200, p_count=3)
@example(source=("e0", 1.5e308), p_min=1.5e308, p_max=1.5e308, p_count=1)
@example(source=("summary", 3), **_SHORT_TABLE)
@example(source=("summary", {"E0_over_m0": True}), **_SHORT_TABLE)
@example(source=("summary", {"E0_over_m0": 10**400}), **_SHORT_TABLE)
def test_dispersion_exits_cleanly_on_any_input(source, p_min, p_max, p_count):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run")
        kind, value = source
        if kind == "e0":
            argv = [f"--e0={value!r}"]
        else:
            path = os.path.join(tmp, "scan_summary.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(value, fh)
            argv = ["--from-summary", path]
        code = main(
            ["dispersion"] + argv
            + [f"--p-min={p_min!r}", f"--p-max={p_max!r}", f"--p-count={p_count}"]
            + ["--output-dir", out]
        )
        assert code in (EXIT_OK, EXIT_USAGE)
        if code != EXIT_OK:
            return
        summary_path = os.path.join(out, "dispersion_summary.json")
        with open(summary_path, encoding="utf-8") as fh:
            summary = json.load(fh, parse_constant=_refuse_constant)
        assert summary["rows"] == p_count
        with open(os.path.join(out, "dispersion.csv"), encoding="utf-8") as fh:
            header, *rows = fh.read().splitlines()
        assert header == "P,E_electron,E_positron,L,K,velocity"
        assert len(rows) == p_count
        for row in rows:
            values = [float(cell) for cell in row.split(",")]
            assert len(values) == 6 and all(math.isfinite(v) for v in values)


_NODES_RUN = 64  # larger grids are drawn only where a refusal comes first
_BAD_TAU = st.one_of(
    st.floats(max_value=0.0),
    st.floats(min_value=1.0, exclude_min=True),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@settings(database=None, derandomize=True, deadline=None, max_examples=150)
@given(
    b=st.one_of(st.none(), st.floats(min_value=1e-3, max_value=1e3), _FLOATS),
    tol=st.one_of(st.none(), _FLOATS),
    grid=st.one_of(
        st.tuples(
            st.one_of(st.none(), st.integers(min_value=-2, max_value=_NODES_RUN)),
            st.one_of(
                st.none(), st.floats(min_value=0.0, max_value=1.0), _FLOATS
            ),
        ),
        # tau is checked before any grid is built, so this grid never is
        st.tuples(st.integers(min_value=_NODES_RUN + 1, max_value=10**30), _BAD_TAU),
    ),
)
# the seed overflows, underflows, or leaves a rescaled norm off 1
@example(b=1e300, tol=None, grid=(None, None))
@example(b=1e-300, tol=None, grid=(None, None))
@example(b=1e-109, tol=None, grid=(_NODES_RUN, None))
@example(b=None, tol=None, grid=(10**12, 2.0))
def test_trial_eval_exits_cleanly_on_any_input(b, tol, grid):
    grid_nodes, tau = grid
    argv = ["trial-eval"]
    for flag, value in (("--b", b), ("--tol", tol), ("--tau", tau)):
        if value is not None:
            argv.append(f"{flag}={value!r}")
    if grid_nodes is not None:
        argv.append(f"--grid-nodes={grid_nodes}")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run")
        code = main(argv + ["--output-dir", out])
        assert code in (EXIT_OK, EXIT_USAGE)
        summary_path = os.path.join(out, "trial_summary.json")
        if code != EXIT_OK:
            assert not os.path.exists(summary_path)
            return
        assert grid_nodes is None or grid_nodes <= _NODES_RUN
        with open(summary_path, encoding="utf-8") as fh:
            summary = json.load(fh, parse_constant=_refuse_constant)
        assert sorted(summary) == [
            "Pi", "T", "a_extremum", "b", "mean_radius", "norm_before_rescale"
        ]
        assert all(math.isfinite(value) for value in summary.values())


# the exit codes of the commands that solve
_SOLVE_EXITS = (EXIT_OK, EXIT_USAGE, EXIT_NO_CONVERGENCE, EXIT_SCAN_FAILURE, EXIT_IO)
_NODES_SOLVE = 300  # the warm starts' grid; no solving command draws a larger one
# NaN, the infinities, zero, positive, beyond alpha0 = 10, and tiny
_BAD_COUPLINGS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, -10.0, -10.5, -1e300,
     -5e-324, -1e-300, -1e-9]
)
# per argument: the values that should solve (None leaves it unset), and
# any value
_ARGUMENTS = {
    "--a": (
        st.one_of(st.none(), st.floats(min_value=-9.9, max_value=-0.5)),
        st.one_of(_BAD_COUPLINGS, st.floats(min_value=-12.0, max_value=1.0)),
    ),
    "--tau": (st.one_of(st.none(), st.floats(min_value=0.05, max_value=1.0)), _FLOATS),
    "--tol": (st.sampled_from([None, 1e-12, 1e-8, 1e-4]), _FLOATS),
    "--grid-nodes": (
        st.just(_NODES_SOLVE), st.integers(min_value=-2, max_value=_NODES_SOLVE)
    ),
    "a_start": (
        st.one_of(st.none(), st.floats(min_value=-4.4, max_value=-1.6)),
        st.one_of(_BAD_COUPLINGS, st.floats(min_value=-12.0, max_value=1.0)),
    ),
    "trial_b": (
        st.one_of(st.none(), st.floats(min_value=0.5, max_value=2.0)),
        st.one_of(st.sampled_from([math.nan, math.inf, 0.0, 1e-300, 1e300]), _FLOATS),
    ),
}


def _draw_arguments(data, names):
    """name -> value for each of names; at most two are drawn from any
    value, the rest from the values that should solve."""
    wild = data.draw(st.sets(st.sampled_from(names), max_size=2))
    return {
        name: data.draw(_ARGUMENTS[name][name in wild], label=name) for name in names
    }


def _flags(values):
    return [f"{name}={value!r}" for name, value in values.items() if value is not None]


def _numbers(value):
    """The numbers in a parsed JSON value; strings are skipped."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif not isinstance(value, str):
        yield value


def _assert_clean_artifacts(out):
    """Every artifact in out is strict JSON with finite numbers, or a CSV
    table whose every cell is a finite number."""
    for name in os.listdir(out):
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            if name.endswith(".json"):
                numbers = list(_numbers(json.load(fh, parse_constant=_refuse_constant)))
                assert all(math.isfinite(x) for x in numbers), name
            else:
                assert name.endswith(".csv"), name
                header, *rows = fh.read().splitlines()
                width = len(header.split(","))
                for row in rows:
                    cells = [float(cell) for cell in row.split(",")]
                    assert len(cells) == width
                    assert all(math.isfinite(x) for x in cells), name


@pytest.fixture(scope="module")
def warm_starts(tmp_path_factory):
    """Snapshots by kind: the converged state and the seed pair on the
    _NODES_SOLVE grid, a corrupt file, and the seed on another grid."""
    root = tmp_path_factory.mktemp("warm")
    out = str(root / "scan")
    assert main(["scan", f"--grid-nodes={_NODES_SOLVE}", "--output-dir", out]) == 0
    paths = {"converged": os.path.join(out, "a0_state.json")}
    for kind, n_nodes in (("seed", _NODES_SOLVE), ("mismatch", 250)):
        grid = io_mod.RunConfig(n_nodes=n_nodes).build_grid()
        pair = trial_functions(1.0, grid).normalized(grid)
        paths[kind] = str(root / f"{kind}.json")
        io_mod.save_snapshot(
            paths[kind],
            io_mod.Snapshot(
                grid.theta_min, grid.theta_max, n_nodes, -3.3, 1.0, pair.u, pair.v
            ),
        )
    with open(paths["converged"], encoding="utf-8") as fh:
        text = fh.read()
    paths["corrupt"] = str(root / "corrupt.json")
    with open(paths["corrupt"], "w", encoding="utf-8") as fh:
        fh.write(text.replace('"checksum": "', '"checksum": "0', 1))  # a mismatch
    return paths


@settings(database=None, derandomize=True, deadline=None, max_examples=100)
@given(
    data=st.data(),
    warm=st.sampled_from([None, "converged", "seed", "corrupt", "mismatch"]),
    trace=st.booleans(),
)
def test_solve_exits_cleanly_on_any_input(warm_starts, data, warm, trace):
    values = _draw_arguments(data, ["--a", "--tau", "--tol", "--grid-nodes"])
    argv = ["solve"] + _flags(values) + ["--trace"] * trace
    if warm is not None:
        argv += ["--warm-start", warm_starts[warm]]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run")
        argv += ["--snapshot", os.path.join(out, "state.json")]
        code = main(argv + ["--output-dir", out])
        assert code in _SOLVE_EXITS
        if code != EXIT_OK:
            return
        assert os.path.exists(os.path.join(out, "state.json"))
        _assert_clean_artifacts(out)


@settings(database=None, derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_scan_exits_cleanly_on_any_input(data):
    values = _draw_arguments(
        data, ["a_start", "trial_b", "--tau", "--tol", "--grid-nodes"]
    )
    flags = _flags({k: v for k, v in values.items() if k.startswith("--")})
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            for key in ("a_start", "trial_b"):
                if values[key] is not None:
                    fh.write(f"{key} = {values[key]!r}\n")
        out = os.path.join(tmp, "run")
        code = main(["scan"] + flags + ["--config", config, "--output-dir", out])
        assert code in _SOLVE_EXITS
        if code != EXIT_OK:
            return
        with open(os.path.join(out, "scan_summary.json"), encoding="utf-8") as fh:
            assert json.load(fh)["warnings"] == []
        _assert_clean_artifacts(out)


# a change of the converged warm pair: (kind, exponent s, slice start, slice
# length, noise seed); scale multiplies both fields by 10^s, set puts 10^s in
# a slice of both, zero clears a slice of both, noise adds 10^s times a
# standard normal draw to each value
_PERTURBATIONS = st.tuples(
    st.sampled_from(["scale", "set", "zero", "flip-v", "swap", "noise"]),
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=0, max_value=_NODES_SOLVE - 1),
    st.integers(min_value=1, max_value=_NODES_SOLVE),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def _perturbed(snap, change):
    """The fields of snap after change, a draw of _PERTURBATIONS."""
    kind, s, start, length, seed = change
    u, v = snap.u.copy(), snap.v.copy()
    part = slice(start, start + length)
    if kind == "scale":
        u, v = u * 10.0**s, v * 10.0**s
    elif kind == "set":
        u[part] = v[part] = 10.0**s
    elif kind == "zero":
        u[part] = v[part] = 0.0
    elif kind == "flip-v":
        v = -v
    elif kind == "swap":
        u, v = v, u
    else:
        noise = np.random.default_rng(seed).standard_normal((2, u.size))
        u, v = u + 10.0**s * noise[0], v + 10.0**s * noise[1]
    return u, v


def _solve_outcome(argv, out, certify):
    """Exit code, stdout, stderr and files of main(argv) writing to out;
    certify=False declines every warm pair, so the numpy solver runs."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        if not certify:
            patch.setattr(front, "_certify", lambda *args: None)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--output-dir", out])
    files = {}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return code, stdout.getvalue(), stderr.getvalue(), files


@settings(database=None, derandomize=True, deadline=None, max_examples=60)
@given(
    change=_PERTURBATIONS,
    a=st.sampled_from([None, -4.1, -3.3, -1e-3, -9.0]),
)
# u^2 + v^2 underflows to 0 or overflows, the pair is all zero, and a
# 20-node spike whose density is finite but whose integral overflows
@example(change=("scale", -250, 0, 1, 0), a=None)
@example(change=("scale", 160, 0, 1, 0), a=-3.3)
@example(change=("zero", 0, 0, _NODES_SOLVE, 0), a=None)
@example(change=("set", 153, _NODES_SOLVE - 20, 20, 0), a=None)
def test_solve_from_a_drawn_warm_pair_ends_cleanly(warm_starts, change, a):
    snap = io_mod.load_snapshot(warm_starts["converged"])
    u, v = _perturbed(snap, change)
    with tempfile.TemporaryDirectory() as tmp:
        warm = os.path.join(tmp, "warm.json")
        io_mod.save_snapshot(warm, io_mod.Snapshot(
            snap.theta_min, snap.theta_max, snap.n_nodes, snap.a, snap.k, u, v
        ))
        argv = ["solve", f"--grid-nodes={_NODES_SOLVE}", "--warm-start", warm]
        argv += [] if a is None else [f"--a={a!r}"]
        outs = [os.path.join(tmp, name) for name in ("front", "numpy")]
        via_front = _solve_outcome(argv, outs[0], certify=True)
        via_numpy = _solve_outcome(argv, outs[1], certify=False)
        assert via_front == via_numpy
        assert via_front[0] in _SOLVE_EXITS
        if via_front[0] == EXIT_OK:
            _assert_clean_artifacts(outs[0])
        else:
            assert via_front[3] == {}

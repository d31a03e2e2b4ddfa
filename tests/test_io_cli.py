"""Config parsing, snapshots, artifact writers, and the command line."""

import filecmp
import hashlib
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from solitonscf import cli as cli_mod
from solitonscf import errors as errors_mod
from solitonscf import front
from solitonscf import grid as grid_mod
from solitonscf import io as io_mod
from solitonscf import model, solver
from solitonscf.cli import main
from solitonscf.errors import (
    ConfigurationError,
    CorruptSnapshotError,
    NumericError,
    ShapeError,
    UnsupportedSnapshotError,
)
from solitonscf.front import (
    EXIT_IO,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_SCAN_FAILURE,
    EXIT_USAGE,
    OUTPUT_DIR_ENV,
)
from solitonscf.grid import build_grid
from solitonscf.scan import ScanConfig, find_a0

# ---------------------------------------------------------------------------
# run configuration


def test_run_config_defaults():
    cfg = io_mod.RunConfig()
    # exact: repr compares type and bits, and the grid, and every artifact
    # built on it, must keep numpy's bits
    defaults = {
        "a_start": -3.3,
        "tol_k": 1e-6,
        "trial_b": 1.0,
        "tau": 0.5,
        "tol_residual": 1e-8,
        "max_iterations": 200,
        "theta_min": float(np.log(1e-6)),
        "theta_max": float(np.log(80.0)),
        "n_nodes": 2000,
        "alpha0": 10.0,
        "output_dir": ".",
        "formats": {"csv", "json"},
    }
    assert [f.name for f in fields(cfg)] == list(defaults)
    for name, value in defaults.items():
        assert repr(getattr(cfg, name)) == repr(value), name
    grid = cfg.build_grid()
    assert grid.n_nodes == 2000


def test_run_config_defaults_match_the_solver_and_scan_defaults():
    # the solver and the scan build their config under their own names;
    # each must start from the run defaults. repr compares type and bits
    run = io_mod.RunConfig()
    for cfg in (solver.SolverConfig(), ScanConfig()):
        assert [f.name for f in fields(cfg)] == [f.name for f in fields(run)]
        for f in fields(cfg):
            assert repr(getattr(run, f.name)) == repr(getattr(cfg, f.name)), f.name


def test_one_config_type_under_three_names():
    assert solver.SolverConfig is ScanConfig is io_mod.RunConfig
    # keyword-only: a positional value names no field
    with pytest.raises(TypeError):
        io_mod.RunConfig(-3.0)
    with pytest.raises(TypeError):
        solver.SolverConfig(0.3)
    assert solver.SolverConfig(tau=0.3) == io_mod.RunConfig(tau=0.3)


def test_no_setting_without_effect():
    # the snapshot's format version is the writer's constant, not a field,
    # and a config file is read on top of the defaults only
    assert "format_version" not in {f.name for f in fields(io_mod.Snapshot)}
    assert list(inspect.signature(io_mod.load_config).parameters) == ["path"]


def test_no_name_without_a_reader():
    # each of these was read by tests only, or handled like another name
    assert "norm_error" not in {f.name for f in fields(solver.IterationState)}
    assert not hasattr(errors_mod, "StepRejectedError")
    assert list(inspect.signature(find_a0).parameters) == ["config", "grid"]
    assert not hasattr(io_mod.Snapshot, "grid")
    assert not hasattr(model, "make_field")


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "n_nodes = 700\n"
        "a_start = -2.5   # inline comment\n"
        "tol_k = 1e-7\n"
        "formats = json\n"
        "output_dir = out\n"
        "\n"
    )
    cfg = io_mod.load_config(str(path))
    assert cfg.n_nodes == 700
    assert cfg.a_start == -2.5
    assert cfg.tol_k == 1e-7
    assert cfg.formats == {"json"}
    assert cfg.output_dir == "out"
    # untouched fields keep their defaults
    assert cfg.tau == 0.5


@pytest.mark.parametrize(
    "text",
    [
        "mystery_key = 3\n",
        "n_nodes = many\n",
        "tau 0.5\n",
        "formats = xml\n",
        "formats = \n",
        "output_dir = a\0b\n",  # open() would refuse the path with ValueError
    ],
)
def test_load_config_rejects(tmp_path, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigurationError):
        io_mod.load_config(str(path))


# ---------------------------------------------------------------------------
# snapshots


def _sample_snapshot(n=40):
    rng = np.random.default_rng(7)
    return io_mod.Snapshot(
        theta_min=float(np.log(1e-6)),
        theta_max=float(np.log(80.0)),
        n_nodes=n,
        a=-2.3,
        k=0.912345678901234567,
        u=rng.standard_normal(n),
        v=rng.standard_normal(n),
    )


def test_snapshot_round_trip_is_bit_exact(tmp_path):
    snap = _sample_snapshot()
    path = tmp_path / "state.json"
    io_mod.save_snapshot(str(path), snap)
    back = io_mod.load_snapshot(str(path))
    assert back.k == snap.k and back.a == snap.a
    assert np.array_equal(back.u, snap.u)
    assert np.array_equal(back.v, snap.v)
    assert back.n_nodes == snap.n_nodes
    # a second save of the loaded state reproduces the file byte for byte
    path2 = tmp_path / "state2.json"
    io_mod.save_snapshot(str(path2), back)
    assert path.read_bytes() == path2.read_bytes()


def test_snapshot_detects_truncation(tmp_path):
    path = tmp_path / "state.json"
    io_mod.save_snapshot(str(path), _sample_snapshot())
    raw = path.read_text()
    path.write_text(raw[: len(raw) // 2])
    with pytest.raises(CorruptSnapshotError):
        io_mod.load_snapshot(str(path))


def test_snapshot_detects_tampering(tmp_path):
    path = tmp_path / "state.json"
    io_mod.save_snapshot(str(path), _sample_snapshot())
    payload = json.loads(path.read_text())
    payload["u"][0] += 1.0
    path.write_text(json.dumps(payload, sort_keys=True))
    with pytest.raises(CorruptSnapshotError):
        io_mod.load_snapshot(str(path))


def test_snapshot_detects_missing_keys(tmp_path):
    path = tmp_path / "state.json"
    io_mod.save_snapshot(str(path), _sample_snapshot())
    payload = json.loads(path.read_text())
    del payload["k"]
    path.write_text(json.dumps(payload, sort_keys=True))
    with pytest.raises(CorruptSnapshotError):
        io_mod.load_snapshot(str(path))


def test_snapshot_rejects_unknown_version(tmp_path):
    path = tmp_path / "state.json"
    io_mod.save_snapshot(str(path), _sample_snapshot())
    payload = json.loads(path.read_text())
    payload["format_version"] = 2
    path.write_text(json.dumps(payload, sort_keys=True))
    with pytest.raises(UnsupportedSnapshotError):
        io_mod.load_snapshot(str(path))


def test_snapshot_rejects_boolean_version(tmp_path):
    # true == 1 in Python, but a JSON true is no format version
    path = tmp_path / "state.json"
    _mistyped_snapshot(path, "format_version", True)
    with pytest.raises(UnsupportedSnapshotError):
        io_mod.load_snapshot(str(path))


def test_snapshot_rejects_shape_mismatch(tmp_path):
    path = tmp_path / "state.json"
    io_mod.save_snapshot(str(path), _sample_snapshot())
    payload = json.loads(path.read_text())
    payload["u"] = payload["u"][:-1]
    payload["checksum"] = _reference_checksum(payload)
    path.write_text(json.dumps(payload, sort_keys=True))
    with pytest.raises(CorruptSnapshotError):
        io_mod.load_snapshot(str(path))


# The byte contract, kept here as the reference recipe: the checksum is
# sha256 over the number tokens as written, which json.dumps writes as the
# reprs of the values, and the file is json.dumps of the payload with
# sorted keys and indent 1.

_CANON = ("format_version", "theta_min", "theta_max", "n_nodes", "a", "k", "u", "v")


def _reference_checksum(body):
    def text(key):
        value = body[key]
        if key in ("format_version", "n_nodes"):
            return str(value)
        if isinstance(value, list):
            return ",".join(repr(x) for x in value)
        return repr(value)

    canon = "|".join(text(key) for key in _CANON)
    return hashlib.sha256(canon.encode("ascii")).hexdigest()


def _token_checksum(text):
    """The checksum over the number tokens of a snapshot's text, as written."""
    body = json.loads(text, parse_float=str, parse_int=str)
    canon = "|".join(
        ",".join(body[key]) if isinstance(body[key], list) else body[key]
        for key in _CANON
    )
    return hashlib.sha256(canon.encode("ascii")).hexdigest()


def _with_token_checksum(text):
    """A snapshot's text with its checksum replaced by its token checksum."""
    old = json.loads(text)["checksum"]
    return text.replace(old, _token_checksum(text))


def _reference_snapshot_text(snap):
    payload = {
        "format_version": 1,
        "theta_min": float(snap.theta_min),
        "theta_max": float(snap.theta_max),
        "n_nodes": int(snap.n_nodes),
        "a": float(snap.a),
        "k": float(snap.k),
        "u": [float(x) for x in snap.u],
        "v": [float(x) for x in snap.v],
    }
    payload["checksum"] = _reference_checksum(payload)
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _reference_csv_text(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(repr(float(c)) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


_CONTRACT_ARRAYS = {
    "edge": np.array(
        [-0.0, 5e-324, 1e16, 1e-05, 0.1, np.nan, np.inf, -np.inf, 123456.789, -1e300]
    ),
    "normal": np.random.default_rng(11).standard_normal(257),
    "empty": np.zeros(0),
}


@pytest.mark.parametrize("name", sorted(_CONTRACT_ARRAYS))
@pytest.mark.parametrize("a, k", [(-2.3, 0.912345678901234567), (np.nan, -np.inf)])
def test_snapshot_bytes_match_the_json_recipe(tmp_path, name, a, k):
    values = _CONTRACT_ARRAYS[name]
    snap = io_mod.Snapshot(
        theta_min=-0.0, theta_max=float(np.log(80.0)), n_nodes=values.size,
        a=a, k=k, u=values, v=-values[::-1],
    )
    path = tmp_path / "state.json"
    if np.all(np.isfinite([a, k, *values])):
        io_mod.save_snapshot(str(path), snap)
        assert path.read_text() == _reference_snapshot_text(snap)
    else:
        # no JSON number is non-finite: the writer refuses what the reader would
        with pytest.raises(NumericError, match="must be finite"):
            io_mod.save_snapshot(str(path), snap)
        assert list(tmp_path.iterdir()) == []  # neither the target nor a .tmp-*


@pytest.mark.parametrize("key", ["theta_min", "theta_max", "a", "k", "u", "v"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_save_snapshot_refuses_a_non_finite_value(tmp_path, key, bad):
    snap = _sample_snapshot(5)
    if key in ("u", "v"):
        getattr(snap, key)[2] = bad
    else:
        setattr(snap, key, bad)
    path = tmp_path / "state.json"
    path.write_text("the old state\n")
    with pytest.raises(NumericError, match="must be finite"):
        io_mod.save_snapshot(str(path), snap)
    assert path.read_text() == "the old state\n"
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


@pytest.mark.parametrize("key", ["u", "v"])
def test_save_snapshot_refuses_fields_that_miss_n_nodes(tmp_path, key):
    snap = _sample_snapshot(5)
    setattr(snap, key, getattr(snap, key)[:-1])
    with pytest.raises(ShapeError, match="n_nodes = 5"):
        io_mod.save_snapshot(str(tmp_path / "state.json"), snap)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", sorted(_CONTRACT_ARRAYS))
def test_csv_bytes_match_the_row_recipe(tmp_path, name):
    u = _CONTRACT_ARRAYS[name]
    v = 0.5 * u[::-1]
    x = np.arange(u.size) * 0.25
    phi0 = -u
    path = tmp_path / "profiles.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        io_mod.write_profiles_csv(str(path), SimpleNamespace(xs=x), u, v, phi0)
        rho = u * u + v * v
    assert path.read_text() == _reference_csv_text(
        ("x", "u", "v", "phi0", "rho"), zip(x, u, v, phi0, rho)
    )

    history = [(a, b, i, a * 0.5) for i, (a, b) in enumerate(zip(u, v))]
    hist = tmp_path / "hist.csv"
    io_mod.write_history_csv(str(hist), history)
    assert hist.read_text() == _reference_csv_text(
        ("a", "k", "iterations", "residual"), history
    )


def _numpy_rows_text(header, rows):
    """A row table as the writers laid it out through numpy columns."""
    columns = [np.asarray(col, float).tolist() for col in zip(*rows)]
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


_ROW_CELLS = [0, 13, -0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.1, -2.31241249]


@pytest.mark.parametrize(
    "writer, header",
    [
        (io_mod.write_history_csv, ("a", "k", "iterations", "residual")),
        (io_mod.write_trace_csv, ("iteration", "k", "residual_norm", "mu")),
    ],
)
def test_row_tables_match_the_numpy_recipe(tmp_path, writer, header):
    # row tables are written without numpy; their bytes are the ones the
    # numpy column recipe gives, int counts, -0.0 and the non-finite included
    cells = _ROW_CELLS + [np.float64(0.7), 2**60]
    rows = [
        (i, cells[i], cells[(i + 3) % len(cells)], cells[(i + 7) % len(cells)])
        for i in range(len(cells))
    ]
    path = tmp_path / "rows.csv"
    writer(str(path), rows)
    assert path.read_text() == _numpy_rows_text(header, rows)
    writer(str(path), [])
    assert path.read_text() == ",".join(header) + "\n"


def test_dispersion_table_matches_the_numpy_recipe(tmp_path):
    points = [
        SimpleNamespace(P=p, E_electron=e, E_positron=-e, L=1.0, K=-0.0, velocity=v)
        for p, e, v in zip(_ROW_CELLS, _ROW_CELLS[::-1], _ROW_CELLS[3:] + _ROW_CELLS[:3])
    ]
    path = tmp_path / "dispersion.csv"
    io_mod.write_dispersion_csv(str(path), points)
    header = ("P", "E_electron", "E_positron", "L", "K", "velocity")
    rows = [(p.P, p.E_electron, p.E_positron, p.L, p.K, p.velocity) for p in points]
    assert path.read_text() == _numpy_rows_text(header, rows)


def test_snapshot_nested_too_deep_is_corrupt(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    with pytest.raises(CorruptSnapshotError, match="not valid snapshot JSON"):
        io_mod.load_snapshot(str(path))


def test_snapshot_checksum_over_reprs_of_other_spellings(tmp_path):
    # Valid JSON numbers that are not shortest reprs. The checksum covers
    # the tokens as written, so a checksum over the reprs of the values is
    # refused, and one over the file's own tokens loads, bit-exact.
    values = {
        "format_version": 1, "theta_min": -13.0, "theta_max": 4.0, "n_nodes": 3,
        "a": -2.3, "k": 0.9, "u": [0.5, 1e5, 1e-05], "v": [-0.5, 2.5, 1e-05],
    }
    text = (
        '{"a": -2.30, "checksum": "%s", "format_version": 1, "k": 9E-1, '
        '"n_nodes": 3, "theta_max": 4.0E0, "theta_min": -1.30e1, '
        '"u": [0.50, 1E5, 1.0e-05], "v": [-0.50, 2.5e0, 1e-5]}'
    )
    path = tmp_path / "state.json"
    path.write_text(text % _reference_checksum(values))
    with pytest.raises(CorruptSnapshotError, match="checksum mismatch"):
        io_mod.load_snapshot(str(path))

    path.write_text(_with_token_checksum(text % "old"))
    back = io_mod.load_snapshot(str(path))
    assert (back.theta_min, back.theta_max, back.n_nodes, back.a, back.k) == (
        -13.0, 4.0, 3, -2.3, 0.9
    )
    assert back.u.tolist() == values["u"] and back.v.tolist() == values["v"]
    # the same file with one value changed is refused
    path.write_text(_with_token_checksum(text % "old").replace("0.50,", "0.51,"))
    with pytest.raises(CorruptSnapshotError, match="checksum mismatch"):
        io_mod.load_snapshot(str(path))


def test_snapshot_refuses_an_integer_token(tmp_path):
    # -3 and -3.0 are one value, but a snapshot spells a double with a
    # fraction or an exponent; a token checksum does not make -3 one
    path = tmp_path / "state.json"
    snap = _sample_snapshot()
    snap.a = -3.0
    io_mod.save_snapshot(str(path), snap)
    text = path.read_text()
    assert '"a": -3.0,' in text
    path.write_text(_with_token_checksum(text.replace('"a": -3.0,', '"a": -3,')))
    with pytest.raises(CorruptSnapshotError, match="must be JSON numbers"):
        io_mod.load_snapshot(str(path))


def test_snapshot_with_an_integer_too_long_to_convert_is_corrupt(tmp_path):
    # json raises a bare ValueError for an integer of more than 4300 digits
    path = tmp_path / "state.json"
    path.write_text('{"format_version": 1, "n_nodes": 1%s}' % ("0" * 5000))
    with pytest.raises(CorruptSnapshotError, match="not valid snapshot JSON"):
        io_mod.load_snapshot(str(path))


def _mistyped_snapshot(path, key, value):
    """A snapshot whose `key` holds `value`, with a checksum that agrees."""
    io_mod.save_snapshot(str(path), _sample_snapshot())
    payload = json.loads(path.read_text())
    payload[key] = value(payload[key]) if callable(value) else value
    payload["checksum"] = _reference_checksum(payload)
    path.write_text(json.dumps(payload, sort_keys=True))


_MISTYPED = {
    "u-scalar": ("u", 1.5),
    "u-words": ("u", lambda u: ["abc"] * len(u)),
    "u-strings": ("u", lambda u: [repr(x) for x in u]),
    "u-nan": ("u", lambda u: [float("nan")] + u[1:]),
    "u-bools": ("u", lambda u: [True] * len(u)),
    "a-string": ("a", "x"),
    "a-null": ("a", None),
    "a-huge-int": ("a", -(10**400)),
    "k-inf": ("k", float("inf")),
    "k-bool": ("k", True),
    "n_nodes-string": ("n_nodes", str),
    "n_nodes-float": ("n_nodes", float),
}


@pytest.mark.parametrize("case", sorted(_MISTYPED))
def test_snapshot_rejects_mistyped_values(tmp_path, case):
    key, value = _MISTYPED[case]
    path = tmp_path / "state.json"
    _mistyped_snapshot(path, key, value)
    with pytest.raises(CorruptSnapshotError):
        io_mod.load_snapshot(str(path))


@pytest.mark.parametrize(
    "token", [1, None, True, "1.5", [1.5], {}], ids=lambda t: type(t).__name__
)
def test_snapshot_field_value_that_is_no_json_number_is_mistyped(tmp_path, token):
    # the last value of v, so the checksum's join meets it last
    path = tmp_path / "state.json"
    _mistyped_snapshot(path, "v", lambda v: v[:-1] + [token])
    with pytest.raises(CorruptSnapshotError, match="must be JSON numbers"):
        io_mod.load_snapshot(str(path))


@pytest.mark.parametrize("key", ["u", "v", "k"])
def test_snapshot_rejects_a_number_beyond_the_double_range(tmp_path, key):
    # 1e400 is a JSON number, but no double: it parses to inf
    path = tmp_path / "state.json"
    io_mod.save_snapshot(str(path), _sample_snapshot())
    payload = json.loads(path.read_text())
    if key == "k":
        payload[key] = float("inf")
    else:
        payload[key][1] = float("inf")
    # the checksum covers the 1e400 token as written, so only the finiteness
    # check is left to refuse the file
    text = json.dumps(payload, sort_keys=True).replace("Infinity", "1e400")
    path.write_text(_with_token_checksum(text))
    with pytest.raises(CorruptSnapshotError, match="must be finite"):
        io_mod.load_snapshot(str(path))


def test_snapshot_loads_finite_values_whose_sum_overflows(tmp_path):
    snap = _sample_snapshot(4)
    snap.u = np.array([1.5e308, 1.5e308, -1e308, 5e-324])
    path = tmp_path / "state.json"
    io_mod.save_snapshot(str(path), snap)
    assert io_mod.load_snapshot(str(path)).u.tolist() == snap.u.tolist()


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "sub" / "file.txt"
    io_mod.atomic_write_text(str(target), "payload\n")
    assert target.read_text() == "payload\n"
    leftovers = [p for p in target.parent.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []


def test_atomic_write_follows_umask(tmp_path):
    target = tmp_path / "file.txt"
    old = os.umask(0o022)
    try:
        io_mod.atomic_write_text(str(target), "payload\n")
    finally:
        os.umask(old)
    assert target.stat().st_mode & 0o777 == 0o644


def test_atomic_write_never_changes_the_umask(tmp_path, monkeypatch):
    # the kernel applies the umask to the temporary file as it is created,
    # so no write sets the process umask, which other threads share
    def no_umask(mask):
        raise AssertionError("os.umask called")

    target = tmp_path / "file.txt"
    old = os.umask(0o027)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(os, "umask", no_umask)
            io_mod.atomic_write_text(str(target), "payload\n")

            def pieces():
                yield "partial\n"
                raise RuntimeError("row source failed")

            with pytest.raises(RuntimeError):
                io_mod.atomic_write_text(str(target), pieces())
    finally:
        os.umask(old)
    assert target.stat().st_mode & 0o777 == 0o640
    assert target.read_text() == "payload\n"
    assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]


def test_streamed_write_whose_cleanup_fails_raises_the_writers_error(
    tmp_path, monkeypatch
):
    # the temporary file cannot be removed either: the writer's exception,
    # not the OSError of the cleanup, reaches the caller
    target = tmp_path / "file.txt"
    io_mod.atomic_write_text(str(target), "payload\n")

    def no_unlink(path):
        raise PermissionError(f"cannot remove {path}")

    def pieces():
        yield "partial\n"
        raise RuntimeError("row source failed")

    with monkeypatch.context() as patch:
        patch.setattr(os, "unlink", no_unlink)
        with pytest.raises(RuntimeError, match="row source failed"):
            io_mod.atomic_write_text(str(target), pieces())
    assert target.read_text() == "payload\n"


def test_a_taken_temporary_name_is_drawn_again(tmp_path, monkeypatch):
    # the first name drawn is another file's: it is left as it is, and the
    # write goes through a second name
    taken = tmp_path / (".tmp-" + bytes(8).hex())
    taken.write_text("another writer's\n")
    draws = iter([bytes(8), bytes([1] * 8)])
    target = tmp_path / "file.txt"
    with monkeypatch.context() as patch:
        patch.setattr(os, "urandom", lambda n: next(draws))
        io_mod.atomic_write_text(str(target), "payload\n")
    assert next(draws, None) is None  # both names were drawn
    assert target.read_text() == "payload\n"
    assert taken.read_text() == "another writer's\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "file.txt"]


def test_no_free_temporary_name_refuses_the_write(tmp_path, monkeypatch):
    # every name drawn is taken: after TMP_MAX draws the write gives up,
    # and neither the target nor the other file is touched
    taken = tmp_path / (".tmp-" + bytes(8).hex())
    taken.write_text("another writer's\n")
    target = tmp_path / "file.txt"
    with monkeypatch.context() as patch:
        patch.setattr(os, "urandom", bytes)  # n zero bytes: the taken name
        patch.setattr(io_mod.tempfile, "TMP_MAX", 4)
        with pytest.raises(FileExistsError, match="no free temporary name"):
            io_mod.atomic_write_text(str(target), "payload\n")
    assert taken.read_text() == "another writer's\n"
    assert [p.name for p in tmp_path.iterdir()] == [taken.name]


# ---------------------------------------------------------------------------
# tables and summaries


def test_sig6_rounding():
    assert io_mod._sig6(0.123456789) == 0.123457
    assert io_mod._sig6(1234567.0) == 1234570.0
    assert io_mod._sig6({"a": [1.9999999, "text", 3]}) == {
        "a": [2.0, "text", 3]
    }


def test_summary_json_is_deterministic(tmp_path):
    summary = {"z": 0.123456789, "a": [1.0, 2.0], "n": 7}
    p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
    io_mod.write_summary_json(str(p1), summary)
    io_mod.write_summary_json(str(p2), dict(reversed(list(summary.items()))))
    assert p1.read_bytes() == p2.read_bytes()
    loaded = json.loads(p1.read_text())
    assert list(loaded) == sorted(loaded)
    assert loaded["z"] == 0.123457


def test_csv_writers_round_trip(tmp_path, coarse_grid):
    u = np.exp(-coarse_grid.x)
    v = -0.5 * u
    phi0 = 1.0 / (1.0 + coarse_grid.x)
    path = tmp_path / "profiles.csv"
    io_mod.write_profiles_csv(str(path), coarse_grid, u, v, phi0)
    header = path.read_text().splitlines()[0]
    assert header == "x,u,v,phi0,rho"
    data = np.loadtxt(str(path), delimiter=",", skiprows=1)
    assert data.shape == (coarse_grid.n_nodes, 5)
    assert np.array_equal(data[:, 0], coarse_grid.x)
    assert np.array_equal(data[:, 4], u * u + v * v)

    hist = tmp_path / "hist.csv"
    io_mod.write_history_csv(str(hist), [(-3.3, 0.8371, 45, 8.2e-9)])
    lines = hist.read_text().splitlines()
    assert lines[0] == "a,k,iterations,residual"
    assert len(lines) == 2


def test_csv_refuses_unequal_columns(tmp_path):
    grid = build_grid(np.log(1e-6), np.log(80.0), 5)
    path = tmp_path / "profiles.csv"
    with pytest.raises(ShapeError):
        io_mod.write_profiles_csv(str(path), grid, np.ones(5), np.ones(5), np.ones(3))
    assert list(tmp_path.iterdir()) == []


def test_writers_refuse_fields_that_are_not_1d(tmp_path):
    # the writers lay out one value per row or per list entry
    grid = build_grid(np.log(1e-6), np.log(80.0), 4)
    with pytest.raises(ShapeError):
        io_mod.write_profiles_csv(
            str(tmp_path / "profiles.csv"), grid, np.ones((4, 1)), np.ones(4), grid.x
        )
    snap = _sample_snapshot(4)
    snap.v = snap.v.reshape(2, 2)
    with pytest.raises(ShapeError):
        io_mod.save_snapshot(str(tmp_path / "state.json"), snap)
    assert list(tmp_path.iterdir()) == []


def test_field_writers_take_float_lists_as_arrays(tmp_path, memo):
    # the standard-library warm solve hands the writers lists of floats
    snap = _sample_snapshot(6)
    snap.u[2] = -0.0
    x = build_grid(np.log(1e-6), np.log(80.0), 6).x
    phi0 = np.linspace(1.0, 0.1, 6)
    for form, as_form in (("array", np.asarray), ("list", np.ndarray.tolist)):
        u, v, p = (as_form(f) for f in (snap.u, snap.v, phi0))
        memo.clear()
        grid = SimpleNamespace(xs=as_form(x))
        io_mod.write_profiles_csv(str(tmp_path / f"{form}.csv"), grid, u, v, p)
        io_mod.save_snapshot(str(tmp_path / f"{form}.json"), replace(snap, u=u, v=v))
    for ext in ("csv", "json"):
        listed, arrayed = tmp_path / f"list.{ext}", tmp_path / f"array.{ext}"
        assert listed.read_bytes() == arrayed.read_bytes()


@pytest.mark.parametrize("command", ["trial-eval", "solve"])
def test_cli_refuses_a_grid_whose_weights_overflow(tmp_path, capsys, command):
    # e^theta_max is finite, but h e^theta_max is not
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta_min = -745\ntheta_max = 709\nn_nodes = 50\n")
    out = tmp_path / "run"
    code = main([command, "--config", str(cfg), "--output-dir", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: grid (-745.0, 709.0, 50 nodes) has a trapezoid weight "
        "h e^theta_max = inf beyond the double range\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["trial-eval", "solve", "scan"])
def test_cli_refuses_a_grid_whose_first_interval_underflows(tmp_path, capsys, command):
    # x_0 x_1 underflows to 0, where the box rows would divide by zero; a
    # cold solve once ran 200 iterations on nan residuals (exit 3, scan 4)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta_min = -700\n")
    out = tmp_path / "run"
    code = main([command, "--config", str(cfg), "--output-dir", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: grid (-700.0, 4.382026634673881, 2000 nodes) ")
    assert "x_0 x_1 = 0.0" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["trial-eval", "solve", "scan"])
def test_cli_refuses_a_grid_above_the_node_cap(tmp_path, capsys, monkeypatch, command):
    # refused by the grid check, before any node is built
    def build(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(grid_mod, "_linspace", build)  # Grid's nodes
    n = errors_mod.MAX_NODES + 1
    out = tmp_path / "run"
    code = main([command, "--grid-nodes", str(n), "--output-dir", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: n_nodes must be an integer and in [2, 1e+06], got {n}\n"
    )
    assert not out.exists()


_RAGGED = {
    "trace-short-row": ("write_trace_csv", [(1, 0.9, 0.1, 0.01), (2, 0.95, 0.05)]),
    "trace-long-row": ("write_trace_csv", [(1, 0.9, 0.1, 0.01), (2, 0.9, 0.1, 0.0, 1)]),
    "history-short-row": ("write_history_csv", [(-3.3, 0.84, 13)]),
    "history-long-row": ("write_history_csv", [(-3.3, 0.84, 13, 1e-9, 2.0)]),
}


@pytest.mark.parametrize("case", sorted(_RAGGED))
def test_row_writers_refuse_ragged_rows(tmp_path, case):
    # zip(*rows) would cut every row to the shortest one and drop a column
    writer, rows = _RAGGED[case]
    with pytest.raises(ShapeError):
        getattr(io_mod, writer)(str(tmp_path / "table.csv"), rows)
    assert list(tmp_path.iterdir()) == []


def test_cli_trace_keeps_every_column(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["solve", "--a", "-2.3", "--trace", "--output-dir", str(out)]
    assert main(argv + FAST) == EXIT_OK
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,k,residual_norm,mu"
    assert len(lines) > 2 and all(len(line.split(",")) == 4 for line in lines)
    capsys.readouterr()


# The field memo: save_snapshot and write_profiles_csv share the repr text of
# the last x, u, v, phi0 and rho arrays written. Every file must still be the
# recipe's.


@pytest.fixture
def memo(monkeypatch):
    """An empty field memo for this test only."""
    monkeypatch.setattr(io_mod, "_FIELD_TEXTS", {})
    return io_mod._FIELD_TEXTS


def _digest(values):
    """The memo's key of a field: the sha256 digest of its bytes."""
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).digest()


def _memo_fields(n, kind):
    rng = np.random.default_rng(n)
    x = np.exp(np.linspace(np.log(1e-6), np.log(80.0), n))
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    if kind == "edge":
        # the shared fields are finite, as a snapshot's must be; the table's
        # grid column carries the non-finite values
        u[0], v[n // 2] = -0.0, 5e-324
        x[0], x[-1] = np.nan, np.inf
    return x, u, v


def _memo_writers(tmp_path, x, u, v):
    """Write the snapshot or the profile table of (x, u, v); return its text."""
    snap_path, csv_path = tmp_path / "state.json", tmp_path / "profiles.csv"

    def snapshot():
        snap = io_mod.Snapshot(
            theta_min=-13.8, theta_max=4.4, n_nodes=u.size, a=-2.3, k=0.9, u=u, v=v
        )
        io_mod.save_snapshot(str(snap_path), snap)
        assert snap_path.read_text() == _reference_snapshot_text(snap)
        return snap_path.read_text()

    def csv():
        io_mod.write_profiles_csv(str(csv_path), SimpleNamespace(xs=x), u, v, -u)
        rho = u * u + v * v
        assert csv_path.read_text() == _reference_csv_text(
            ("x", "u", "v", "phi0", "rho"), zip(x, u, v, -u, rho)
        )
        return csv_path.read_text()

    return {"snapshot": snapshot, "csv": csv}


@pytest.mark.parametrize("n", [2, 16000])
@pytest.mark.parametrize("kind", ["finite", "edge"])
@pytest.mark.parametrize("order", ["snapshot-csv", "csv-snapshot"])
def test_field_memo_serves_both_orders(tmp_path, memo, n, kind, order):
    x, u, v = _memo_fields(n, kind)
    writers = _memo_writers(tmp_path, x, u, v)
    first, second = order.split("-")
    texts = {first: writers[first]()}
    shared = {name: memo[name][1] for name in ("u", "v")}
    texts[second] = writers[second]()
    # the second writer took the first one's text: a hit, not a re-format
    assert all(memo[name][1] is shared[name] for name in ("u", "v"))
    if kind == "edge":
        body = json.loads(texts["snapshot"])
        assert str(body["u"][0]) == "-0.0" and body["v"][n // 2] == 5e-324
        rows = [line.split(",") for line in texts["csv"].splitlines()[1:]]
        assert (rows[0][0], rows[0][1], rows[-1][0]) == ("nan", "-0.0", "inf")
        assert rows[n // 2][2] == "5e-324"


def test_field_memo_misses_on_an_in_place_change(tmp_path, memo):
    x, u, v = _memo_fields(257, "finite")
    writers = _memo_writers(tmp_path, x, u, v)
    writers["snapshot"]()
    u[7] = 42.0  # same array object, new content
    assert writers["csv"]().splitlines()[8].split(",")[1] == "42.0"
    v[0] = -v[0]
    writers["snapshot"]()
    assert memo["u"][0] == _digest(u) and memo["v"][0] == _digest(v)


def test_field_memo_tells_zero_from_negative_zero(tmp_path, memo):
    x = np.arange(3.0)
    zeros = np.zeros(3)
    writers = _memo_writers(tmp_path, x, zeros, zeros)
    assert "-0.0" not in writers["snapshot"]()
    negative = _memo_writers(tmp_path, x, -zeros, zeros)
    assert [line.split(",")[1] for line in negative["csv"]().splitlines()[1:]] == [
        "-0.0"
    ] * 3
    assert "-0.0" in negative["snapshot"]()


def test_field_memo_keys_a_strided_array_by_its_values(tmp_path, memo):
    x, u, v = _memo_fields(514, "finite")
    su, sv = u[::2], v[1::2]  # views into u and v, not contiguous
    assert not (su.flags.c_contiguous or sv.flags.c_contiguous)
    writers = _memo_writers(tmp_path, x[::2], su, sv)
    writers["snapshot"]()
    text = memo["u"][1]
    assert memo["u"][0] == _digest(su) and memo["v"][0] == _digest(sv)
    # the same values in a contiguous array: a hit
    _memo_writers(tmp_path, x[::2], su.copy(), sv.copy())["csv"]()
    assert memo["u"][1] is text
    # a change to u outside the view: still a hit
    u[1] = 42.0
    writers["csv"]()
    assert memo["u"][1] is text
    # a change inside it: a miss, and the file is the new values' recipe
    u[2] = 42.0
    assert json.loads(writers["snapshot"]())["u"][1] == 42.0
    assert memo["u"][1] is not text and memo["u"][0] == _digest(su)


_LONGEST = -2.2250738585072014e-308  # 24 characters, no repr is longer


def _chunk_edge_fields(n, kind):
    """x, u and v of n rows for the chunk-edge test. x is a column of the
    profile table only, so it alone carries -inf, nan and the other
    non-finite bit patterns; u and v, shared with the snapshot, are finite,
    with squares that neither the writer nor the recipe overflows."""
    x, u, v = _memo_fields(n, "finite")
    rng = np.random.default_rng(n)
    if kind == "longest":
        u, v = np.full(n, _LONGEST), np.full(n, _LONGEST)
        u[:1] = 0.5
    elif kind == "any-bits":
        x, u, v = (np.frombuffer(rng.bytes(8 * n), dtype=np.float64) for _ in "xuv")
        with np.errstate(invalid="ignore"):
            u, v = (np.where(np.abs(f) < 1e150, f, 0.5) for f in (u, v))
    elif kind == "mixed":
        values = [0.0, 1.5, _LONGEST, 5e-324, -np.inf]
        x = rng.choice(values, n)
        u, v = rng.choice(values[:-1], n), rng.choice(values[:-1], n)
    return x, u, v


@pytest.mark.parametrize(
    "n",
    [0, 1, 2, io_mod._CHUNK_ROWS - 1, io_mod._CHUNK_ROWS, io_mod._CHUNK_ROWS + 1,
     2 * io_mod._CHUNK_ROWS + 1],
)
@pytest.mark.parametrize("kind", ["finite", "longest", "any-bits", "mixed"])
def test_streamed_files_match_the_recipe_at_the_chunk_edges(tmp_path, memo, n, kind):
    # each field's text is kept in chunks of _CHUNK_ROWS values, which the
    # snapshot's body and checksum take one at a time and the profile table
    # one chunk of rows at a time; both orders of the writers, so that each
    # writer meets the other's chunks in the memo
    x, u, v = _chunk_edge_fields(n, kind)
    writers = _memo_writers(tmp_path, x, u, v)
    for order in (("snapshot", "csv"), ("csv", "snapshot")):
        memo.clear()
        for writer in order:  # each asserts its file against the recipe
            writers[writer]()
    path = str(tmp_path / "state.json")
    for back in (io_mod.load_snapshot(path), io_mod._read_snapshot(path)):
        assert np.array(back.u).tobytes() == u.tobytes()
        assert np.array(back.v).tobytes() == v.tobytes()


def _snapshot_text(n):
    """The text of a snapshot of n nodes, with every value of u and v 0.5."""
    fields = np.full(n, 0.5)
    snap = io_mod.Snapshot(-13.8, 4.4, n, -2.3, 0.9, fields, fields)
    return _reference_snapshot_text(snap)


# defect -> (the edit of a 2049-node snapshot's text, whether the checksum
# is then made to agree, the refusal); the edits hit the last chunk of tokens
_LATE_DEFECTS = {
    "integer-token": ("0.5\n ]\n}", "3\n ]\n}", False, "must be JSON numbers"),
    "string-token": ("0.5\n ]\n}", '"0.5"\n ]\n}', False, "must be JSON numbers"),
    "nested-token": ("0.5\n ]\n}", "[0.5]\n ]\n}", False, "must be JSON numbers"),
    "changed-token": ("0.5\n ]\n}", "0.25\n ]\n}", False, "checksum mismatch"),
    "inf-token": ("0.5\n ]\n}", "1e999\n ]\n}", True, "must be finite"),
    "inf-and-short": (",\n  0.5\n ]\n}", ",\n  1e999\n ]\n}", True, "must be finite"),
    "short": (",\n  0.5\n ]\n}", "\n ]\n}", True, "do not match n_nodes"),
}


@pytest.mark.parametrize("case", sorted(_LATE_DEFECTS))
def test_both_readers_refuse_a_late_defect_alike(tmp_path, case):
    # the checksum joins the tokens in chunks: a defect past the first
    # chunk is refused as one in it is, and with the same precedence
    # (mistyped, then checksum, then non-finite, then length)
    old, new, agree, message = _LATE_DEFECTS[case]
    text = _snapshot_text(2 * io_mod._CHUNK_ROWS + 1)
    assert text.endswith(old + "\n")
    text = text[: -len(old) - 1] + new + "\n"
    if agree:
        text = _with_token_checksum(text)
    path = tmp_path / "state.json"
    path.write_text(text)
    for read in (io_mod.load_snapshot, io_mod._read_snapshot):
        with pytest.raises(CorruptSnapshotError, match=message):
            read(str(path))


def _traced_peak(call):
    """The tracemalloc peak of call(), in bytes above what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_snapshot_round_trip_stays_within_its_memory_bounds(tmp_path, memo):
    # Measured at 16000 nodes: a cold save peaks at 59 B per node (41 of
    # them the two texts the memo keeps), a warm one at 7, and a load at the
    # peak of its own json.load. A body, an encoded field or a checksum
    # input built whole would take a save past 90 B per node and a load
    # past 1.4 json.load peaks.
    n = 16000
    _, u, v = _memo_fields(n, "finite")
    snap = io_mod.Snapshot(-13.8, 4.4, n, -2.3, 0.9, u, v)
    path = str(tmp_path / "state.json")
    cold = _traced_peak(lambda: io_mod.save_snapshot(path, snap))
    warm = _traced_peak(lambda: io_mod.save_snapshot(path, snap))
    parse = _traced_peak(lambda: _read_json_tokens(path))
    load = _traced_peak(lambda: io_mod.load_snapshot(path))
    assert cold / n < 80 and warm / n < 20
    assert load < 1.1 * parse


def _read_json_tokens(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_float=str.encode)


def test_a_snapshot_whose_root_is_not_an_object_is_corrupt(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text("[0.5, 0.25]\n")
    with pytest.raises(CorruptSnapshotError, match="snapshot root must be an object"):
        io_mod.load_snapshot(str(path))
    code = main(
        ["solve", "--warm-start", str(path), "--output-dir", str(tmp_path)] + FAST
    )
    assert code == EXIT_IO
    assert "snapshot root must be an object" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]


def test_save_snapshot_refuses_a_nested_list_field(tmp_path):
    # array('d') refuses the nested list; numpy then names its shape
    snap = _sample_snapshot(4)
    snap.u = [[0.5, 0.25], [1.0, 2.0]]
    with pytest.raises(ShapeError, match=r"u must be 1-D, got shape \(2, 2\)"):
        io_mod.save_snapshot(str(tmp_path / "state.json"), snap)
    assert list(tmp_path.iterdir()) == []


def test_field_memo_holds_only_the_five_named_slots(tmp_path, memo, capsys):
    out, snap = tmp_path / "run", tmp_path / "state.json"
    for argv in (
        ["scan", "--output-dir", str(out), "--snapshot", str(snap)],
        ["solve", "--a", "-2.9", "--trace", "--output-dir", str(out)],
        ["solve", "--warm-start", str(snap), "--output-dir", str(out)],
        ["dispersion", "--from-summary", str(out / "scan_summary.json"),
         "--output-dir", str(out)],
    ):
        assert main(argv + FAST) == EXIT_OK
        assert set(memo) <= {"x", "u", "v", "phi0", "rho"}
    for n in (2, 300, 16000):
        _memo_writers(tmp_path, *_memo_fields(n, "edge"))["csv"]()
        assert sorted(memo) == ["phi0", "rho", "u", "v", "x"]
    capsys.readouterr()


def test_continuation_steps_reuse_every_field_text(tmp_path, memo, grid):
    # snapshot -> warm solve at the snapshot's k -> snapshot + profile table:
    # the solve returns its input fields, so every column is a memo hit
    snap_path, csv_path = tmp_path / "state.json", tmp_path / "profiles.csv"

    def save(state):
        io_mod.save_snapshot(
            str(snap_path),
            io_mod.Snapshot(grid.theta_min, grid.theta_max, grid.n_nodes, state.a,
                            state.k, state.pair.u, state.pair.v),
        )

    save(solver.solve_fixed_a(-3.3, grid))
    steps = []
    for a in (-2.9, -3.6, -1.9, -4.2, -2.5):
        snap = io_mod.load_snapshot(str(snap_path))
        state = solver.solve_fixed_a(a, grid, init=snap.pair(), k0=snap.k)
        assert state.iteration == 0
        save(state)
        io_mod.write_profiles_csv(
            str(csv_path), grid, state.pair.u, state.pair.v, state.field.phi0
        )
        body = json.loads(snap_path.read_bytes(), parse_float=str.encode)
        texts = {name: memo[name][1] for name in ("phi0", "rho")}
        steps.append((body["u"], body["v"], csv_path.read_bytes(), texts))
    first = steps[0]
    for u, v, table, texts in steps[1:]:
        assert (u, v, table) == first[:3]
        assert all(texts[name] is first[3][name] for name in ("phi0", "rho"))


def test_streamed_write_that_raises_keeps_the_target(tmp_path, memo, monkeypatch):
    # four values a chunk from the first write on, so every text in the
    # memo, which this test alone holds, is chunked alike
    monkeypatch.setattr(io_mod, "_CHUNK_ROWS", 4)
    target = tmp_path / "profiles.csv"
    x, u, v = _memo_fields(10, "finite")
    old = os.umask(0o022)
    try:
        io_mod.write_profiles_csv(str(target), SimpleNamespace(xs=x), u, v, u)
        before = target.read_bytes()

        def pieces():
            yield "x,u\n"
            yield "1.0,2.0\n"
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError):
            io_mod.atomic_write_text(str(target), pieces())
        assert target.read_bytes() == before

        # the same inside the CSV writer: one chunk of rows goes out, then a
        # column's chunks raise
        real = io_mod._field_text
        served = []

        def failing(name, values):
            chunks = real(name, values)
            served.append(chunks[0])
            yield chunks[0]
            raise RuntimeError("formatting failed")

        monkeypatch.setattr(io_mod, "_field_text", failing)
        with pytest.raises(RuntimeError):
            io_mod.write_profiles_csv(str(target), SimpleNamespace(xs=x), 2 * u, v, u)
        # each of the five columns gave its first chunk of rows before the raise
        assert [len(chunk.split(",")) for chunk in served] == [4] * 5
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["profiles.csv"]

        monkeypatch.setattr(io_mod, "_field_text", real)
        io_mod.write_profiles_csv(str(target), SimpleNamespace(xs=x), 2 * u, v, u)
    finally:
        os.umask(old)
    assert target.read_bytes() != before
    assert [p.name for p in tmp_path.iterdir()] == ["profiles.csv"]
    assert target.stat().st_mode & 0o777 == 0o644


def test_a_long_profile_table_reads_back_bit_exact(tmp_path, memo):
    n = 100_000
    rng = np.random.default_rng(7)
    x = np.exp(np.linspace(np.log(1e-6), np.log(80.0), n))
    u, v, phi0 = (
        rng.standard_normal(n) * 10.0 ** rng.integers(-100, 100, n) for _ in range(3)
    )
    path = tmp_path / "profiles.csv"
    io_mod.write_profiles_csv(str(path), SimpleNamespace(xs=x), u, v, phi0)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,u,v,phi0,rho" and len(lines) == n + 1
    columns = zip(*(line.split(",") for line in lines[1:]))
    for column, expected in zip(columns, (x, u, v, phi0, u * u + v * v)):
        assert np.array(list(map(float, column))).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# command line (in-process)

FAST = ["--grid-nodes", "500"]


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_cli_solve_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    snap = tmp_path / "state.json"
    code = main(
        ["solve", "--a", "-2.3", "--output-dir", str(out), "--snapshot", str(snap)]
        + FAST
    )
    assert code == EXIT_OK
    summary = _read_json(out / "solve_summary.json")
    assert summary["a"] == -2.3
    assert 0.5 < summary["k"] < 1.5
    assert (out / "profiles.csv").exists()
    assert io_mod.load_snapshot(str(snap)).n_nodes == 500
    assert "solve:" in capsys.readouterr().out


def test_cli_solve_warm_start(tmp_path, capsys):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    snap = tmp_path / "state.json"
    assert (
        main(
            ["solve", "--a", "-2.3", "--output-dir", str(out1), "--snapshot", str(snap)]
            + FAST
        )
        == EXIT_OK
    )
    code = main(
        ["solve", "--warm-start", str(snap), "--output-dir", str(out2), "--trace"]
        + FAST
    )
    assert code == EXIT_OK
    summary = _read_json(out2 / "solve_summary.json")
    assert summary["a"] == -2.3  # coupling comes from the snapshot
    assert summary["iterations"] <= 2
    assert (out2 / "trace.csv").exists()
    capsys.readouterr()


@pytest.mark.parametrize("a", [-4.4, -1.6])
def test_cli_warm_start_is_seeded_at_the_invariant_frequency(tmp_path, capsys, a):
    # only k^2 a enters the equations, so the snapshot's state is already
    # converged at a with k = k_s sqrt(a_s / a)
    snap, moved = tmp_path / "state.json", tmp_path / "moved.json"
    args = ["--output-dir", str(tmp_path)] + FAST
    assert main(["solve", "--a", "-3.3", "--snapshot", str(snap)] + args) == EXIT_OK
    code = main(
        ["solve", "--warm-start", str(snap), "--a", str(a), "--snapshot", str(moved)]
        + args
    )
    assert code == EXIT_OK
    assert _read_json(tmp_path / "solve_summary.json")["iterations"] == 0
    before, after = io_mod.load_snapshot(str(snap)), io_mod.load_snapshot(str(moved))
    assert after.a == a
    assert after.k**2 * a == pytest.approx(before.k**2 * before.a, rel=1e-12)
    capsys.readouterr()


@pytest.mark.parametrize("a", ["0", "0.5"])
def test_cli_warm_start_refuses_a_non_negative_coupling(tmp_path, capsys, a):
    snap = tmp_path / "state.json"
    args = ["--output-dir", str(tmp_path)] + FAST
    assert main(["solve", "--a", "-3.3", "--snapshot", str(snap)] + args) == EXIT_OK
    capsys.readouterr()
    code = main(["solve", "--warm-start", str(snap), "--a", a] + args)
    assert code == EXIT_USAGE
    assert "coupling a must be finite and negative" in capsys.readouterr().err


@pytest.mark.parametrize("a", ["-1e-310", "-5e-324"])
def test_cli_warm_start_refuses_a_coupling_too_close_to_zero(tmp_path, capsys, a):
    # a_s / a overflows, so the transported frequency k_s sqrt(a_s / a) is
    # not finite: the refusal names the coupling the user gave
    snap = tmp_path / "state.json"
    args = ["--output-dir", str(tmp_path)] + FAST
    assert main(["solve", "--a", "-3.3", "--snapshot", str(snap)] + args) == EXIT_OK
    (tmp_path / "solve_summary.json").unlink()
    capsys.readouterr()
    code = main(["solve", "--warm-start", str(snap), f"--a={a}"] + args)
    assert code == EXIT_USAGE
    assert f"coupling a = {float(a)!r} is too close to 0" in capsys.readouterr().err
    assert not (tmp_path / "solve_summary.json").exists()


def test_cli_warm_start_grid_mismatch(tmp_path, capsys):
    snap = tmp_path / "state.json"
    out = tmp_path / "run"
    assert (
        main(
            ["solve", "--a", "-2.3", "--output-dir", str(out), "--snapshot", str(snap)]
            + FAST
        )
        == EXIT_OK
    )
    code = main(
        ["solve", "--warm-start", str(snap), "--output-dir", str(out),
         "--grid-nodes", "400"]
    )
    assert code == EXIT_USAGE
    assert "grid" in capsys.readouterr().err


def test_cli_scan(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["scan", "--output-dir", str(out)] + FAST)
    assert code == EXIT_OK
    summary = _read_json(out / "scan_summary.json")
    assert -2.4 < summary["a0"] < -2.2
    assert summary["extremum_mismatch"] < 1e-3
    assert (out / "k_history.csv").exists()
    snap = io_mod.load_snapshot(str(out / "a0_state.json"))
    assert snap.a == pytest.approx(summary["a0"], abs=1e-5)
    capsys.readouterr()


def test_cli_dispersion_from_value(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["dispersion", "--e0", "1.0", "--p-count", "5", "--output-dir", str(out)]
    )
    assert code == EXIT_OK
    data = np.loadtxt(str(out / "dispersion.csv"), delimiter=",", skiprows=1)
    assert data.shape == (5, 6)
    assert data[0, 3] == 1.0 and data[0, 4] == 0.0
    capsys.readouterr()


def test_cli_dispersion_from_summary(tmp_path, capsys):
    out = tmp_path / "run"
    io_mod.write_summary_json(
        str(tmp_path / "scan_summary.json"), {"E0_over_m0": 0.158550}
    )
    code = main(
        [
            "dispersion",
            "--from-summary",
            str(tmp_path / "scan_summary.json"),
            "--output-dir",
            str(out),
        ]
    )
    assert code == EXIT_OK
    summary = _read_json(out / "dispersion_summary.json")
    assert summary["E0"] == pytest.approx(0.158550, rel=1e-5)
    capsys.readouterr()


@pytest.mark.parametrize(
    "payload",
    ["3", "[]", '{"E0_over_m0": null}', '{"E0_over_m0": [1]}',
     '{"E0_over_m0": true}', '{"E0_over_m0": "0.158"}',
     pytest.param("[" * 100000 + "]" * 100000, id="nested-too-deep")],
)
def test_cli_dispersion_refuses_a_summary_without_a_numeric_e0(
    tmp_path, capsys, payload
):
    path = tmp_path / "scan_summary.json"
    path.write_text(payload)
    out = tmp_path / "run"
    code = main(["dispersion", "--from-summary", str(path), "--output-dir", str(out)])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_trial_eval(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["trial-eval", "--output-dir", str(out)] + FAST)
    assert code == EXIT_OK
    summary = _read_json(out / "trial_summary.json")
    assert summary["T"] == pytest.approx(-0.654654, abs=1e-4)
    assert summary["norm_before_rescale"] == pytest.approx(1.0, abs=1e-4)
    capsys.readouterr()


def test_cli_refuses_a_trial_scale_without_a_finite_seed(tmp_path, capsys):
    # the seed overflows to non-finite values (1e300, 1e200) or underflows
    # to zero norm (1e-300); refused before any solve or artifact, by every
    # command that starts from it: trial-eval, scan and a cold solve
    cfg = tmp_path / "run.cfg"
    for b in ("1e300", "1e200", "1e-300"):
        cfg.write_text(f"trial_b = {b}\n")
        for command in (
            ["trial-eval", "--b", b],
            ["scan", "--config", str(cfg)],
            ["solve", "--config", str(cfg)],
        ):
            code = main(command + ["--output-dir", str(tmp_path)] + FAST)
            assert code == EXIT_USAGE
            assert "trial scale" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_cold_solve_command_starts_from_the_trial_b_seed(tmp_path, capsys):
    # a cold solve starts where find_a0's cold solve does: from the seed at
    # the configured trial_b, not at b = 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trial_b = 0.8\n")
    out = tmp_path / "run"
    code = main(["solve", "--config", str(cfg), "--output-dir", str(out)])
    assert code == EXIT_OK
    capsys.readouterr()
    config = io_mod.RunConfig(trial_b=0.8)
    _, k, iterations, _ = find_a0(config, config.build_grid()).k_history[0]
    summary = _read_json(out / "solve_summary.json")  # 6 significant digits
    assert (summary["k"], summary["iterations"]) == (float(f"{k:.6g}"), iterations)


@pytest.mark.parametrize(
    "argv",
    [
        ["dispersion"],                                   # neither source
        ["dispersion", "--e0", "1.0", "--from-summary", "x.json"],  # both
        ["dispersion", "--e0", "-1.0"],                   # negative energy
        ["dispersion", "--e0", "1.0", "--p-count", "0"],  # empty table
        ["dispersion", "--e0", "1.0", "--p-min", "2.0", "--p-max", "1.0"],
        ["scan", "--tol", "nan"],                         # rejected before a solve
        ["solve", "--a", "0.5"],                          # k^2 a = a0 < 0
        # every command checks its whole configuration, used or not
        ["dispersion", "--e0", "1", "--tau", "5"],
        ["trial-eval", "--tol", "-1"],
        ["dispersion", "--e0", "1", "--p-count", "100001"],  # above the cap
    ],
)
def test_cli_usage_errors(tmp_path, capsys, argv):
    code = main(argv + ["--output-dir", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-10"])
def test_cli_rejects_bad_alpha0(tmp_path, capsys, value):
    # rejected before any solve, so no summary with a bare NaN is written
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"alpha0 = {value}\n")
    for command in (["solve", "--a", "-2.3"], ["scan"]):
        code = main(
            command + ["--config", str(cfg), "--output-dir", str(tmp_path)] + FAST
        )
        assert code == EXIT_USAGE
        assert "alpha0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("source", ["flag", "config", "snapshot"])
def test_cli_solve_refuses_a_coupling_beyond_alpha0_unsolved(
    tmp_path, capsys, monkeypatch, source
):
    # |a| < alpha0 is checked once a is known, so no solve is spent on it
    calls = []
    real = cli_mod.solve_fixed_a

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "solve_fixed_a", spy)
    cfg = tmp_path / "run.cfg"
    argv = ["solve", "--config", str(cfg), "--grid-nodes", "40"]
    if source == "flag":
        cfg.write_text("")
        argv += ["--a", "-20"]
    elif source == "config":
        cfg.write_text("a_start = -20\n")
    else:
        # the snapshot's a = -2.3 is beyond alpha0 = 2
        cfg.write_text("alpha0 = 2\n")
        snap = tmp_path / "state.json"
        io_mod.save_snapshot(str(snap), _sample_snapshot())
        argv += ["--warm-start", str(snap)]
    out = tmp_path / "run"
    code = main(argv + ["--output-dir", str(out)])
    assert code == EXIT_USAGE
    assert "alpha0" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["--e0", "1", "--config"], ["--from-summary"]], ids=["config", "summary"]
)
def test_cli_undecodable_input_file_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "input"
    path.write_bytes(b'{"E0_over_m0": 0.1\xff}\n')
    out = tmp_path / "run"
    code = main(["dispersion"] + argv + [str(path), "--output-dir", str(out)])
    assert code == EXIT_USAGE
    assert "can't decode" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["dispersion", "--e0", "1", "--config", "run\0.cfg"],
        ["dispersion", "--e0", "1", "--output-dir", "run\0"],
        ["solve", "--grid-nodes", "200", "--snapshot", "state\0.json"],
        ["solve", "--grid-nodes", "200", "--warm-start", "state\0.json"],
        ["dispersion", "--from-summary", "summary\0.json"],
    ],
    ids=["config", "output-dir", "snapshot", "warm-start", "from-summary"],
)
def test_cli_path_with_a_nul_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # open() would raise a bare ValueError; refused before any work, so the
    # working directory, where every artifact would go, stays empty
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_USAGE
    assert "NUL character" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_internal_value_error_is_not_a_usage_error(tmp_path, monkeypatch):
    # only the package's own ValueErrors are usage errors; a fault propagates
    def internal(cfg, grid, a, k0, snap):
        raise ValueError("internal")

    monkeypatch.setattr(cli_mod, "_solve", internal)
    with pytest.raises(ValueError, match="internal"):
        main(["solve", "--output-dir", str(tmp_path)])


def test_cli_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery = 1\n")
    code = main(
        ["solve", "--a", "-2.3", "--config", str(cfg), "--output-dir", str(tmp_path)]
    )
    assert code == EXIT_USAGE
    capsys.readouterr()


def test_cli_bad_flag_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--format", "xml"])
    assert info.value.code == 2
    capsys.readouterr()


def test_cli_no_convergence_exit(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_iterations = 2\n")
    code = main(
        ["solve", "--a", "-2.3", "--config", str(cfg), "--output-dir", str(tmp_path)]
        + FAST
    )
    assert code == EXIT_NO_CONVERGENCE
    capsys.readouterr()


def test_cli_scan_failure_exit(tmp_path, capsys):
    code = main(["scan", "--tol", "1e-14", "--output-dir", str(tmp_path)] + FAST)
    assert code == EXIT_SCAN_FAILURE
    assert (tmp_path / "k_history.csv").exists()
    capsys.readouterr()


def test_cli_config_naming_max_evals_is_a_usage_error(tmp_path, capsys):
    # the two-solve scan has no solve cap, so max_evals is not a setting
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_evals = 30\n")
    code = main(["scan", "--config", str(cfg), "--output-dir", str(tmp_path)] + FAST)
    assert code == EXIT_USAGE
    assert "unknown key 'max_evals'" in capsys.readouterr().err
    assert not (tmp_path / "scan_summary.json").exists()


def test_cli_missing_tail_root_is_a_numerical_failure(tmp_path, capsys):
    # A grid that ends at x = 2 leaves no decaying root at the outer edge
    # for a = -3.3 at k = 1; that is a solver failure, not a usage error.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta_max = 0.69\n")
    code = main(["scan", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert code == EXIT_SCAN_FAILURE
    assert "tail root" in capsys.readouterr().err
    code = main(["solve", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert code == EXIT_NO_CONVERGENCE
    assert "tail root" in capsys.readouterr().err
    # A cold start at this coupling used to reach the same error through a
    # full-mu step at the damping floor; it now ends on the one-node state.
    a = "-2.181168"
    cfg.write_text(f"a_start = {a}\n")
    code = main(["scan", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert code == EXIT_SCAN_FAILURE
    assert "interior node" in capsys.readouterr().err
    code = main(["solve", "--a", a, "--output-dir", str(tmp_path)])
    assert code == EXIT_NO_CONVERGENCE
    assert "interior node" in capsys.readouterr().err


def test_cli_io_error_exits(tmp_path, capsys):
    code = main(
        ["solve", "--warm-start", str(tmp_path / "absent.json"),
         "--output-dir", str(tmp_path)]
    )
    assert code == EXIT_IO
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json at all")
    code = main(
        ["solve", "--warm-start", str(garbage), "--output-dir", str(tmp_path)]
    )
    assert code == EXIT_IO
    capsys.readouterr()


def test_cli_snapshot_nested_too_deep_is_an_io_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code = main(
        ["solve", "--warm-start", str(deep), "--output-dir", str(tmp_path)] + FAST
    )
    assert code == EXIT_IO
    assert "not valid snapshot JSON" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.json"]


def test_cli_mistyped_snapshot_is_an_io_error(tmp_path, capsys):
    snap = tmp_path / "state.json"
    _mistyped_snapshot(snap, "u", 1.5)
    code = main(
        ["solve", "--warm-start", str(snap), "--output-dir", str(tmp_path)] + FAST
    )
    assert code == EXIT_IO
    assert "JSON numbers" in capsys.readouterr().err


def test_cli_boolean_snapshot_version_is_an_io_error(tmp_path, capsys):
    snap = tmp_path / "state.json"
    _mistyped_snapshot(snap, "format_version", True)
    code = main(
        ["solve", "--warm-start", str(snap), "--output-dir", str(tmp_path),
         "--grid-nodes", "40"]
    )
    assert code == EXIT_IO
    assert "format_version True" in capsys.readouterr().err


def test_cli_singular_pivot_block_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # a singular odd pivot block in the box-scheme solve exits 3 from solve
    # and 4 from scan, never 2 and never with a silent bad solve
    real = solver.solve_banded

    def singular(l_and_u, ab, b):
        ab = ab.copy()
        # block 1 = rows 2, 3 and unknowns 2, 3, as A[i, j] = ab[2 + i - j, j]
        ab[2, 2] = ab[1, 3] = ab[3, 2] = ab[2, 3] = 1.0
        return real(l_and_u, ab, b)

    monkeypatch.setattr(solver, "solve_banded", singular)
    code = main(["solve", "--output-dir", str(tmp_path)] + FAST)
    assert code == EXIT_NO_CONVERGENCE
    assert "near-singular" in capsys.readouterr().err
    code = main(["scan", "--output-dir", str(tmp_path)] + FAST)
    assert code == EXIT_SCAN_FAILURE
    assert "near-singular" in capsys.readouterr().err


def test_cli_output_dir_env(tmp_path, monkeypatch, capsys):
    envdir = tmp_path / "from-env"
    flagdir = tmp_path / "from-flag"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(envdir))
    assert main(["trial-eval"] + FAST) == EXIT_OK
    assert (envdir / "trial_summary.json").exists()
    # an explicit flag wins over the environment
    assert main(["trial-eval", "--output-dir", str(flagdir)] + FAST) == EXIT_OK
    assert (flagdir / "trial_summary.json").exists()
    assert not (envdir / "trial_summary.json").stat().st_size == 0
    capsys.readouterr()


def test_cli_runs_are_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert main(["solve", "--a", "-2.3", "--output-dir", str(d)] + FAST) == EXIT_OK
    for name in ("solve_summary.json", "profiles.csv"):
        assert filecmp.cmp(str(d1 / name), str(d2 / name), shallow=False)
    capsys.readouterr()


def test_cli_module_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "solitonscf",
            "dispersion",
            "--e0",
            "1.0",
            "--p-count",
            "3",
            "--output-dir",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "dispersion.csv").exists()


def _scipy_modules(stderr):
    """Modules named by python -X importtime that belong to scipy."""
    names = [line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()]
    return [name for name in names if name.split(".")[0] == "scipy"]


@pytest.mark.parametrize(
    "args",
    [["-c", "import solitonscf.cli"], ["-m", "solitonscf", "dispersion", "--help"]],
    ids=["import-cli", "dispersion-help"],
)
def test_cli_loads_no_scipy(args):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime"] + args, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "import time:" in proc.stderr
    assert _scipy_modules(proc.stderr) == []

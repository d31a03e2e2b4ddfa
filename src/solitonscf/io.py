"""Run configuration, snapshots and deterministic output writers.

Configuration files are flat key=value text with '#' comments; every key
has a typed default in RunConfig and unknown keys are rejected loudly. Each
setting is defined once: the solver's in SolverConfig, the scan's in
ScanConfig, and the grid, alpha0 and output settings in RunConfig, which
extends both.

Snapshots are JSON with an explicit format_version and a sha256 checksum
over the reprs of the values, so a truncated, hand-edited or mistyped file
is detected at load time rather than producing a silently wrong warm start.
Doubles are written through repr, which round-trips them exactly. The
loader keeps the text of every JSON number and verifies the checksum from
those tokens first; only a file that spells its numbers otherwise (0.50,
1E5) has the reprs of its values recomputed.

Each field array is formatted once across artifacts. The module keeps the
comma-joined reprs of the last x, u, v, phi0 and rho arrays it wrote, one
slot per field name, with the bytes of the array they came from. A write
whose array has the same bytes reuses the text; any other array is
formatted and replaces its slot. So the memo never holds more than five
arrays' text, and a snapshot followed by the profile table of the same
state, or the reverse, formats u and v once; an unchanged grid is
formatted once, and a state written again (a warm solve that returned its
input fields) has every column served from the memo.

All writers are deterministic: no timestamps, sorted JSON keys, repr
formatting for full-precision tables and 6 significant digits for the
human-facing summaries. Files are written to a temporary name in the
target directory and atomically renamed into place; tables are streamed
into the temporary file in chunks of rows, never built whole.

Importing the module loads no numpy: the configuration, the JSON summary
and the row tables (history, trace, dispersion) need only the standard
library, so the dispersion command runs without numpy. The field writers
(save_snapshot, write_profiles_csv) take a list of floats or an
array('d') without numpy, and a snapshot's checks, _read_snapshot, return
its fields as lists; load_snapshot turns those into numpy arrays. So a warm
solve that its first check certifies reads and writes its state on the
standard library alone. numpy, the grid and the spinor pair are imported
inside the functions that handle numpy arrays.
"""

import hashlib
import json
import math
import os
import tempfile
from array import array
from dataclasses import dataclass, field, fields, replace
from itertools import chain
from typing import Iterable, Sequence, Set, Tuple, Union

from .errors import (
    ConfigurationError,
    CorruptSnapshotError,
    ShapeError,
    UnsupportedSnapshotError,
    check_value,
)

__all__ = [
    "SolverConfig",
    "ScanConfig",
    "RunConfig",
    "Snapshot",
    "SNAPSHOT_FORMAT_VERSION",
    "load_config",
    "save_snapshot",
    "load_snapshot",
    "atomic_write_text",
    "write_profiles_csv",
    "write_history_csv",
    "write_trace_csv",
    "write_dispersion_csv",
    "write_summary_json",
]

SNAPSHOT_FORMAT_VERSION = 1


@dataclass
class SolverConfig:
    """Iteration controls.

    tau damps the field step; the frequency update is always the full mu.
    Far from convergence the fields move by that damped step; near it the
    damped step is the residual that Anderson mixing combines, so tau still
    scales every field update. Convergence requires the residual norm below
    tol_residual and |mu| below tol_residual times k.
    """

    tau: float = 0.5
    tol_residual: float = 1e-8
    max_iterations: int = 200

    def validate(self) -> "SolverConfig":
        check_value("tau", self.tau, 0.0, 1.0, open_low=True)
        check_value("tol_residual", self.tol_residual, 0.0, open_low=True)
        check_value("max_iterations", self.max_iterations, 1, integer=True)
        return self


@dataclass
class ScanConfig:
    """Controls for the coupling scan.

    a_start is the cold solve's coupling (the attractive branch needs
    a_start < 0); tol_k bounds |k^2 - 1| at acceptance; trial_b > 0 sets
    the scale of the cold solve's seed. The scan always makes two solves,
    so no setting caps their number.
    """

    a_start: float = -3.3
    tol_k: float = 1e-6
    trial_b: float = 1.0

    def validate(self) -> "ScanConfig":
        check_value("a_start", self.a_start, high=0.0, open_high=True)
        check_value("tol_k", self.tol_k, 0.0, open_low=True)
        check_value("trial_b", self.trial_b, 0.0, open_low=True)
        return self


@dataclass
class RunConfig(SolverConfig, ScanConfig):
    """Every tunable of a run, with the package defaults filled in.

    A RunConfig is a SolverConfig and a ScanConfig, so it is passed to
    solve_fixed_a and find_a0 as itself. The inherited fields come first,
    so construct it by keyword. validate() checks every value but the grid
    bounds and node count, which Grid checks.
    """

    theta_min: float = math.log(1e-6)
    theta_max: float = math.log(80.0)
    n_nodes: int = 2000
    alpha0: float = 10.0
    output_dir: str = "."
    formats: Set[str] = field(default_factory=lambda: {"csv", "json"})

    def validate(self) -> "RunConfig":
        SolverConfig.validate(self)
        ScanConfig.validate(self)
        check_value("alpha0", self.alpha0, 0.0, open_low=True)
        return self

    def build_grid(self) -> "Grid":
        from .grid import build_grid

        return build_grid(self.theta_min, self.theta_max, self.n_nodes)


_ALLOWED_FORMATS = {"csv", "json"}


def _parse_formats(text: str) -> Set[str]:
    parts = {p.strip() for p in text.split(",") if p.strip()}
    bad = parts - _ALLOWED_FORMATS
    if bad or not parts:
        raise ConfigurationError(
            f"formats must be a non-empty subset of {sorted(_ALLOWED_FORMATS)}, "
            f"got {text!r}"
        )
    return parts


def load_config(path: str) -> RunConfig:
    """Parse a flat key=value config file on top of the RunConfig defaults.

    Blank lines and '#' comments are skipped. Keys must match RunConfig
    fields exactly; anything else raises ConfigurationError, as do a file
    that is not UTF-8 text, a NUL character anywhere in it and a value that
    does not parse to the field's type. RunConfig.validate checks ranges.
    """
    known = {f.name: f for f in fields(RunConfig)}
    updates = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text ({exc})") from exc
    if "\0" in text:  # open() refuses a path with one, by ValueError
        raise ConfigurationError(f"{path}: not a text file (NUL character)")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}"
            )
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in known:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        # each field's declared type (float, int or str) parses its value
        parse = _parse_formats if key == "formats" else known[key].type
        try:
            updates[key] = parse(value)
        except ValueError as exc:
            raise ConfigurationError(
                f"{path}:{lineno}: bad value for {key}: {value!r} ({exc})"
            ) from exc
    return replace(RunConfig(), **updates)


# ---------------------------------------------------------------------------
# snapshots


@dataclass
class Snapshot:
    """Solver state sufficient for an exact warm start.

    The format version is not a field: save_snapshot always writes
    SNAPSHOT_FORMAT_VERSION, the one version load_snapshot reads.
    """

    theta_min: float
    theta_max: float
    n_nodes: int
    a: float
    k: float
    u: "np.ndarray"
    v: "np.ndarray"

    def pair(self) -> "SpinorPair":
        import numpy as np

        from .model import SpinorPair

        return SpinorPair(np.asarray(self.u, float), np.asarray(self.v, float))


_CANON_SCALARS = ("format_version", "theta_min", "theta_max", "n_nodes", "a", "k")
# JSON numbers as load_snapshot parses them: the ASCII bytes of a token with
# a fraction or an exponent, which no JSON string parses to, or an int (bool
# is an int subclass, not a number)
_NUMBER_TYPES = {bytes, int}
# json spells the non-finite doubles NaN/Infinity/-Infinity where repr
# gives nan/inf/-inf
_JSON_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _digest(texts: Sequence[str]) -> str:
    """sha256 of the canon: the value texts in _CANON_SCALARS order, then u, v."""
    return hashlib.sha256("|".join(texts).encode("ascii")).hexdigest()


def _snapshot_checksum(payload: dict) -> str:
    """Checksum over the reprs of a payload's values."""
    return _digest(
        [repr(payload[key]) for key in _CANON_SCALARS]
        + [",".join(repr(x) for x in payload[key]) for key in ("u", "v")]
    )


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_text(path: str, text: Union[str, Iterable[str]]) -> None:
    """Write text to path via a temporary file and an atomic rename.

    text is one string or an iterable of strings written in order, so a
    table can be streamed without building it whole. If the iterable
    raises, the temporary file is removed and path is left as it was. The
    file gets the mode a plain open() would give it (0o666 less the umask),
    not the owner-only mode of the temporary file.
    """
    if isinstance(text, str):
        text = (text,)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(text)
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# field name -> (bytes of the array, comma-joined reprs of its values) for
# the last x, u, v, phi0 and rho arrays written; see the module docstring
_FIELD_TEXTS = {}


def _field_text(name: str, values) -> str:
    """The comma-joined reprs of a 1-D field array, formatted once per content.

    The slot of name is reused while values has the bytes it was formatted
    from. The compare is exact, so 0.0 and -0.0 never share a text; a
    mismatch replaces the slot in one assignment.
    """
    data = values.tobytes()
    slot = _FIELD_TEXTS.get(name)
    if slot is None or slot[0] != data:
        slot = _FIELD_TEXTS[name] = (data, ",".join(map(repr, values.tolist())))
    return slot[1]


def _field(path: str, name: str, values):
    """A field array as doubles; ShapeError unless it is one-dimensional.

    A flat list or array('d') of numbers becomes an array('d'), without
    numpy: its tobytes and tolist serve the memo as an ndarray's do. Any
    other value becomes an ndarray.
    """
    if isinstance(values, (list, array)):
        try:
            return array("d", values)
        except TypeError:  # nested lists: numpy reports their shape
            pass
    import numpy as np

    values = np.asarray(values, float)
    if values.ndim != 1:
        raise ShapeError(f"{path}: {name} must be 1-D, got shape {values.shape}")
    return values


def _json_array(text: str) -> str:
    """A field's repr text laid out as json.dumps(..., indent=1) nests a list."""
    if not text:
        return "[]"
    if "n" in text:  # nan, inf or -inf: no finite repr has an n
        text = ",".join(_JSON_CONSTANTS.get(t, t) for t in text.split(","))
    return "[\n  " + text.replace(",", ",\n  ") + "\n ]"


def save_snapshot(path: str, snapshot: Snapshot) -> None:
    """Serialize a snapshot as checksummed JSON (full double precision).

    The file is json.dumps(payload, sort_keys=True, indent=1) plus a
    newline, laid out directly. The repr text of u and v comes from the
    field memo (the module docstring), so a state whose profile table was
    just written is not formatted again; the same text feeds the checksum
    and the body. Raises ShapeError, and writes nothing, unless u and v are
    one-dimensional.
    """
    version = SNAPSHOT_FORMAT_VERSION
    n_nodes = int(snapshot.n_nodes)
    scalars = [snapshot.theta_min, snapshot.theta_max, snapshot.a, snapshot.k]
    t_min, t_max, a, k = (repr(float(value)) for value in scalars)
    j_min, j_max, j_a, j_k = (_JSON_CONSTANTS.get(t, t) for t in (t_min, t_max, a, k))
    u = _field(path, "u", snapshot.u)
    v = _field(path, "v", snapshot.v)
    u_text, v_text = _field_text("u", u), _field_text("v", v)
    checksum = _digest([str(version), t_min, t_max, str(n_nodes), a, k, u_text, v_text])
    atomic_write_text(
        path,
        "{\n"
        f' "a": {j_a},\n'
        f' "checksum": "{checksum}",\n'
        f' "format_version": {version},\n'
        f' "k": {j_k},\n'
        f' "n_nodes": {n_nodes},\n'
        f' "theta_max": {j_max},\n'
        f' "theta_min": {j_min},\n'
        f' "u": {_json_array(u_text)},\n'
        f' "v": {_json_array(v_text)}\n'
        "}\n",
    )


def _text(value) -> str:
    """The text of a parsed JSON number."""
    return value.decode("ascii") if type(value) is bytes else str(value)


def _joined(values: list) -> str:
    """Comma-join the texts of parsed JSON numbers."""
    try:
        return b",".join(values).decode("ascii")
    except TypeError:  # JSON integers parse to int, not to token bytes
        return ",".join(map(_text, values))


def _parsed(value):
    """A value as json.load without parse_float would have returned it."""
    if isinstance(value, list):
        return [_parsed(x) for x in value]
    return float(value) if type(value) is bytes else value


def _finite(values: list) -> bool:
    """Whether every float in values is finite.

    A sum is finite only if every term is (an inf or a nan term leaves
    every later partial sum inf or nan), so only a list whose sum is not
    finite is checked value by value.
    """
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def load_snapshot(path: str) -> Snapshot:
    """Load and verify a snapshot.

    Raises CorruptSnapshotError for unparseable, incomplete, mistyped,
    non-finite or checksum-failing files and UnsupportedSnapshotError for a
    format_version this build does not know. Each value must be a JSON
    number (n_nodes a JSON integer) and finite. The checks are
    _read_snapshot's; this adds only the numpy arrays of u and v.
    """
    import numpy as np

    snap = _read_snapshot(path)
    return replace(snap, u=np.array(snap.u, float), v=np.array(snap.v, float))


def _read_snapshot(path: str) -> Snapshot:
    """load_snapshot on the standard library: u and v are lists of floats."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, parse_float=str.encode)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested too deep to decode
        raise CorruptSnapshotError(f"{path}: not valid snapshot JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise CorruptSnapshotError(f"{path}: snapshot root must be an object")
    version = payload.get("format_version")
    # a JSON integer, as n_nodes must be: true == 1 in Python, but is no version
    if type(version) is not int or version != SNAPSHOT_FORMAT_VERSION:
        raise UnsupportedSnapshotError(
            f"{path}: format_version {version!r} not supported "
            f"(this build reads {SNAPSHOT_FORMAT_VERSION})"
        )
    required = ("theta_min", "theta_max", "n_nodes", "a", "k", "u", "v", "checksum")
    missing = [key for key in required if key not in payload]
    if missing:
        raise CorruptSnapshotError(f"{path}: missing keys {missing}")
    scalars = [payload[key] for key in ("theta_min", "theta_max", "a", "k")]
    u, v = payload["u"], payload["v"]
    if not (
        type(payload["n_nodes"]) is int
        and set(map(type, scalars)) <= _NUMBER_TYPES
        and all(
            isinstance(x, list) and set(map(type, x)) <= _NUMBER_TYPES for x in (u, v)
        )
    ):
        raise CorruptSnapshotError(f"{path}: snapshot values must be JSON numbers")
    # A token that matches is the repr the writer hashed; only a file with
    # other spellings of its numbers (0.50, 1E5) needs the reprs recomputed.
    texts = [_text(payload[key]) for key in _CANON_SCALARS]
    if _digest(texts + [_joined(u), _joined(v)]) != payload["checksum"]:
        body = {key: _parsed(payload[key]) for key in _CANON_SCALARS + ("u", "v")}
        if _snapshot_checksum(body) != payload["checksum"]:
            raise CorruptSnapshotError(f"{path}: checksum mismatch")
    try:
        theta_min, theta_max, a, k = map(float, scalars)
        u, v = list(map(float, u)), list(map(float, v))
    except OverflowError as exc:  # an integer beyond the double range
        raise CorruptSnapshotError(f"{path}: snapshot values must be finite") from exc
    if not (_finite([theta_min, theta_max, a, k]) and _finite(u) and _finite(v)):
        raise CorruptSnapshotError(f"{path}: snapshot values must be finite")
    n_nodes = payload["n_nodes"]
    if len(u) != n_nodes or len(v) != n_nodes:
        raise CorruptSnapshotError(
            f"{path}: field arrays do not match n_nodes = {n_nodes!r}"
        )
    return Snapshot(
        theta_min=theta_min,
        theta_max=theta_max,
        n_nodes=n_nodes,
        a=a,
        k=k,
        u=u,
        v=v,
    )


# ---------------------------------------------------------------------------
# tables and summaries


# rows per piece of a streamed table
_CHUNK_ROWS = 1024


def _text_chunks(text: str):
    """Lists of up to _CHUNK_ROWS texts from a comma-joined text, split lazily."""
    while text:
        chunk = text.split(",", _CHUNK_ROWS)
        text = chunk.pop() if len(chunk) > _CHUNK_ROWS else ""
        yield chunk


def _csv(path: str, header: Sequence[str], columns) -> None:
    """Write 1-D field columns of doubles as repr text, one row per line.

    Each column takes its text from the field memo (the module docstring),
    under its header name. The file is streamed in chunks of _CHUNK_ROWS
    rows, so the whole text is never built. Raises ShapeError, and writes
    nothing, when a column is not 1-D or the lengths differ.
    """
    columns = [_field(path, name, col) for name, col in zip(header, columns)]
    if len({len(col) for col in columns}) > 1:
        raise ShapeError(
            f"{path}: columns of unequal length {[len(col) for col in columns]}"
        )
    chunks = [
        _text_chunks(_field_text(name, col)) for name, col in zip(header, columns)
    ]
    rows = ("\n".join(map(",".join, zip(*parts))) + "\n" for parts in zip(*chunks))
    atomic_write_text(path, chain([",".join(header) + "\n"], rows))


def _rows_csv(path: str, header: Sequence[str], rows) -> None:
    """Write rows of doubles as repr text, one row per line.

    Each cell is written as repr(float(cell)), so an integer count reads
    13.0, as in the field tables. ShapeError, and nothing written, on a
    ragged row.
    """
    rows = list(rows)
    widths = {len(row) for row in rows}
    if widths - {len(header)}:
        raise ShapeError(
            f"{path}: rows of width {sorted(widths)} under a header of {len(header)}"
        )
    lines = (",".join([repr(float(x)) for x in row]) + "\n" for row in rows)
    atomic_write_text(path, chain([",".join(header) + "\n"], lines))


def write_profiles_csv(path: str, grid: "Grid", u, v, phi0) -> None:
    """Radial profiles (x, u, v, phi0, rho) at full precision.

    Every column goes through the field memo: a profile table written next
    to a snapshot of the same state formats only phi0 and rho, and a table
    of a state whose fields are unchanged formats nothing. Only grid.xs,
    the node list, is read, so the grid's arrays are not built, and fields
    given as float sequences are written without numpy.
    """
    u, v = _field(path, "u", u), _field(path, "v", v)
    if array in (type(u), type(v)):  # rho element by element, as numpy forms it
        rho = array("d", [p * p + q * q for p, q in zip(u, v)])
    else:
        rho = u * u + v * v
    _csv(path, ("x", "u", "v", "phi0", "rho"), (grid.xs, u, v, phi0, rho))


def write_history_csv(path: str, k_history: Sequence[Tuple]) -> None:
    """Scan history rows (a, k, iterations, residual)."""
    _rows_csv(path, ("a", "k", "iterations", "residual"), k_history)


def write_trace_csv(path: str, trace: Sequence[Tuple]) -> None:
    """Inner iteration trace rows (iteration, k, residual_norm, mu)."""
    _rows_csv(path, ("iteration", "k", "residual_norm", "mu"), trace)


def write_dispersion_csv(path: str, points) -> None:
    """Dispersion table (P, E_electron, E_positron, L, K, velocity)."""
    _rows_csv(
        path,
        ("P", "E_electron", "E_positron", "L", "K", "velocity"),
        ((p.P, p.E_electron, p.E_positron, p.L, p.K, p.velocity) for p in points),
    )


def _sig6(value):
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, (list, tuple)):
        return [_sig6(v) for v in value]
    if isinstance(value, dict):
        return {k: _sig6(v) for k, v in value.items()}
    return value


def write_summary_json(path: str, summary: dict) -> None:
    """Human-facing summary: 6 significant digits, sorted keys, no clock."""
    atomic_write_text(
        path, json.dumps(_sig6(summary), sort_keys=True, indent=1) + "\n"
    )

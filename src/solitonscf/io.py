"""Run configuration, snapshots and deterministic output writers.

Configuration files are flat key=value text with '#' comments; every key
has a typed default in RunConfig and unknown keys are rejected loudly. Each
setting is defined once, as a keyword-only field of RunConfig: the
solver's, the scan's, the grid, alpha0 and the output settings.
SolverConfig and ScanConfig are other names of RunConfig.

Snapshots are JSON with an explicit format_version and a sha256 checksum
over the number tokens as written, so a truncated, hand-edited or mistyped
file is detected at load time rather than producing a silently wrong warm
start. A snapshot has one spelling. Doubles are written through repr, which
round-trips them exactly, so the tokens of a file save_snapshot writes are
the reprs of its values. The loader keeps the text of every JSON number and
verifies the checksum from those tokens alone: format_version and n_nodes
must be JSON integers and every other value a JSON number with a fraction
or an exponent, and a file whose numbers were re-spelled (0.50, 1E5)
without a new checksum is refused. No JSON number is NaN or infinite, so
save_snapshot refuses a non-finite value before it writes anything.

Each field array is formatted once across artifacts. The module keeps the
text of the last x, u, v, phi0 and rho arrays it wrote, one slot per field
name, keyed by the sha256 digest of the array's bytes. A field's text is a
tuple of chunks, each the comma-joined reprs of _CHUNK_ROWS values (the
last chunk, of the values left), and every writer takes the chunks as they
are: the snapshot's body and checksum one chunk at a time, the profile
table one chunk of rows at a time, as every column has the same length and
is chunked alike. The digest is taken on the array's own buffer, so the
memo holds five texts and five 32-byte digests, and no copy of any array.
A write whose array has the same digest reuses the text; any other array
is formatted and replaces its slot. So a snapshot followed by the profile
table of the same state, or the reverse, formats u and v once; an
unchanged grid is formatted once, and a state written again (a warm solve
that returned its input fields) has every column served from the memo.

All writers are deterministic: no timestamps, sorted JSON keys, repr
formatting for full-precision tables and 6 significant digits for the
human-facing summaries. Files are written to a temporary name in the
target directory and atomically renamed into place; tables and snapshots
are streamed into the temporary file in pieces, never built whole, and a
snapshot's checksum is fed in the same chunks, when it is written and
when it is read.

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
    NumericError,
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


@dataclass(kw_only=True)
class RunConfig:
    """Every tunable of a run, with the package defaults filled in.

    The solver's iteration controls: tau damps the field step; the
    frequency update is always the full mu. Far from convergence the fields
    move by that damped step; near it the damped step is the residual that
    Anderson mixing combines, so tau still scales every field update.
    Convergence requires the residual norm below tol_residual and |mu|
    below tol_residual times k; max_iterations caps each solve.

    trial_b > 0 sets the scale of the variational seed that starts every
    cold solve: the scan's first solve, and a solve_fixed_a or solve given
    no warm pair.

    The scan's: a_start is the cold solve's coupling (the attractive branch
    needs a_start < 0); tol_k bounds |k^2 - 1| at acceptance. The scan
    always makes two solves, so no setting caps their number.

    Then the grid (theta_min, theta_max, n_nodes), the mixing scale alpha0
    of the energy report, and the output directory and formats.

    Every field is keyword-only. SolverConfig and ScanConfig are other
    names of this class, so solve_fixed_a and find_a0 each read the one
    config whole. validate() checks every value but the grid bounds and
    node count, which Grid checks.
    """

    a_start: float = -3.3
    tol_k: float = 1e-6
    trial_b: float = 1.0
    tau: float = 0.5
    tol_residual: float = 1e-8
    max_iterations: int = 200
    theta_min: float = math.log(1e-6)
    theta_max: float = math.log(80.0)
    n_nodes: int = 2000
    alpha0: float = 10.0
    output_dir: str = "."
    formats: Set[str] = field(default_factory=lambda: {"csv", "json"})

    def validate(self) -> "RunConfig":
        check_value("tau", self.tau, 0.0, 1.0, open_low=True)
        check_value("tol_residual", self.tol_residual, 0.0, open_low=True)
        check_value("max_iterations", self.max_iterations, 1, integer=True)
        check_value("a_start", self.a_start, high=0.0, open_high=True)
        check_value("tol_k", self.tol_k, 0.0, open_low=True)
        check_value("trial_b", self.trial_b, 0.0, open_low=True)
        check_value("alpha0", self.alpha0, 0.0, open_low=True)
        return self

    def build_grid(self) -> "Grid":
        from .grid import build_grid

        return build_grid(self.theta_min, self.theta_max, self.n_nodes)


# the names that solve_fixed_a's and find_a0's callers build the config by
SolverConfig = ScanConfig = RunConfig


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


def _checksum(scalars: Sequence[bytes], fields) -> str:
    """sha256 of the canon: the number tokens of the values in _CANON_SCALARS
    order, then the comma-joined tokens of u and of v, joined by '|'.

    scalars holds the six scalar tokens. fields holds, for u and then v,
    an iterable of byte chunks, each the comma-joined tokens of a run of
    the field's values; the commas between chunks are put in here, so no
    field is ever joined whole.
    """
    digest = hashlib.sha256(b"|".join(scalars))
    for chunks in fields:
        digest.update(b"|")
        for i, chunk in enumerate(chunks):
            if i:
                digest.update(b",")
            digest.update(chunk)
    return digest.hexdigest()


def atomic_write_text(path: str, text: Union[str, Iterable[str]]) -> None:
    """Write text to path via a temporary file and an atomic rename.

    text is one string or an iterable of strings written in order, so a
    table can be streamed without building it whole. If the iterable
    raises, the temporary file is removed and path is left as it was. The
    temporary file is created with mode 0o666, which the kernel reduces by
    the umask, so the file gets the mode a plain open() would give it.
    """
    if isinstance(text, str):
        text = (text,)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = _create_temporary(directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _create_temporary(directory: str) -> Tuple[int, str]:
    """A new file .tmp-<random> in directory, opened for writing, and its path.

    O_EXCL makes the name the caller's alone; a name already taken is
    drawn again, as tempfile.mkstemp does.
    """
    for _ in range(tempfile.TMP_MAX):
        tmp = os.path.join(directory, ".tmp-" + os.urandom(8).hex())
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue
    raise FileExistsError(f"no free temporary name in {directory}")


# values per chunk of a field's text, and so rows per piece of a profile
# table, and tokens per piece of a snapshot's checksum as it is read
_CHUNK_ROWS = 1024

# field name -> (sha256 digest of the array's bytes, its text in chunks of
# _CHUNK_ROWS comma-joined reprs) for the last x, u, v, phi0 and rho arrays
# written; see the module docstring
_FIELD_TEXTS = {}


def _field_text(name: str, values) -> Tuple[str, ...]:
    """The reprs of a 1-D field array in chunks, formatted once per content.

    Each chunk is the comma-joined reprs of _CHUNK_ROWS values, the last
    one of the values left. The slot of name is reused while the sha256 of values'
    bytes is the digest it was formatted under. The bytes are hashed in
    place, through the array's buffer; only a strided array is copied to a
    contiguous one first. 0.0 and -0.0 differ in their bytes, so they never
    share a text. No list of every repr is built, and a mismatch replaces
    the slot in one assignment.
    """
    view = memoryview(values)
    key = hashlib.sha256(view if view.c_contiguous else view.tobytes()).digest()
    slot = _FIELD_TEXTS.get(name)
    if slot is None or slot[0] != key:
        chunks = tuple(
            ",".join(map(repr, values[start : start + _CHUNK_ROWS].tolist()))
            for start in range(0, len(values), _CHUNK_ROWS)
        )
        slot = _FIELD_TEXTS[name] = (key, chunks)
    return slot[1]


def _field(path: str, name: str, values):
    """A field array as doubles; ShapeError unless it is one-dimensional.

    An array('d') or a 1-D memoryview of doubles (a Grid's buffers) is
    returned as it is, and a flat list or other array of numbers becomes an
    array('d'), without numpy: its buffer, slices and tolist serve the memo
    as an ndarray's do. Any other value becomes an ndarray.
    """
    if isinstance(values, (array, memoryview)):
        view = memoryview(values)
        if view.format == "d" and view.ndim == 1:
            return values
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


def _json_array(chunks: Tuple[str, ...]):
    """A field's repr chunks laid out as json.dumps(..., indent=1) nests a
    list, in pieces: the brackets and one piece per chunk."""
    if not chunks:
        yield "[]"
        return
    yield "[\n  "
    for i, chunk in enumerate(chunks):
        yield (",\n  " if i else "") + chunk.replace(",", ",\n  ")
    yield "\n ]"


def save_snapshot(path: str, snapshot: Snapshot) -> None:
    """Serialize a snapshot as checksummed JSON (full double precision).

    The file is json.dumps(payload, sort_keys=True, indent=1) plus a
    newline, laid out directly. The repr chunks of u and v come from the
    field memo (the module docstring), so a state whose profile table was
    just written is not formatted again; the same chunks feed the checksum
    and the body, and the checksum covers those reprs, the file's tokens.
    Both take one chunk at a time: the body is streamed to the file, and
    neither the whole body nor an encoded copy of a field is built.

    Raises ShapeError unless u and v are one-dimensional with n_nodes
    values each, and NumericError if a value is not finite: no JSON number
    spells one, so load_snapshot would refuse the file. Either way nothing
    is written, not even a temporary file, and path is left as it was.
    """
    version = SNAPSHOT_FORMAT_VERSION
    n_nodes = int(snapshot.n_nodes)
    scalars = [snapshot.theta_min, snapshot.theta_max, snapshot.a, snapshot.k]
    t_min, t_max, a, k = (repr(float(value)) for value in scalars)
    u = _field(path, "u", snapshot.u)
    v = _field(path, "v", snapshot.v)
    if len(u) != n_nodes or len(v) != n_nodes:
        raise ShapeError(f"{path}: u and v must hold n_nodes = {n_nodes} values each")
    u_text, v_text = _field_text("u", u), _field_text("v", v)
    tokens = [str(version), t_min, t_max, str(n_nodes), a, k]
    if any("n" in text for text in chain(tokens, u_text, v_text)):
        # nan, inf, -inf: no finite repr has an n
        raise NumericError(f"{path}: snapshot values must be finite")
    checksum = _checksum(
        [token.encode("ascii") for token in tokens],
        [(chunk.encode("ascii") for chunk in text) for text in (u_text, v_text)],
    )
    head = (
        "{\n"
        f' "a": {a},\n'
        f' "checksum": "{checksum}",\n'
        f' "format_version": {version},\n'
        f' "k": {k},\n'
        f' "n_nodes": {n_nodes},\n'
        f' "theta_max": {t_max},\n'
        f' "theta_min": {t_min},\n'
        ' "u": '
    )
    atomic_write_text(
        path,
        chain(
            [head], _json_array(u_text), [',\n "v": '], _json_array(v_text), ["\n}\n"]
        ),
    )


def _finite(values: list) -> bool:
    """Whether every float in values is finite.

    A sum is finite only if every term is (an inf or a nan term leaves
    every later partial sum inf or nan), so only a list whose sum is not
    finite is checked value by value.
    """
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def _float_list(tokens: list):
    """The floats of a field's tokens as a list, or None unless all are finite."""
    values = list(map(float, tokens))
    return values if _finite(values) else None


def load_snapshot(path: str) -> Snapshot:
    """Load and verify a snapshot.

    Raises CorruptSnapshotError for unparseable, incomplete, mistyped,
    non-finite or checksum-failing files and UnsupportedSnapshotError for a
    format_version this build does not know. n_nodes must be a JSON
    integer, and theta_min, theta_max, a, k and the values of u and v JSON
    numbers with a fraction or an exponent, all finite. The checksum must
    be the sha256 of the number tokens as written, so every file
    save_snapshot wrote loads, and one whose numbers were re-spelled
    without a new checksum does not. The checks are _read_snapshot's; this
    converts the tokens of u and v straight into numpy arrays, with no list
    of floats in between.
    """
    import numpy as np

    def floats(tokens):
        values = np.fromiter(map(float, tokens), float, len(tokens))
        return values if np.isfinite(values).all() else None

    return _read_snapshot(path, floats)


def _read_snapshot(path: str, floats=_float_list) -> Snapshot:
    """load_snapshot on the standard library: u and v are lists of floats.

    floats turns the tokens of a field into its values, or None unless all
    are finite. The token lists of u and v are taken out of the parsed
    payload, and each is freed once converted; the checksum reads them in
    chunks of _CHUNK_ROWS tokens, as save_snapshot feeds it, so no field is
    joined whole.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, parse_float=str.encode)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON, bad UTF-8 or an integer too long to convert;
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
    u, v = payload.pop("u"), payload.pop("v")
    # A JSON number with a fraction or an exponent parses to the bytes of
    # its token, which no other JSON value parses to; a JSON integer to an
    # int (bool is an int subclass, not a JSON integer). The values of u
    # and v are checked by the checksum's joins, which take only bytes.
    mistyped = f"{path}: snapshot values must be JSON numbers"
    if not (
        type(payload["n_nodes"]) is int
        and set(map(type, scalars)) <= {bytes}
        and all(isinstance(x, list) for x in (u, v))
    ):
        raise CorruptSnapshotError(mistyped)
    tokens = [payload[key] for key in _CANON_SCALARS]
    tokens = [t if type(t) is bytes else str(t).encode() for t in tokens]
    try:
        checksum = _checksum(tokens, [_joined(u), _joined(v)])
    except TypeError:
        raise CorruptSnapshotError(mistyped) from None
    if checksum != payload["checksum"]:
        raise CorruptSnapshotError(f"{path}: checksum mismatch")
    theta_min, theta_max, a, k = map(float, scalars)
    # each token list is freed once converted; None stops at the first
    # non-finite value
    u = floats(u) if _finite([theta_min, theta_max, a, k]) else None
    v = None if u is None else floats(v)
    if v is None:
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


def _joined(tokens: list):
    """The comma-joined tokens in chunks of _CHUNK_ROWS tokens; TypeError if
    a token is not bytes."""
    for start in range(0, len(tokens), _CHUNK_ROWS):
        yield b",".join(tokens[start : start + _CHUNK_ROWS])


# ---------------------------------------------------------------------------
# tables and summaries


def _csv(path: str, header: Sequence[str], columns) -> None:
    """Write 1-D field columns of doubles as repr text, one row per line.

    Each column takes its repr chunks from the field memo (the module
    docstring), under its header name. Every column has the same length
    and is chunked alike, so the i-th chunks of the columns hold the same
    rows: the file is streamed one chunk of rows at a time, and the whole
    text is never built. Raises ShapeError, and writes nothing, when a
    column is not 1-D or the lengths differ.
    """
    columns = [_field(path, name, col) for name, col in zip(header, columns)]
    if len({len(col) for col in columns}) > 1:
        raise ShapeError(
            f"{path}: columns of unequal length {[len(col) for col in columns]}"
        )
    texts = [_field_text(name, col) for name, col in zip(header, columns)]
    cells = (zip(*[chunk.split(",") for chunk in chunks]) for chunks in zip(*texts))
    rows = ("\n".join(map(",".join, part)) + "\n" for part in cells)
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
    the node buffer, is read, and written without a copy, so the grid's
    arrays are not built, and fields given as float sequences are written
    without numpy.
    """
    u, v = _field(path, "u", u), _field(path, "v", v)
    # rho element by element, as numpy forms it, unless both are ndarrays
    if {type(u), type(v)} & {array, memoryview}:
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

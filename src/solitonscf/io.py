"""Run configuration, snapshots and deterministic output writers.

Configuration files are flat key=value text with '#' comments; every key
has a typed default in RunConfig and unknown keys are rejected loudly.

Snapshots are JSON with an explicit format_version and a sha256 checksum
over the numeric payload, so a truncated or hand-edited file is detected
at load time rather than producing a silently wrong warm start. Arrays are
serialized through repr, which round-trips doubles exactly.

All writers are deterministic: no timestamps, sorted JSON keys, repr
formatting for full-precision tables and 6 significant digits for the
human-facing summaries. Files are written to a temporary name in the
target directory and atomically renamed into place.
"""

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field, fields, replace
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import (
    ConfigurationError,
    CorruptSnapshotError,
    UnsupportedSnapshotError,
)
from .grid import Grid, build_grid
from .model import SpinorPair

__all__ = [
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
class RunConfig:
    """Every tunable of a run, with the package defaults filled in."""

    theta_min: float = float(np.log(1e-6))
    theta_max: float = float(np.log(80.0))
    n_nodes: int = 2000
    tau: float = 0.5
    tol_residual: float = 1e-8
    max_iterations: int = 200
    a_start: float = -3.3
    tol_k: float = 1e-6
    max_evals: int = 30
    alpha0: float = 10.0
    trial_b: float = 1.0
    output_dir: str = "."
    formats: Set[str] = field(default_factory=lambda: {"csv", "json"})

    def build_grid(self) -> Grid:
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


def load_config(path: str, base: Optional[RunConfig] = None) -> RunConfig:
    """Parse a flat key=value config file on top of the defaults.

    Blank lines and '#' comments are skipped. Keys must match RunConfig
    fields exactly; anything else raises ConfigurationError, as does a
    value that does not parse to the field's type.
    """
    cfg = base or RunConfig()
    known = {f.name: f for f in fields(RunConfig)}
    updates = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
            try:
                if key == "formats":
                    updates[key] = _parse_formats(value)
                elif key == "output_dir":
                    updates[key] = value
                elif key in ("n_nodes", "max_iterations", "max_evals"):
                    updates[key] = int(value)
                else:
                    updates[key] = float(value)
            except ValueError as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: bad value for {key}: {value!r} ({exc})"
                ) from exc
    return replace(cfg, **updates)


# ---------------------------------------------------------------------------
# snapshots


@dataclass
class Snapshot:
    """Solver state sufficient for an exact warm start."""

    theta_min: float
    theta_max: float
    n_nodes: int
    a: float
    k: float
    u: np.ndarray
    v: np.ndarray
    format_version: int = SNAPSHOT_FORMAT_VERSION

    def grid(self) -> Grid:
        return build_grid(self.theta_min, self.theta_max, self.n_nodes)

    def pair(self) -> SpinorPair:
        return SpinorPair(np.asarray(self.u, float), np.asarray(self.v, float))


def _snapshot_checksum(payload: dict) -> str:
    canon = "|".join(
        [
            str(payload["format_version"]),
            repr(payload["theta_min"]),
            repr(payload["theta_max"]),
            str(payload["n_nodes"]),
            repr(payload["a"]),
            repr(payload["k"]),
            ",".join(repr(x) for x in payload["u"]),
            ",".join(repr(x) for x in payload["v"]),
        ]
    )
    return hashlib.sha256(canon.encode("ascii")).hexdigest()


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temporary file and an atomic rename.

    The file gets the mode a plain open() would give it (0o666 less the
    umask), not the owner-only mode of the temporary file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_snapshot(path: str, snapshot: Snapshot) -> None:
    """Serialize a snapshot as checksummed JSON (full double precision)."""
    payload = {
        "format_version": int(snapshot.format_version),
        "theta_min": float(snapshot.theta_min),
        "theta_max": float(snapshot.theta_max),
        "n_nodes": int(snapshot.n_nodes),
        "a": float(snapshot.a),
        "k": float(snapshot.k),
        "u": [float(x) for x in np.asarray(snapshot.u, float)],
        "v": [float(x) for x in np.asarray(snapshot.v, float)],
    }
    payload["checksum"] = _snapshot_checksum(payload)
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def load_snapshot(path: str) -> Snapshot:
    """Load and verify a snapshot.

    Raises CorruptSnapshotError for unparseable, incomplete or
    checksum-failing files and UnsupportedSnapshotError for a
    format_version this build does not know.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptSnapshotError(f"{path}: not valid snapshot JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise CorruptSnapshotError(f"{path}: snapshot root must be an object")
    version = payload.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise UnsupportedSnapshotError(
            f"{path}: format_version {version!r} not supported "
            f"(this build reads {SNAPSHOT_FORMAT_VERSION})"
        )
    required = ("theta_min", "theta_max", "n_nodes", "a", "k", "u", "v", "checksum")
    missing = [key for key in required if key not in payload]
    if missing:
        raise CorruptSnapshotError(f"{path}: missing keys {missing}")
    body = {key: payload[key] for key in required if key != "checksum"}
    body["format_version"] = version
    if _snapshot_checksum(body) != payload["checksum"]:
        raise CorruptSnapshotError(f"{path}: checksum mismatch")
    u = np.asarray(payload["u"], dtype=float)
    v = np.asarray(payload["v"], dtype=float)
    if u.shape != v.shape or u.ndim != 1 or u.size != int(payload["n_nodes"]):
        raise CorruptSnapshotError(
            f"{path}: field arrays do not match n_nodes = {payload['n_nodes']!r}"
        )
    return Snapshot(
        theta_min=float(payload["theta_min"]),
        theta_max=float(payload["theta_max"]),
        n_nodes=int(payload["n_nodes"]),
        a=float(payload["a"]),
        k=float(payload["k"]),
        u=u,
        v=v,
        format_version=int(version),
    )


# ---------------------------------------------------------------------------
# tables and summaries


def _csv(path: str, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(repr(float(c)) for c in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_profiles_csv(path: str, grid: Grid, u, v, phi0) -> None:
    """Radial profiles (x, u, v, phi0, rho) at full precision."""
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    rho = u * u + v * v
    _csv(
        path,
        ("x", "u", "v", "phi0", "rho"),
        zip(grid.x, u, v, np.asarray(phi0, float), rho),
    )


def write_history_csv(path: str, k_history: Sequence[Tuple]) -> None:
    """Scan history rows (a, k, iterations, residual)."""
    _csv(path, ("a", "k", "iterations", "residual"), k_history)


def write_trace_csv(path: str, trace: Sequence[Tuple]) -> None:
    """Inner iteration trace rows (iteration, k, residual_norm, mu)."""
    _csv(path, ("iteration", "k", "residual_norm", "mu"), trace)


def write_dispersion_csv(path: str, points) -> None:
    """Dispersion table (P, E_electron, E_positron, L, K, velocity)."""
    _csv(
        path,
        ("P", "E_electron", "E_positron", "L", "K", "velocity"),
        (
            (p.P, p.E_electron, p.E_positron, p.L, p.K, p.velocity)
            for p in points
        ),
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

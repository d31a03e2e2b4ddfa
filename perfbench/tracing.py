"""Outside-in spans for the traced benchmark run.

The program carries no instrumentation of its own, so the traced run wraps
the public functions of each solitonscf module from here. Python resolves a
function through the namespace that bound it (``from .grid import
integrate`` gives ``solver.integrate`` its own binding), so one wrapper per
function is installed under every name, in every solitonscf module, that
holds that function; a binding left unwrapped would let calls bypass the
span. Banded LU gets a wrapper of its own around ``solver.solve_banded``.

A span is (name, start, end, parent, job, info). Spans live in memory and
are written out once, when the run ends. Self time of a span is its
duration minus the part its child spans cover.
"""

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import namedtuple

PACKAGE = "solitonscf"
LAYERS = ("cli", "scan", "solver", "model", "grid", "functional", "dispersion", "io")

# scipy.linalg.solve_banded copies the (kl + ku + 1) = 5-row band into a
# (2 kl + ku + 1) = 7-row factor array and the right-hand sides into the
# solution array, so one call touches 5 + 7 + 2 * nrhs doubles per unknown.
_BAND_ROWS = 5
_LU_ROWS = 7


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "info")

    def __init__(self, name, start, end=0.0, parent=None, job=None, info=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.job = job
        self.info = info

    @property
    def duration(self):
        return self.end - self.start

    def to_list(self):
        return [self.name, self.start, self.end, self.parent, self.job, self.info]


class Tracer:
    """Records nested spans; ``install`` wraps the program's functions."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._bindings = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent=parent, job=self.job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def current(self):
        """Index of the innermost open span."""
        return self._stack[-1]

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def add(self, name, start, end, parent=None):
        """Append a finished span."""
        self.spans.append(Span(name, start, end, parent, self.job))

    def merge(self, spans, parent):
        """Append spans recorded elsewhere; their roots hang under parent."""
        base = len(self.spans)
        for s in spans:
            self.spans.append(
                Span(
                    s.name,
                    s.start,
                    s.end,
                    parent if s.parent is None else base + s.parent,
                    self.job,
                    s.info,
                )
            )

    def wrap(self, name, fn, hook=None):
        """Return fn wrapped in a span; hook(span, args, kwargs, result)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.info = {"error": True}
                raise
            finally:
                self.close(span)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public function of the layers at each of its bindings."""
        if not self._bindings:
            self._bindings = self._find_bindings()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        return self

    def uninstall(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _find_bindings(self):
        importlib.import_module(PACKAGE + ".cli")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    name = f"{layer}.{attr}"
                    hook = _HOOKS[name](obj) if name in _HOOKS else None
                    wrappers[id(obj)] = (obj, self.wrap(name, obj, hook))
        banded = sys.modules[PACKAGE + ".solver"].solve_banded
        wrappers[id(banded)] = (banded, self.wrap("solver.banded_lu", banded, _banded_hook))
        bindings = []
        for key, module in list(sys.modules.items()):
            if key != PACKAGE and not key.startswith(PACKAGE + "."):
                continue
            for attr, obj in vars(module).items():
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    bindings.append((module, attr, obj, hit[1]))
        return bindings

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.to_list() for s in self.spans], fh)


def read_spans(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [Span(*row) for row in json.load(fh)]


# ---------------------------------------------------------------------------
# hooks: counts taken where the work happens


def band_bytes(unknowns, nrhs=2, itemsize=8):
    """Bytes one banded solve touches, computed from the array shapes."""
    return (_BAND_ROWS + _LU_ROWS + 2 * nrhs) * unknowns * itemsize


def _banded_hook(span, args, kwargs, result):
    ab = args[1] if len(args) > 1 else kwargs["ab"]
    rhs = args[2] if len(args) > 2 else kwargs["b"]
    nrhs = rhs.shape[1] if rhs.ndim == 2 else 1
    span.info = {"bytes": band_bytes(ab.shape[1], nrhs, ab.itemsize)}


def _solve_hook(fn):
    signature = inspect.signature(fn)

    def hook(span, args, kwargs, result):
        init = signature.bind(*args, **kwargs).arguments.get("init")
        span.info = {"iterations": int(result.iteration), "init_none": init is None}

    return hook


def _size_hook(fn):
    signature = inspect.signature(fn)

    def hook(span, args, kwargs, result):
        path = signature.bind(*args, **kwargs).arguments["path"]
        span.info = {"bytes": os.path.getsize(path)}

    return hook


_HOOKS = {
    "solver.solve_fixed_a": _solve_hook,
    "io.load_snapshot": _size_hook,
    "io.load_config": _size_hook,
    "io.atomic_write_text": _size_hook,
}


# ---------------------------------------------------------------------------
# accounting

Solve = namedtuple("Solve", "job cold iterations steps failed in_scan")


def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def _nearest(spans, index, name):
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return parent
        parent = spans[parent].parent
    return None


def solves(spans):
    """One Solve per solve_fixed_a span, in call order.

    A solve is cold when it starts from the built-in seed (no init) or is
    the first solve of a coupling scan, which seeds it from the variational
    family; every later solve of a scan and every snapshot start is warm.
    iterations is None for a solve that raised.
    """
    steps = {}
    for i, s in enumerate(spans):
        if s.name == "solver.newton_step":
            owner = _nearest(spans, i, "solver.solve_fixed_a")
            steps[owner] = steps.get(owner, 0) + 1
    seen_scans = set()
    out = []
    for i, s in enumerate(spans):
        if s.name != "solver.solve_fixed_a":
            continue
        info = s.info or {}
        scan = _nearest(spans, i, "scan.find_a0")
        cold = bool(info.get("init_none")) or (scan is not None and scan not in seen_scans)
        seen_scans.add(scan)
        out.append(
            Solve(s.job, cold, info.get("iterations"), steps.get(i, 0),
                  bool(info.get("error")), scan is not None)
        )
    return out


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, jobs):
    """Per-layer metrics from a finished span list, as {name: (value, unit)}.

    Times and counts are per traced job; spans with job None (set-up) are
    left out of them but do count toward the per-solve iteration means.
    Function times are inclusive of the function's callees; names ending
    in ``.self_s`` are self times.
    """
    jobs = max(jobs, 1)
    own = self_times(spans)
    total, self_total, calls, nbytes = {}, {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, own):
        if s.job is None:
            continue
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_total[s.name] = self_total.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.info and "bytes" in s.info:
            nbytes[s.name] = nbytes.get(s.name, 0) + s.info["bytes"]
        layer = s.name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += t

    def incl(*names):
        return sum(total.get(n, 0.0) for n in names) / jobs

    def own_s(name):
        return self_total.get(name, 0.0) / jobs

    def count(name):
        return calls.get(name, 0) / jobs

    solve_list = solves(spans)
    scan_solves = [r for r in solve_list if r.in_scan and r.job is not None]
    done = [r for r in solve_list if not r.failed]
    steps = sum(r.steps for r in done)
    scans = calls.get("scan.find_a0", 0)
    banded = calls.get("solver.banded_lu", 0)
    csv_writers = (
        "io.write_profiles_csv",
        "io.write_history_csv",
        "io.write_trace_csv",
        "io.write_dispersion_csv",
    )
    m = {
        "cli.startup_s": (incl("cli.startup"), "s/job"),
        "cli.import_s": (incl("cli.import"), "s/job"),
        "cli.main_s": (incl("cli.main"), "s/job"),
        "scan.solves_per_scan": (len(scan_solves) / scans if scans else 0.0, "solves/scan"),
        "scan.failed_solves": (sum(r.failed for r in scan_solves) / jobs, "solves/job"),
        "scan.find_a0.self_s": (own_s("scan.find_a0"), "s/job"),
        "scan.verify_extremum_s": (incl("scan.verify_extremum"), "s/job"),
        "solver.iterations_cold": (_mean([r.iterations for r in done if r.cold]), "iter/solve"),
        "solver.iterations_warm": (
            _mean([r.iterations for r in done if not r.cold]),
            "iter/solve",
        ),
        "solver.step_accept_ratio": (
            sum(r.iterations for r in done) / steps if steps else 0.0,
            "ratio",
        ),
        "solver.solve_fixed_a_calls": (count("solver.solve_fixed_a"), "calls/job"),
        "solver.solve_corrections.self_s": (own_s("solver.solve_corrections"), "s/job"),
        "solver.banded_lu_s": (incl("solver.banded_lu"), "s/job"),
        "solver.banded_lu_calls": (count("solver.banded_lu"), "calls/job"),
        "solver.ode_residual_s": (incl("solver.ode_residual"), "s/job"),
        "solver.newton_step.self_s": (own_s("solver.newton_step"), "s/job"),
        "solver.mu_update_s": (incl("solver.mu_update"), "s/job"),
        "solver.band_bytes_computed": (
            nbytes.get("solver.banded_lu", 0) / banded if banded else 0.0,
            "B/call",
        ),
        "model.potential_s": (incl("model.potential"), "s/job"),
        "model.potential_calls": (count("model.potential"), "calls/job"),
        "model.density_s": (incl("model.density"), "s/job"),
        "model.density_calls": (count("model.density"), "calls/job"),
        "grid.integrate_s": (incl("grid.integrate"), "s/job"),
        "grid.integrate_calls": (count("grid.integrate"), "calls/job"),
        "functional.energy_report_s": (incl("functional.energy_report"), "s/job"),
        "dispersion.dispersion_table_s": (incl("dispersion.dispersion_table"), "s/job"),
        "io.load_snapshot_s": (incl("io.load_snapshot"), "s/job"),
        "io.save_snapshot_s": (incl("io.save_snapshot"), "s/job"),
        "io.write_csv_s": (incl(*csv_writers), "s/job"),
        "io.write_summary_json_s": (incl("io.write_summary_json"), "s/job"),
        "io.bytes_read": (
            (nbytes.get("io.load_snapshot", 0) + nbytes.get("io.load_config", 0)) / jobs,
            "B/job",
        ),
        "io.bytes_written": (nbytes.get("io.atomic_write_text", 0) / jobs, "B/job"),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (layer_self[layer] / jobs, "s/job")
    m["job.unattributed_s"] = (own_s("job"), "s/job")
    m["trace.spans_per_job"] = (sum(calls.values()) / jobs, "spans/job")
    return m

"""The benchmark's workloads: generated inputs, set-up, one job and its check.

Each workload is a closed loop with one client: job i + 1 starts after job
i has finished and been checked. Inputs come from a seeded generator and
are fixed before the first job, so the same seed gives the same inputs and
the program sees only the generated values. ``run`` does the program's
work for one job (the timed part); ``check`` verifies what it produced.

Why each workload exists (see README.md for the layer table):

- cli_session: the user path, four fresh commands per session. Interpreter
  start and imports dominate, so it shows gains in ``cli`` and import time.
- scan_inproc: find_a0 + verify_extremum in one process on the default
  2000-node grid, from cold starts that do not fail. ``scan`` and
  ``solver`` do nearly all the work.
- continuation_fine: warm continuation on a 16000-node grid with snapshot
  reads and writes. ``io`` dominates, ``scan`` is never called, and the
  band working set exceeds the per-core L2.
"""

import hashlib
import importlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time

import numpy as np

from tracing import read_spans

A_RANGE = (-4.4, -1.6)          # seeded couplings of warm solves
# Cold scan starts of the timed jobs: a 0.002 grid on [-3.8, -2.8]. Cold
# starts fail in bands elsewhere in A_RANGE, and now and then at an
# isolated start inside this interval (a_start = -3.657911 ends in
# NonConvergenceError). A benchmark job must not fail, so timed scans
# start only at these 501 points, each of which verified on a full map.
# The failures are measured apart from the jobs, on COLD_START_PROBES.
A_SCAN_STARTS = tuple(round(-3.8 + 0.002 * k, 6) for k in range(501))
# Fixed cold starts 0.1 apart over all of A_RANGE; the share that verifies
# is the traced run's scan.cold_start_ok_frac.
COLD_START_PROBES = tuple(round(-4.4 + 0.1 * k, 6) for k in range(29))
B_RANGE = (0.5, 2.0)            # seeded trial-family scales
STEP_RANGE = (0.05, 0.4)        # |da| of one continuation step
A_CONTINUATION_START = -3.3
FINE_NODES = 16000
INPUTS_PER_RUN = 4096           # more jobs than any run can reach

A0_REFERENCE = -2.31241249      # frozen default scan, 2000 nodes
A0_TOL = 5e-7                   # the frozen test tolerance on a0
# k^2 a is invariant in a; a converged solve holds it to about the inner
# tolerance (1e-8 per step). Observed spread along continuation paths and
# warm CLI solves: up to 3.3e-8.
LAM_TOL = 1e-7
EXTREMUM_TOL = 1e-3             # acceptance criterion 5
DISPERSION_ROWS = 41
COMMAND_TIMEOUT_S = 120
CLI_COMMANDS = ("scan", "dispersion", "solve", "trial-eval")   # one session


class JobFailed(Exception):
    """The program reported a failure: an error raised or a non-zero exit."""


class Mismatch(Exception):
    """The program finished but its output did not verify."""


def stratified(rng, lo, hi, n, strata=16):
    """n draws from [lo, hi]: each block of `strata` consecutive draws puts
    one uniform draw in each of `strata` equal sub-intervals, shuffled.

    Every stretch of jobs then covers the range evenly, so the share of
    inputs that land in a slow band varies little between seeds.
    """
    out = []
    while len(out) < n:
        block = [lo + (hi - lo) * (k + rng.random()) / strata for k in range(strata)]
        rng.shuffle(block)
        out.extend(block)
    return out[:n]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(path):
    """Parse a JSON file, refusing NaN and Infinity."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise Mismatch(f"{os.path.basename(path)}: {exc}") from exc


def _describe(exc):
    """The error's type and the type that caused it."""
    cause = exc.__cause__
    return type(exc).__name__ + (f" <- {type(cause).__name__}" if cause else "")


def _expect(condition, message):
    if not condition:
        raise Mismatch(message)


def count_sign_changes(values, threshold=1e-8):
    """Interior sign changes of a profile, ignoring sub-threshold noise."""
    z = np.asarray(values, dtype=float)
    core = z[np.abs(z) > threshold * np.max(np.abs(z))]
    return int(np.sum(np.signbit(core[1:]) != np.signbit(core[:-1])))


def midpoint_residual(x, h, u, v, k, phi):
    """Max-norm of the box-scheme residuals of both radial equations."""
    kk = k * k
    phi_m = 0.5 * (phi[1:] + phi[:-1])
    xm = np.sqrt(x[1:] * x[:-1])
    um = 0.5 * (u[1:] + u[:-1])
    vm = 0.5 * (v[1:] + v[:-1])
    r_u = (u[1:] - u[:-1]) / (h * xm) - um / xm - (1.0 - kk * phi_m) * vm
    r_v = (v[1:] - v[:-1]) / (h * xm) + vm / xm - (1.0 + kk * phi_m) * um
    return float(max(np.max(np.abs(r_u)), np.max(np.abs(r_v))))


class Workload:
    name = ""
    nodes = 2000
    jobs_per_round = 1

    def __init__(self, seed, workdir, root):
        self.seed = int(seed)
        self.workdir = workdir
        self.root = root
        os.makedirs(workdir, exist_ok=True)
        rng = random.Random(f"{self.name}:{self.seed}")
        self.inputs = self.generate(rng)

    def generate(self, rng):
        raise NotImplementedError

    def digest(self):
        text = json.dumps(self.inputs, sort_keys=True)
        return hashlib.sha256(text.encode("ascii")).hexdigest()

    def _import(self):
        self.sc = importlib.import_module("solitonscf")
        self.io = importlib.import_module("solitonscf.io")

    def setup(self):
        """Import the program, build the grid, prepare the first job."""
        raise NotImplementedError

    def peak_rss_kib(self):
        """Peak resident memory of the program's own processes, in KiB, or
        None when the program runs in the benchmark's process."""
        return None

    def rewind(self, i):
        """Undo job i's effect on the next job, so job i can run again."""

    def run(self, i, tracer=None):
        raise NotImplementedError

    def check(self, i, outcome):
        raise NotImplementedError


class CliSession(Workload):
    """scan, dispersion, warm solve and trial-eval as four fresh commands."""

    name = "cli_session"
    jobs_per_round = 4
    max_rss_kib = 0                 # largest ru_maxrss of a command so far

    def generate(self, rng):
        a = stratified(rng, *A_RANGE, INPUTS_PER_RUN)
        b = stratified(rng, *B_RANGE, INPUTS_PER_RUN)
        return [{"a": round(x, 6), "b": round(y, 6)} for x, y in zip(a, b)]

    def setup(self):
        # What every command pays before its own work: the package import
        # and the default grid.
        importlib.import_module("solitonscf.cli")
        self._import()
        self.io.RunConfig().build_grid()
        self.a0 = None
        self.session_dir = None

    def peak_rss_kib(self):
        return self.max_rss_kib

    def _argv(self, i, out):
        session = self.inputs[i // 4]
        command = CLI_COMMANDS[i % 4]
        if command == "scan":
            args = []
        elif command == "dispersion":
            args = ["--from-summary", os.path.join(out, "scan_summary.json")]
        elif command == "solve":
            args = [
                "--warm-start", os.path.join(out, "a0_state.json"),
                "--a", repr(session["a"]),
                "--snapshot", os.path.join(out, "solve_state.json"),
            ]
        else:
            args = ["--b", repr(session["b"])]
        return [command] + args + ["--output-dir", out]

    def run(self, i, tracer=None):
        if i % 4 == 0:
            if self.session_dir:
                shutil.rmtree(self.session_dir, ignore_errors=True)
            self.session_dir = os.path.join(self.workdir, f"session-{i // 4}")
            os.makedirs(self.session_dir)
            self.a0 = None
        argv = self._argv(i, self.session_dir)
        if tracer is None:
            cmd = [sys.executable, "-m", "solitonscf"] + argv
        else:
            spans_path = os.path.join(self.workdir, "spans.json")
            entry = os.path.join(self.root, "perfbench", "cli_driver.py")
            cmd = [sys.executable, entry, spans_path] + argv
        spawned = time.perf_counter()
        returncode = self._call(cmd)
        if tracer is not None:
            self._merge_spans(tracer, spans_path, spawned)
        if returncode != 0:
            raise JobFailed(f"{argv[0]} exit {returncode}")
        return argv[0]

    def _call(self, cmd):
        """Run one command to its end; return its exit code and keep its
        peak RSS. os.wait4 gives that child's own rusage, which the
        cumulative RUSAGE_CHILDREN would mix with every earlier child."""
        proc = subprocess.Popen(
            cmd, cwd=self.workdir, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kib = max(self.max_rss_kib, usage.ru_maxrss)
        return proc.returncode

    @staticmethod
    def _merge_spans(tracer, path, spawned):
        if not os.path.exists(path):
            return
        spans = read_spans(path)
        os.unlink(path)
        job = tracer.current()
        started = next((s.start for s in spans if s.name == "cli.import"), None)
        if started is not None:
            tracer.add("cli.startup", spawned, started, parent=job)
        tracer.merge(spans, parent=job)

    def check(self, i, command):
        out = self.session_dir
        if command == "scan":
            strict_json(os.path.join(out, "scan_summary.json"))
            state = strict_json(os.path.join(out, "a0_state.json"))
            a0 = float(state["a"])
            _expect(
                abs(a0 - A0_REFERENCE) <= A0_TOL,
                f"scan a0 {a0!r} not within {A0_TOL} of {A0_REFERENCE}",
            )
            self.a0 = a0
        elif command == "dispersion":
            strict_json(os.path.join(out, "dispersion_summary.json"))
            with open(os.path.join(out, "dispersion.csv"), "r", encoding="utf-8") as fh:
                rows = fh.read().splitlines()[1:]
            _expect(len(rows) == DISPERSION_ROWS, f"dispersion.csv has {len(rows)} rows")
            _expect(
                all(math.isfinite(float(c)) for row in rows for c in row.split(",")),
                "dispersion.csv has a non-finite entry",
            )
        elif command == "solve":
            strict_json(os.path.join(out, "solve_summary.json"))
            state = strict_json(os.path.join(out, "solve_state.json"))
            a, k = float(state["a"]), float(state["k"])
            _expect(a == self.inputs[i // 4]["a"], f"solve ran at a = {a!r}")
            _expect(self.a0 is not None, "no verified a0 in this session")
            _expect(
                abs(k * k * a - self.a0) <= LAM_TOL,
                f"k^2 a = {k * k * a!r} differs from a0 = {self.a0!r}",
            )
        else:
            summary = strict_json(os.path.join(out, "trial_summary.json"))
            _expect(
                all(math.isfinite(summary[key]) for key in ("T", "Pi", "a_extremum")),
                "trial summary is not finite",
            )


class ScanInproc(Workload):
    """One coupling scan from a seeded start, then the extremum check."""

    name = "scan_inproc"

    def generate(self, rng):
        picks = stratified(rng, 0, len(A_SCAN_STARTS), INPUTS_PER_RUN)
        return [A_SCAN_STARTS[int(x)] for x in picks]

    def setup(self):
        self._import()
        self.grid = self.io.RunConfig().build_grid()

    def run(self, i, tracer=None):
        sc = self.sc
        config = sc.ScanConfig(a_start=self.inputs[i])
        try:
            result = sc.find_a0(config, self.grid)
            mismatch = sc.verify_extremum(result, self.grid)
        except Exception as exc:  # every program failure counts, typed or not
            raise JobFailed(_describe(exc)) from exc
        return config, result, mismatch

    def check(self, i, outcome):
        config, result, mismatch = outcome
        k2 = result.solution.k ** 2
        _expect(abs(k2 - 1.0) <= config.tol_k, f"|k^2 - 1| = {abs(k2 - 1.0):.3e}")
        # a0 = (k^2 a) / k^2, so |k^2 - 1| <= tol_k leaves a0 within
        # |a0| tol_k of the invariant; 5e-8 covers the reference's rounding.
        tol = abs(A0_REFERENCE) * config.tol_k + 5e-8
        _expect(
            abs(result.a0 - A0_REFERENCE) <= tol,
            f"a0 = {result.a0!r} not within {tol:.2e} of {A0_REFERENCE}",
        )
        _expect(mismatch < EXTREMUM_TOL, f"extremum mismatch {mismatch:.3e}")


def cold_start_ok_frac(workdir, root):
    """Share of the COLD_START_PROBES scans that run and verify. The known
    failing bands of cold starts show here, not as failed jobs."""
    probe = ScanInproc(0, workdir, root)
    probe.setup()
    probe.inputs = list(COLD_START_PROBES)
    ok = 0
    for i in range(len(probe.inputs)):
        try:
            probe.check(i, probe.run(i))
            ok += 1
        except (JobFailed, Mismatch):
            pass
    return ok / len(probe.inputs)


class ContinuationFine(Workload):
    """Snapshot-to-snapshot warm solves along a seeded path in a."""

    name = "continuation_fine"
    nodes = FINE_NODES

    def generate(self, rng):
        lo, hi = A_RANGE
        a = A_CONTINUATION_START
        path = []
        for _ in range(INPUTS_PER_RUN):
            a += rng.choice((-1.0, 1.0)) * rng.uniform(*STEP_RANGE)
            if a < lo:
                a = 2.0 * lo - a
            elif a > hi:
                a = 2.0 * hi - a
            a = round(a, 6)
            path.append(a)
        return path

    def setup(self):
        self._import()
        self.grid = self.io.RunConfig(n_nodes=FINE_NODES).build_grid()
        self.snapshot_path = os.path.join(self.workdir, "state.json")
        state = self.sc.solve_fixed_a(A_CONTINUATION_START, self.grid)
        self.lam_ref = state.k ** 2 * state.a
        self._save(state)

    def rewind(self, i):
        self.saved = self.before
        self.sc.save_snapshot(self.snapshot_path, self._snapshot(*self.before))

    def _snapshot(self, a, k, u, v):
        g = self.grid
        return self.sc.Snapshot(g.theta_min, g.theta_max, g.n_nodes, a, k, u, v)

    def _save(self, state):
        saved = (state.a, state.k, state.pair.u.copy(), state.pair.v.copy())
        self.sc.save_snapshot(self.snapshot_path, self._snapshot(*saved))
        self.saved = saved

    def run(self, i, tracer=None):
        sc, io, grid = self.sc, self.io, self.grid
        self.before = self.saved
        try:
            snap = sc.load_snapshot(self.snapshot_path)
            state = sc.solve_fixed_a(self.inputs[i], grid, init=snap.pair(), k0=snap.k)
            report = sc.energy_report(state.pair, grid, state.a)
            self._save(state)
            io.write_profiles_csv(
                os.path.join(self.workdir, "profiles.csv"),
                grid, state.pair.u, state.pair.v, state.field.phi0,
            )
            io.write_summary_json(
                os.path.join(self.workdir, "summary.json"),
                {
                    "a": state.a,
                    "k": state.k,
                    "iterations": state.iteration,
                    "residual": state.residual_norm,
                    "T": report.T,
                    "Pi": report.Pi,
                    "E0_over_m0": report.E0_over_m0,
                },
            )
        except Exception as exc:  # every program failure counts, typed or not
            raise JobFailed(_describe(exc)) from exc
        return self.before, snap, state

    def check(self, i, outcome):
        (a, k, u, v), snap, state = outcome
        _expect(
            snap.a == a and snap.k == k
            and np.array_equal(snap.u, u) and np.array_equal(snap.v, v),
            "loaded snapshot differs from the one saved",
        )
        g = self.grid
        res = midpoint_residual(g.x, g.h, state.pair.u, state.pair.v, state.k, state.field.phi)
        tol = self.sc.SolverConfig().tol_residual
        _expect(res <= tol, f"residual {res:.3e} above {tol:g}")
        _expect(count_sign_changes(state.pair.u) == 0, "u has interior nodes")
        lam = state.k ** 2 * state.a
        _expect(
            abs(lam - self.lam_ref) <= LAM_TOL,
            f"k^2 a = {lam!r} drifted from {self.lam_ref!r}",
        )
        strict_json(os.path.join(self.workdir, "summary.json"))


WORKLOADS = {w.name: w for w in (CliSession, ScanInproc, ContinuationFine)}

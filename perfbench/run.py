"""solitonscf benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout that holds this
file, never from an installed copy; without that tree the run exits 2.
Jobs run back to back for S seconds (a closed loop with one client) and
every job's output is verified. Scratch files go to a temporary directory
inside the checkout, because the benchmark reads and writes nothing
outside it. The directory is removed on exit, also on SIGTERM and SIGINT;
one left by a run that was killed outright is removed by the next run.

--trace 0 gives the end-to-end metrics with no instrumentation installed,
in reference seconds: measured times scaled by the host speed that a fixed
kernel shows in the same run (see hostspeed.py); the measured value is
printed beside each.
--trace 1 runs every job twice in a row, bare and then with spans around
every public function of the program, and gives the per-layer metrics of
the traced jobs plus the tracing overhead (traced minus bare, per pair),
and the share of fixed cold scan starts over the whole coupling range
that verify (untraced, after the jobs, not counted as jobs).

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import os
import sys

# Single-threaded BLAS in this process and in every child, set before
# numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10
TMP_PREFIX = ".perfbench-"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# measurement


def _cpu_seconds():
    """CPU seconds of this process and its waited-for children."""
    return sum(
        r.ru_utime + r.ru_stime
        for r in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def run_job(workload, i, notes, tracer=None):
    """Run and check job i; return (wall_s, cpu_s, status).

    status is "ok", "failed" (the program reported an error) or
    "mismatch" (its output did not verify). The times cover the program's
    work, not the check.
    """
    from workloads import JobFailed, Mismatch

    if tracer is not None:
        tracer.job = i
        span = tracer.open("job")
    outcome = status = None
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        outcome = workload.run(i, tracer)
    except JobFailed as exc:
        status = "failed"
        notes[str(exc)] += 1
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    if tracer is not None:
        tracer.close(span)
        tracer.job = None
    if status is None:
        try:
            workload.check(i, outcome)
            status = "ok"
        except Mismatch as exc:
            status = "mismatch"
            notes[f"mismatch: {exc}"] += 1
    return wall, cpu, status


def measure(workload, seconds, tracer=None, host=None):
    """Run jobs back to back until the first round boundary after `seconds`.

    Returns (records, wall_s, traced_records, notes); wall_s leaves out the
    host-speed kernel, which a `host` runs after each job. With a tracer,
    every job runs twice in a row, bare and then traced, on the same
    inputs, so the overhead comes from matched pairs.
    """
    records, traced = [], []
    notes = collections.Counter()
    begin = time.perf_counter()
    kernel = 0.0
    i = 0
    while i % workload.jobs_per_round or not i or time.perf_counter() - begin < seconds:
        records.append(run_job(workload, i, notes))
        if host is not None:
            kernel += host.sample_after(records[-1][0])
        if tracer is not None:
            workload.rewind(i)
            tracer.install()
            traced.append(run_job(workload, i, collections.Counter(), tracer))
            tracer.uninstall()
        i += 1
    return records, time.perf_counter() - begin - kernel, traced, notes


def probe_setup(workload_name, seed, tmp, host):
    """Set-up time of SETUP_PROBES fresh interpreters, in seconds; the
    host-speed kernel runs after each one."""
    samples = []
    for n in range(SETUP_PROBES):
        workdir = tempfile.mkdtemp(prefix=f"probe{n}-", dir=tmp)
        cmd = [sys.executable, os.path.join(HERE, "probe.py"), workload_name, str(seed), workdir]
        spawned = time.perf_counter()
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        samples.append(float(lines[1]) - spawned)
        shutil.rmtree(workdir, ignore_errors=True)
        host.sample_after(samples[-1])
    return samples


def tail(values):
    """(value, percentile, beyond): the highest percentile with at least
    TAIL_BEYOND values above it; the maximum when there are too few."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def peak_rss_mib(workload):
    """Peak RSS of the program: its command processes when it runs in
    them, else this process, which holds it."""
    kib = workload.peak_rss_kib()
    if kib is None:
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def end_to_end(workload, records, wall, host=None):
    """End-to-end metrics of one measured stretch, as {name: (value, unit)}.

    Latency is over verified jobs only; failures and mismatches count
    against ok_frac and are left out of the throughput numerator. CPU is
    that of every job, failed ones included, per verified job. With a
    `host`, times are in reference seconds: the tail is scaled by the
    kernel's time at the tail's own percentile, every other time by the
    kernel's mean (see hostspeed.py).
    """
    scale = host.scale() if host else 1.0
    ok = [t for t, _, status in records if status == "ok"]
    cpu = sum(c for _, c, _ in records) * scale
    p_tail, pct, beyond = tail(ok) if ok else (0.0, 100.0, 0)
    if host:
        p_tail *= host.scale_at(pct / 100.0)
    return {
        "ok_jobs_per_s": (len(ok) / (wall * scale), "1/s"),
        "job_p50_s": (statistics.median(ok) * scale if ok else 0.0, "s"),
        "job_tail_s": (p_tail, "s"),
        "cpu_s_per_job": (cpu / len(ok) if ok else 0.0, "s"),
        "ok_frac": (len(ok) / len(records), "ratio"),
        "peak_rss_mib": (peak_rss_mib(workload), "MiB"),
    }, {"tail_percentile": pct, "tail_beyond": beyond, "verified": len(ok)}


# ---------------------------------------------------------------------------
# environment record


def _git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _caches():
    """Data and unified cache sizes by level, as the kernel reports them."""
    base = "/sys/devices/system/cpu/cpu0/cache"

    def read(entry, name):
        with open(os.path.join(base, entry, name), "r", encoding="ascii") as fh:
            return fh.read().strip()

    out = {}
    try:
        for entry in sorted(os.listdir(base)):
            if entry.startswith("index") and read(entry, "type") in ("Data", "Unified"):
                out[f"L{read(entry, 'level')}"] = read(entry, "size")
    except OSError:
        pass
    return out


def environment(workload):
    import numpy
    import scipy
    from tracing import band_bytes

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "caches_per_core": _caches(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "grid_nodes": workload.nodes,
        "band_working_set_bytes_computed": band_bytes(2 * workload.nodes),
    }


# ---------------------------------------------------------------------------
# runs


def _show(metrics):
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")


def plain_run(workload, seconds, tmp):
    from hostspeed import HostSpeed

    with HostSpeed() as host:
        workload.setup()
        setup = probe_setup(workload.name, workload.seed, tmp, host)
        records, wall, _, notes = measure(workload, seconds, host=host)
    scale = host.scale()
    raw, _ = end_to_end(workload, records, wall)
    metrics, extra = end_to_end(workload, records, wall, host)
    metrics["setup_s"] = (statistics.median(setup) * scale, "s")
    raw["setup_s"] = (statistics.median(setup), "s")
    print(f"end-to-end ({len(records)} jobs in {wall:.2f} s; set-up probes "
          f"{', '.join(f'{s:.4f}' for s in setup)} s)")
    print(f"host speed: kernel mean {statistics.mean(host.samples) * 1e3:.3f} ms over "
          f"{len(host.samples)} samples; times are reference seconds = measured x {scale:.4f}"
          f" (job_tail_s: x {host.scale_at(extra['tail_percentile'] / 100.0):.4f})")
    for name, (value, unit) in metrics.items():
        line = f"  {name} = {value:.6g} {unit}"
        if raw[name][0] != value:
            line += f"  (measured {raw[name][0]:.6g})"
        if name == "job_tail_s":
            line += (
                f"  (p{extra['tail_percentile']:.1f}: {extra['tail_beyond']} of "
                f"{extra['verified']} verified jobs beyond)"
            )
        print(line)
    return records, metrics, notes


def traced_run(workload, seconds):
    from tracing import Tracer, layer_metrics
    from workloads import cold_start_ok_frac

    tracer = Tracer()
    tracer.install()
    workload.setup()            # set-up solves are traced with job None
    tracer.uninstall()
    bare, _, traced, notes = measure(workload, seconds, tracer)
    metrics = layer_metrics(tracer.spans, len(traced))
    pairs = [(b, t) for b, t in zip(bare, traced) if b[2] == t[2] == "ok"]
    print(f"tracing overhead, median over {len(pairs)} verified bare/traced pairs:")
    overhead = {}
    for label, k in (("wall", 0), ("cpu", 1)):
        base = statistics.median(b[k] for b, _ in pairs) if pairs else 0.0
        overhead[label] = statistics.median(t[k] - b[k] for b, t in pairs) if pairs else 0.0
        print(f"  job {label}: bare {base:.6g} s, traced minus bare {overhead[label]:+.6g} s")
    metrics["trace.overhead_p50_s"] = (overhead["wall"], "s/job")
    metrics["scan.cold_start_ok_frac"] = (cold_start_ok_frac(workload.workdir, ROOT), "ratio")
    print(f"per-layer ({len(tracer.spans)} spans over {len(traced)} traced jobs):")
    _show(metrics)
    return bare + traced, metrics, notes


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)      # unwinds through the clean-up blocks


def remove_stale_tmp():
    """Remove the temporary directories of runs whose process is gone."""
    for entry in os.listdir(ROOT):
        if not entry.startswith(TMP_PREFIX):
            continue
        pid = entry[len(TMP_PREFIX):].split("-", 1)[0]
        if not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(os.path.join(ROOT, entry), ignore_errors=True)
        except PermissionError:
            pass                        # a live process of another user


def main(argv=None):
    args = parse_args(argv)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "solitonscf", "__init__.py")):
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGTERM, _exit_on_signal)
    remove_stale_tmp()
    tmp = tempfile.mkdtemp(prefix=f"{TMP_PREFIX}{os.getpid()}-", dir=ROOT)
    os.environ["TMPDIR"] = tmp
    try:
        workload = WORKLOADS[args.workload](args.seed, os.path.join(tmp, "work"), ROOT)
        print("inputs:", json.dumps({
            "workload": workload.name, "seed": workload.seed,
            "generated": len(workload.inputs), "sha256": workload.digest(),
        }))
        if args.trace:
            records, metrics, notes = traced_run(workload, args.seconds)
        else:
            records, metrics, notes = plain_run(workload, args.seconds, tmp)
        import solitonscf

        if not os.path.abspath(solitonscf.__file__).startswith(SRC + os.sep):
            print(f"solitonscf came from {solitonscf.__file__}, not {SRC}", file=sys.stderr)
            return 2
        print("environment:", json.dumps(environment(workload), sort_keys=True))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for note, count in sorted(notes.items()):
        print(f"  {count} x {note}")
    failed = sum(status != "ok" for _, _, status in records)
    result = {
        "correct": not any(status == "mismatch" for _, _, status in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

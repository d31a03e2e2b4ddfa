"""Host speed, measured in the same run as the jobs.

The benchmark runs on a shared host whose speed drifts by 20-40% over a
few minutes even when nothing else runs in the same machine; a fixed
pure-Python loop shows the same drift. So the time metrics are reported
at reference host speed. A fixed kernel that belongs to the benchmark is
timed after every job, for about 7% of the job's time, and the run's
times are scaled by ``REFERENCE_S / mean(kernel time)``. The tail time is
the exception: it is scaled by ``REFERENCE_SLOW_S`` over the kernel's time
at the same percentile (``scale_at``). The kernel mixes
the kinds of work in the jobs: a LAPACK banded solve of the default size,
float formatting and parsing as in the snapshot and CSV writers, and
small numpy vector operations. Single kernel times are bimodal (about
4 ms or 8 ms here, as neighbours come and go), and the share of slow
samples moves from run to run. A job of 0.1-0.5 s sees their average,
hence the mean. The slowest jobs of a run are those that ran in slow
stretches, so the mean would over-correct them in a run that was mostly
fast; the kernel's own tail matches them.

The kernel runs in a helper process of its own, started once per run
(``python3 perfbench/hostspeed.py``, fed sample counts on stdin), and the
run waits for it while it runs. The program's heap, garbage collector,
threads and cache footprint stay in the run's process, so what the
program leaves behind after a job does not reach the kernel's time.
"""

import json
import statistics
import subprocess
import sys
import time

# Typical mean kernel time on the reference host (2-core Xeon,
# 2.1 GHz, Python 3.11, numpy 2.4, single-threaded OpenBLAS 0.3.31).
REFERENCE_S = 0.0075
# Typical kernel time there in the host's slow stretches (its 80th to
# 97th percentile), the reference for times taken from a run's tail.
REFERENCE_SLOW_S = 0.0086
_UNKNOWNS = 4000
HELPER_TIMEOUT_S = 30


class HostSpeed:
    """Handle on the kernel's helper process; a context manager."""

    def __init__(self):
        self.samples = []
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("host-speed helper did not start")

    def sample_after(self, job_seconds):
        """Time the kernel about once per 0.1 s of job time, at least once;
        return the seconds spent."""
        start = time.perf_counter()
        self._proc.stdin.write(f"{max(1, int(job_seconds / 0.1))}\n")
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed helper exited")
        self.samples.extend(float(x) for x in line.split())
        return time.perf_counter() - start

    def scale(self):
        """Factor that turns this run's seconds into reference seconds."""
        return REFERENCE_S / statistics.mean(self.samples)

    def scale_at(self, fraction):
        """Factor for a time at rank `fraction` of a run's jobs, such as its
        tail. The slowest jobs ran in the host's slow stretches, so the
        kernel's time at the same rank stands in for its mean."""
        xs = sorted(self.samples)
        return REFERENCE_SLOW_S / xs[min(len(xs) - 1, int(fraction * len(xs)))]

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=HELPER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Kernel:
    def __init__(self):
        import numpy as np
        from scipy.linalg import solve_banded

        self._np, self._solve_banded = np, solve_banded
        rng = np.random.default_rng(0)
        self._band = rng.uniform(-1.0, 1.0, (5, _UNKNOWNS))
        self._band[2] += 6.0
        self._rhs = rng.uniform(-1.0, 1.0, (_UNKNOWNS, 2))
        self._values = rng.uniform(0.1, 1.0, _UNKNOWNS)

    def time(self):
        """Run the kernel once; return the seconds it took."""
        np = self._np
        start = time.perf_counter()
        self._solve_banded((2, 2), self._band, self._rhs)
        text = ",".join(repr(x) for x in self._values.tolist())
        back = np.asarray(json.loads("[" + text + "]"))
        float(np.sqrt(back[1:] * back[:-1]).sum())
        return time.perf_counter() - start


def serve():
    """Helper loop: for each line n on stdin, time the kernel n times and
    print the n times on one line; stop at end of input."""
    kernel = Kernel()
    kernel.time()                       # first call pays one-off costs
    print("ready", flush=True)
    for line in sys.stdin:
        print(" ".join(repr(kernel.time()) for _ in range(int(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve())

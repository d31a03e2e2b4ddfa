"""Set up one workload in a fresh interpreter and report when it is ready.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR

Prints ``ready <perf_counter>`` once the first job could start. The clock
is monotonic and shared by all processes on the host, so the parent takes
set-up time as that stamp minus its own stamp taken just before spawning.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS  # noqa: E402


def main():
    name, seed, workdir = sys.argv[1:4]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    WORKLOADS[name](int(seed), workdir, root).setup()
    print("ready", repr(time.perf_counter()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

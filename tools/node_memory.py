"""Peak resident memory per grid node: a grid, and a grid plus a cold solve.

Run from the repo root:

    python3 tools/node_memory.py N

A fresh interpreter imports the package (grid, solver and io, so numpy
too) and runs one cold solve on a 200-node grid, so that what a first
solve sets up once (numpy's and the solver's first-call allocations) is
paid before measuring. It then reads its peak resident set size
(ru_maxrss), builds RunConfig's default grid at N nodes with its numpy
arrays theta, x and quad_weights, reads ru_maxrss again, runs the cold
solve_fixed_a at a = -3.3 on that grid and reads it a third time. Each
rise over the first reading, divided by N, is printed in bytes per node;
this is the figure the comment on errors.MAX_NODES quotes. The last line
gives the warm-up's own rise, which does not grow with N. The program is
imported from src/ of this checkout. This script uses only the standard
library; the interpreter it starts needs numpy.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
WARM_UP_NODES = 200

_CHILD = """
import resource, sys
sys.path.insert(0, {src!r})
from solitonscf.grid import Grid
from solitonscf.io import RunConfig
from solitonscf.solver import solve_fixed_a

def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

cfg = RunConfig()
imported = peak()
solve_fixed_a(-3.3, Grid(cfg.theta_min, cfg.theta_max, {warm_up}), cfg)
before = peak()
grid = Grid(cfg.theta_min, cfg.theta_max, {n_nodes})
grid.theta, grid.x, grid.quad_weights
built = peak()
solve_fixed_a(-3.3, grid, cfg)
print(built - before, peak() - before, before - imported)
"""


def rises_kib(n_nodes: int):
    """ru_maxrss rises in KiB: the grid, the grid plus its cold solve, and
    the warm-up solve, measured in a fresh interpreter."""
    code = _CHILD.format(src=SRC, n_nodes=n_nodes, warm_up=WARM_UP_NODES)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return [int(kib) for kib in proc.stdout.split()[-3:]]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not argv[0].isdigit() or int(argv[0]) < 2:
        print("usage: python3 tools/node_memory.py N  (N >= 2 nodes)", file=sys.stderr)
        return 2
    n_nodes = int(argv[0])
    grid, solve, warm_up = rises_kib(n_nodes)
    for name, kib in (("grid", grid), ("grid + cold solve", solve)):
        print(
            f"{name}: {kib * 1024 / n_nodes:.0f} B/node "
            f"(ru_maxrss +{kib} KiB at {n_nodes} nodes)"
        )
    print(f"warm-up solve at {WARM_UP_NODES} nodes, not counted: +{warm_up} KiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())

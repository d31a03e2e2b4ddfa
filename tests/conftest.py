"""Shared fixtures: the default grid and converged states, computed once."""

import os
import shutil
import tempfile

import numpy as np
import pytest

from solitonscf.grid import build_grid
from solitonscf.scan import ScanConfig, find_a0
from solitonscf.solver import SolverConfig, solve_fixed_a


_HYPOTHESIS_HOME = "HYPOTHESIS_STORAGE_DIRECTORY"


def pytest_configure(config):
    # The property tests keep no example database (database=None), but
    # hypothesis still caches the constants of the source files in its home
    # directory, ./.hypothesis by default: give it a temporary one instead.
    if _HYPOTHESIS_HOME in os.environ:
        return
    home = tempfile.mkdtemp(prefix="hypothesis-home-")
    os.environ[_HYPOTHESIS_HOME] = home

    def cleanup():
        del os.environ[_HYPOTHESIS_HOME]
        shutil.rmtree(home, ignore_errors=True)

    config.add_cleanup(cleanup)


@pytest.fixture(scope="session")
def grid():
    """The default production grid."""
    return build_grid(np.log(1e-6), np.log(80.0), 2000)


@pytest.fixture(scope="session")
def coarse_grid():
    """A cheaper grid for property tests that re-run the solver."""
    return build_grid(np.log(1e-6), np.log(80.0), 700)


@pytest.fixture(scope="session")
def state_m33(grid):
    """Converged state at a = -3.3 from the default start."""
    return solve_fixed_a(-3.3, grid)


@pytest.fixture(scope="session")
def scan_result(grid):
    """Default coupling scan result (a0 and the state there)."""
    return find_a0(ScanConfig(), grid)


@pytest.fixture(scope="session")
def tight_solution(grid, scan_result):
    """The a0 state refined to tol 1e-10 for solution-quality checks."""
    return solve_fixed_a(
        scan_result.a0,
        grid,
        SolverConfig(tol_residual=1e-10, max_iterations=400),
        init=scan_result.solution.pair,
        k0=scan_result.solution.k,
    )

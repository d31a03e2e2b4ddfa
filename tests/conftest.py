"""Shared fixtures: the default grid and converged states, computed once."""

import math
import os
import shutil
import tempfile
import unicodedata

import numpy as np
import pytest

from solitonscf.grid import build_grid
from solitonscf.scan import ScanConfig, find_a0
from solitonscf.solver import SolverConfig, solve_fixed_a


_HYPOTHESIS_HOME = "HYPOTHESIS_STORAGE_DIRECTORY"
# where hypothesis keeps its Unicode tables, relative to its home
_UNICODE_DATA = ("unicode_data", unicodedata.unidata_version)


def pytest_configure(config):
    # The property tests keep no example database (database=None), but
    # hypothesis still caches the constants of the source files in its home
    # directory, ./.hypothesis by default: give it a temporary one instead.
    if _HYPOTHESIS_HOME in os.environ:
        return
    home = tempfile.mkdtemp(prefix="hypothesis-home-")
    os.environ[_HYPOTHESIS_HOME] = home
    # The first st.text() draw of a session builds hypothesis's tables of
    # all of Unicode (its character map and the UTF-8 codec's intervals)
    # into that home, about 2 s. They depend on the Unicode version alone,
    # so a session that built them keeps them in pytest's cache, and later
    # sessions start with a copy.
    cache = getattr(config, "cache", None)  # None under -p no:cacheprovider
    kept = cache and cache.mkdir("hypothesis").joinpath(*_UNICODE_DATA)
    fresh = os.path.join(home, *_UNICODE_DATA)
    if kept and kept.is_dir():
        shutil.copytree(kept, fresh)

    def cleanup():
        if kept and not kept.is_dir() and os.path.isdir(fresh):
            partial = kept.with_name(f"{kept.name}.{os.getpid()}")
            shutil.copytree(fresh, partial)
            try:
                partial.rename(kept)  # whole, if two sessions end at once
            except OSError:
                shutil.rmtree(partial, ignore_errors=True)
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


@pytest.fixture(scope="session")
def q_zero_coupling():
    """The function that gives, for phi0 at the outer node, a coupling a
    near -3 and a frequency k with k^2 (a phi0) = -1 exactly: Q = 0 there."""

    def find(phi0_end):
        a = -3.0
        for _ in range(100):
            k = math.sqrt(-1.0 / (a * phi0_end))
            for k in (k, math.nextafter(k, 0.0), math.nextafter(k, math.inf)):
                if k * k * (a * phi0_end) == -1.0:
                    return a, k
            a = math.nextafter(a, -math.inf)
        raise AssertionError(f"no coupling gives Q = 0 at phi0 = {phi0_end!r}")

    return find

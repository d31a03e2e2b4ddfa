"""Property test of every configuration value check over arbitrary values.

Each site below hands one value to a library entry point that checks it
through errors.check_value. Whatever the value, the entry point either
holds it unchanged or raises ConfigurationError, never another exception,
and it refuses every value outside the site's rule.
"""

import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from solitonscf import grid as grid_mod
from solitonscf import solver
from solitonscf.dispersion import spectrum
from solitonscf.errors import MAX_NODES, ConfigurationError, UnphysicalMixingError
from solitonscf.functional import charge_relation
from solitonscf.grid import build_grid
from solitonscf.io import RunConfig
from solitonscf.model import trial_functions
from solitonscf.scan import ScanConfig
from solitonscf.solver import SolverConfig

_GRID = build_grid(-1.0, 1.0, 5)


def _values(site):
    floats, integers = st.floats(allow_nan=True, allow_infinity=True), st.integers()
    if site == "n_nodes":
        # counts at and above the cap too; _grid_nodes builds none of them
        integers = st.one_of(integers, st.integers(min_value=MAX_NODES))
    return st.one_of(floats, integers, st.booleans(), st.none(), st.text(max_size=4))


def _real(v):
    # NaN fails the comparison; an int beyond the double range is no real
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _positive(v):
    return _real(v) and v > 0


def _config(cls, name):
    return lambda v: getattr(cls(**{name: v}).validate(), name)


class _Started(Exception):
    """solve_fixed_a got past its checks; carries the a or k0 it holds."""


def _solve_fixed_a(name):
    def call(value):
        def start(a, grid, pair, k0):
            raise _Started({"a": a, "k0": k0}[name])

        args = {"a": -1.0, "k0": 1.0, name: value}
        with mock.patch.object(solver, "_initial_state", start):
            try:
                solver.solve_fixed_a(args["a"], _GRID, k0=args["k0"])
            except _Started as started:
                return started.args[0]
        raise AssertionError("solve_fixed_a returned without starting")

    return call


def _grid_nodes(value):
    """The node count build_grid holds. A count the check takes builds at
    most 64 nodes: the node spacing stands in for a larger count, so that
    no large grid is allocated whatever the check lets through."""
    real = grid_mod._linspace

    def spaced(start, stop, num):
        return real(start, stop, min(num, 64))

    with mock.patch.object(grid_mod, "_linspace", spaced):
        return grid_mod.build_grid(-1.0, 1.0, value).n_nodes


def _charge_coupling(a):
    try:
        charge_relation(a)
    except UnphysicalMixingError:
        # the coupling passed its check; |a| >= alpha0 is refused after it
        assert abs(a) >= 10.0
    return a


def _accepted_by(call):
    """A site whose callee does not hand the value back: hold it if accepted."""

    def held(value):
        call(value)
        return value

    return held


# site -> (entry point returning the value as held, the site's rule)
_SITES = {
    "tau": (_config(SolverConfig, "tau"), lambda v: _real(v) and 0 < v <= 1),
    "tol_residual": (_config(SolverConfig, "tol_residual"), _positive),
    "max_iterations": (
        _config(SolverConfig, "max_iterations"),
        lambda v: type(v) is int and v >= 1,
    ),
    "a_start": (_config(ScanConfig, "a_start"), lambda v: _real(v) and v < 0),
    "tol_k": (_config(ScanConfig, "tol_k"), _positive),
    "trial_b": (_config(ScanConfig, "trial_b"), _positive),
    "RunConfig alpha0": (_config(RunConfig, "alpha0"), _positive),
    "RunConfig tau": (_config(RunConfig, "tau"), lambda v: _real(v) and 0 < v <= 1),
    "solve_fixed_a a": (_solve_fixed_a("a"), lambda v: _real(v) and v < 0),
    "solve_fixed_a k0": (_solve_fixed_a("k0"), _positive),
    "charge_relation a": (_charge_coupling, _real),
    "charge_relation e0": (
        _accepted_by(lambda v: charge_relation(0.0, e0=v)),
        _positive,
    ),
    "charge_relation alpha0": (
        _accepted_by(lambda v: charge_relation(0.0, alpha0=v)),
        _positive,
    ),
    "trial_functions b": (_accepted_by(lambda v: trial_functions(v, _GRID)), _positive),
    "theta_min": (lambda v: build_grid(v, 1.0, 5).theta_min, _real),
    "theta_max": (lambda v: build_grid(-1.0, v, 5).theta_max, _real),
    "n_nodes": (_grid_nodes, lambda v: type(v) is int and 2 <= v <= MAX_NODES),
    "E0": (lambda v: spectrum(v, 0.0)[0], lambda v: _real(v) and v >= 0),
    "P": (lambda v: spectrum(0.0, v)[0], lambda v: _real(v) and v >= 0),
}


@pytest.mark.parametrize("site", sorted(_SITES))
@settings(database=None, derandomize=True, deadline=None)
@given(data=st.data())
def test_config_value_is_held_unchanged_or_refused(site, data):
    call, rule = _SITES[site]
    value = data.draw(_values(site), label=site)
    try:
        held = call(value)
    except ConfigurationError:
        return
    assert rule(value), f"{site} accepted {value!r}"
    # a real site may hold an int as the float it converts to
    assert held == value or held == float(value), f"{site} held {held!r}"

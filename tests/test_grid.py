"""Grid construction, quadrature and differentiation."""

import dataclasses
import math
import tracemalloc
from array import array

import numpy as np
import pytest

from solitonscf.errors import (
    MAX_NODES,
    ConfigurationError,
    NumericError,
    ShapeError,
    check_grid,
)
from solitonscf.grid import Grid, _linspace, build_grid, differentiate, integrate
from solitonscf.io import RunConfig


def test_build_grid_basic():
    g = build_grid(np.log(1e-6), np.log(80.0), 2000)
    assert g.n_nodes == 2000
    assert g.x[0] == pytest.approx(1e-6, rel=1e-12)
    assert g.x[-1] == pytest.approx(80.0, rel=1e-12)
    assert np.all(np.diff(g.theta) > 0)
    steps = np.diff(g.theta)
    assert np.allclose(steps, steps[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "args",
    [
        (1.0, 0.0, 100),        # reversed
        (0.0, 0.0, 100),        # equal
        (np.nan, 1.0, 100),     # non-finite
        (0.0, np.inf, 100),
        (0.0, 1e308, 100),      # e^theta overflows
        (-1e308, 0.0, 100),     # e^theta underflows to x = 0
        (-745.0, 709.0, 50),    # h e^theta_max overflows
        (-400.0, -380.0, 200),  # x_0 x_1 underflows to 0
        (0.0, 5e-324, 3),       # h underflows to 0
        (0.0, 1.0, 1),          # too few nodes
        (0.0, 1.0, 2.9),        # not an integer, refused rather than truncated
        (0.0, 1.0, "5"),        # not a number
        (True, 2.0, 5),         # a bool is no bound
        (1.0, 0.0, 5),          # reversed, on few nodes
        (0.0, 1.0, MAX_NODES + 1),
        (0.0, 10**400, 5),      # an int beyond the double range is not finite
    ],
)
def test_build_grid_rejects_bad_input(args):
    # Grid checks its own arguments, so both spellings refuse alike
    for build in (build_grid, Grid):
        with pytest.raises(ConfigurationError):
            build(*args)


# the check alone: a grid at these counts is never built
@pytest.mark.parametrize("n_nodes", [MAX_NODES + 1, 10**30])
def test_grid_check_refuses_a_node_count_above_the_cap(n_nodes):
    with pytest.raises(ConfigurationError) as info:
        check_grid(0.0, 1.0, n_nodes)
    assert str(info.value) == (
        f"n_nodes must be an integer and in [2, 1e+06], got {n_nodes}"
    )


def test_grid_check_takes_the_cap():
    assert MAX_NODES == 10**6
    assert check_grid(0.0, 1.0, MAX_NODES) == (0.0, 1.0, MAX_NODES)


def _list_grid(theta_min, theta_max, n_nodes):
    """The reference: thetas, xs and ws as lists of floats, by the
    arithmetic Grid's buffers must match bit for bit."""
    h = (theta_max - theta_min) / (n_nodes - 1)
    thetas = _linspace(theta_min, theta_max, n_nodes)
    xs = [math.exp(theta) for theta in thetas]
    ws = [h * x for x in xs]
    ws[0], ws[-1] = 0.5 * h * xs[0], 0.5 * h * xs[-1]
    return thetas, xs, ws


_DEFAULT = RunConfig()


@pytest.mark.parametrize(
    "bounds",
    [(_DEFAULT.theta_min, _DEFAULT.theta_max, n) for n in (2, 3, 2000, 16000)]
    + [
        (-372.567, -372.566, 2),  # near the lowest theta_min check_grid takes
        (708.78, 709.78, 2),  # near the highest theta_max
        (-372.567, 709.78, 1081),  # both, on the fewest nodes check_grid takes
        (0.0, 1e-323, 3),  # a subnormal width
    ],
)
def test_grid_buffers_hold_the_list_construction_bit_for_bit(bounds):
    grid = Grid(*bounds)
    for buffer, reference in zip((grid.thetas, grid.xs, grid.ws), _list_grid(*bounds)):
        assert type(buffer) is memoryview and buffer.format == "d"
        assert buffer.readonly and buffer.ndim == 1
        assert buffer.tobytes() == array("d", reference).tobytes()


def test_grid_arrays_are_read_only_views_of_the_buffers():
    grid = Grid(_DEFAULT.theta_min, _DEFAULT.theta_max, 50)
    for name, source in (("theta", "thetas"), ("x", "xs"), ("quad_weights", "ws")):
        view, buffer = getattr(grid, name), getattr(grid, source)
        assert view is getattr(grid, name)  # made once
        assert np.shares_memory(view, buffer)
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 1.0


def test_a_checked_grid_cannot_be_written():
    # every write raises and leaves the grid as it was checked: a buffer, a
    # numpy view's flag and a field
    grid = Grid(_DEFAULT.theta_min, _DEFAULT.theta_max, 50)
    before = grid.ws.tobytes()
    with pytest.raises(TypeError):
        grid.ws[5] = 1e6
    with pytest.raises(ValueError):
        grid.x.flags.writeable = True
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.n_nodes = 7
    assert grid.ws.tobytes() == before and grid.n_nodes == len(grid.x) == 50


def test_grids_are_equal_and_hash_alike_by_their_bounds():
    grids = [Grid(_DEFAULT.theta_min, _DEFAULT.theta_max, 50) for _ in range(2)]
    assert grids[0] == grids[1] and hash(grids[0]) == hash(grids[1])
    assert grids[0] != Grid(_DEFAULT.theta_min, _DEFAULT.theta_max, 51)


def test_a_built_grid_holds_each_value_once():
    # three doubles a node: measured 24.27 B/node at 16000 nodes, the rest
    # being the buffers' and views' fixed headers. The bound, 26, leaves a
    # margin of 1.7 B/node (7%); a second copy of any one coordinate would
    # add 8.
    n_nodes = 16000
    Grid(_DEFAULT.theta_min, _DEFAULT.theta_max, 2).x  # numpy imported first
    tracemalloc.start()
    try:
        grid = Grid(_DEFAULT.theta_min, _DEFAULT.theta_max, n_nodes)
        grid.theta, grid.x, grid.quad_weights
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / n_nodes < 26.0


def test_integrate_decaying_exponential(grid):
    # int_0^inf e^-x dx = 1; domain truncation negligible at x_max = 80
    val = integrate(np.exp(-grid.x), grid)
    assert abs(val - 1.0) < 2e-6


def test_integrate_x_exp_2x(grid):
    # int x e^{-2x} dx = 1/4; smooth decaying integrand lands far below h^2
    val = integrate(grid.x * np.exp(-2.0 * grid.x), grid)
    assert abs(val - 0.25) < 1e-11


def test_integrate_constant_h2_level(grid):
    # constants carry the full O(h^2) trapezoid-in-theta error (measured 6.4e-6)
    val = integrate(np.ones(grid.n_nodes), grid)
    exact = grid.x_max - grid.x_min
    assert abs(val - exact) / exact < 1e-5


def test_integrate_differentiate_telescopes(grid):
    f = np.exp(-grid.x) * grid.x**2
    total = integrate(differentiate(f, grid), grid)
    assert abs(total - (f[-1] - f[0])) < 1e-13


def test_differentiate_linear(grid):
    d = differentiate(grid.x.copy(), grid)
    # centered theta stencil on f = x has relative error sinh(h)/h - 1
    assert np.max(np.abs(d[1:-1] - 1.0)) < 2e-5


def test_differentiate_exponential_interior(grid):
    f = np.exp(-grid.x)
    d = differentiate(f, grid)
    interior = slice(1, -1)
    rel = np.abs(d[interior] + f[interior]) / np.abs(f[interior]).max()
    assert np.max(rel) < 1e-4


def test_quadrature_refinement_is_second_order():
    # halving h divides the constant-integrand error by ~4
    errs = []
    for n in (500, 999):
        g = build_grid(np.log(1e-3), np.log(10.0), n)
        errs.append(abs(integrate(np.ones(n), g) - (g.x_max - g.x_min)))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_shape_and_finite_checks(grid):
    with pytest.raises(ShapeError):
        integrate(np.ones(grid.n_nodes - 1), grid)
    with pytest.raises(ShapeError):
        differentiate(np.ones((grid.n_nodes, 2)), grid)
    bad = np.ones(grid.n_nodes)
    bad[3] = np.nan
    with pytest.raises(NumericError):
        integrate(bad, grid)

"""Grid construction, quadrature and differentiation."""

import numpy as np
import pytest

from solitonscf.errors import ConfigurationError, NumericError, ShapeError
from solitonscf.grid import build_grid, differentiate, integrate


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
        (0.0, 1.0, 1),          # too few nodes
        (0.0, 1.0, 2.9),        # not an integer, refused rather than truncated
        (0.0, 1.0, "5"),        # not a number
        (True, 2.0, 5),         # a bool is no bound
    ],
)
def test_build_grid_rejects_bad_input(args):
    with pytest.raises(ConfigurationError):
        build_grid(*args)


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

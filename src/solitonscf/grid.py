"""Logarithmic radial grid with matched quadrature and differentiation.

The radial coordinate is sampled as theta = ln x on a uniform theta grid, so
node spacing follows the natural scale of the problem: dense where the bound
state lives (x of order 1) and sparse in the exponential tail. Integrals over
x become integrals over theta with Jacobian e^theta, evaluated by the
trapezoid rule in theta. Derivatives d/dx are centered differences in theta
divided by e^theta, first-order one-sided at the two endpoints.

The trapezoid weights and the difference stencil are deliberately a matched
pair: summing the weights against a differentiated array telescopes, so
integrate(differentiate(f)) returns f(x_max) - f(x_min) to machine precision.
For smooth integrands that decay at both ends the quadrature error is set by
the endpoint derivatives alone and lands many orders below the nominal h^2.
The price is that constants are integrated only to O(h^2) (about 6e-6
relative on the default grid); the decaying integrands this package actually
meets are the ones that matter.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError, check_grid

__all__ = ["Grid", "build_grid", "integrate", "differentiate"]


@dataclass
class Grid:
    """Uniform grid in theta = ln x.

    Attributes
    ----------
    theta_min, theta_max : float
        Bounds in theta; x spans [e^theta_min, e^theta_max].
    n_nodes : int
        Number of nodes, endpoints included.
    theta : np.ndarray
        Node coordinates in theta, shape (n_nodes,).
    x : np.ndarray
        Node coordinates in x, math.exp of each theta node, so the
        standard-library front builds the same doubles.
    h : float
        Uniform theta spacing.
    quad_weights : np.ndarray
        Trapezoid weights in theta with the Jacobian e^theta absorbed;
        integrate(f) is quad_weights @ f.
    """

    theta_min: float
    theta_max: float
    n_nodes: int
    theta: np.ndarray = field(init=False, repr=False)
    x: np.ndarray = field(init=False, repr=False)
    h: float = field(init=False)
    quad_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.theta = np.linspace(self.theta_min, self.theta_max, self.n_nodes)
        self.x = np.array([math.exp(theta) for theta in self.theta.tolist()])
        self.h = (self.theta_max - self.theta_min) / (self.n_nodes - 1)
        w = np.full(self.n_nodes, self.h)
        w[0] = w[-1] = 0.5 * self.h
        self.quad_weights = w * self.x

    @property
    def x_min(self) -> float:
        return float(self.x[0])

    @property
    def x_max(self) -> float:
        return float(self.x[-1])


def build_grid(theta_min: float, theta_max: float, n_nodes: int) -> Grid:
    """Construct a Grid once errors.check_grid accepts its bounds and node
    count: finite bounds with theta_min < theta_max whose e^theta is finite
    and positive, and an integer n_nodes in [2, errors.MAX_NODES].
    """
    return Grid(*check_grid(theta_min, theta_max, n_nodes))


def _check_values(values: np.ndarray, grid: Grid, op: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_nodes,):
        raise ShapeError(
            f"{op}: expected shape ({grid.n_nodes},), got {values.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise NumericError(f"{op}: input contains non-finite values")
    return values


def integrate(values: np.ndarray, grid: Grid) -> float:
    """Integral of nodal values over x in [x_min, x_max]."""
    values = _check_values(values, grid, "integrate")
    return float(grid.quad_weights @ values)


def differentiate(values: np.ndarray, grid: Grid) -> np.ndarray:
    """d/dx of nodal values: e^{-theta} times theta differences.

    Centered second-order stencil at interior nodes, first-order one-sided
    at the endpoints (the endpoints carry half quadrature weight and sit
    where every field in this problem is vanishingly small, so the lower
    order there never surfaces in assembled integrals).
    """
    values = _check_values(values, grid, "differentiate")
    d = np.empty_like(values)
    d[1:-1] = values[2:] - values[:-2]
    d[1:-1] /= 2.0 * grid.h
    d[0] = (values[1] - values[0]) / grid.h
    d[-1] = (values[-1] - values[-2]) / grid.h
    return d / grid.x

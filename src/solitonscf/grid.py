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

Grid is the one grid of the package, for the numpy layers and the
standard-library commands alike. It checks its bounds and node count on
construction (errors.check_grid) and builds its nodes and weights there,
each held once, as a read-only memoryview of an array('d') of 8 bytes a
value; the numpy arrays theta, x and quad_weights are read-only views of
those buffers, made on first use without a copy. A Grid is frozen, and no
buffer or view of it can be written, so a checked grid stays the grid that
was checked. So building a grid, and _linspace, which also
spaces the dispersion command's momenta, import no numpy; integrate and
differentiate import it when called.

The box scheme's interval coefficients and its two boundary rows (Keller
1974) are defined here once, for solver.solve_corrections and the
standard-library warm-start certificate in front alike. They are plain
arithmetic: the solver calls them on arrays and numpy scalars and the
certificate on floats, and both get the same IEEE operations in the same
order.
"""

import math
from array import array
from dataclasses import dataclass, field

from .errors import DegenerateLinearizationError, NumericError, ShapeError, check_grid

__all__ = ["Grid", "build_grid", "integrate", "differentiate"]


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """num evenly spaced doubles from start to stop, as np.linspace gives them.

    The arithmetic is numpy's, step for step: i * step + start, with the
    last point set to stop. One point is 0 * delta + start, and a step that
    underflows to zero (a range of subnormal width) scales by
    (i / div) * delta instead.
    """
    delta, div = stop - start, num - 1
    step = delta / div if div > 0 else 0.0
    if step != 0:
        ys = [i * step + start for i in range(num)]
    else:
        ys = [(i / div if div > 0 else i) * delta + start for i in range(num)]
    if num > 1:
        ys[-1] = stop
    return ys


# each numpy array of a Grid and the buffer it views
_ARRAY_SOURCES = {"theta": "thetas", "x": "xs", "quad_weights": "ws"}


@dataclass(frozen=True)
class Grid:
    """Uniform grid in theta = ln x.

    Construction refuses what errors.check_grid refuses, with
    ConfigurationError: bounds that are not finite, not increasing or
    whose e^theta or largest trapezoid weight is not finite and positive,
    and an n_nodes that is not an integer in [2, errors.MAX_NODES].

    Attributes
    ----------
    theta_min, theta_max : float
        Bounds in theta; x spans [e^theta_min, e^theta_max].
    n_nodes : int
        Number of nodes, endpoints included.
    h : float
        Uniform theta spacing.
    thetas, xs, ws : memoryview
        Read-only memoryviews (format 'd') of the node coordinates in theta
        (np.linspace's doubles), in x (math.exp of each theta node) and the
        trapezoid weights in theta with the Jacobian e^theta absorbed. They
        take no part in == and hash, which the bounds and n_nodes decide.
    theta, x, quad_weights : np.ndarray
        Read-only views of thetas, xs and ws, made on first use without a
        copy; integrate(f) is quad_weights @ f.
    """

    theta_min: float
    theta_max: float
    n_nodes: int
    h: float = field(init=False)
    thetas: memoryview = field(init=False, repr=False, compare=False)
    xs: memoryview = field(init=False, repr=False, compare=False)
    ws: memoryview = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t0, t1, n = check_grid(self.theta_min, self.theta_max, self.n_nodes)
        h = (t1 - t0) / (n - 1)
        # each list is freed once its doubles are in the buffer
        thetas = array("d", _linspace(t0, t1, n))
        xs = array("d", [math.exp(theta) for theta in thetas])
        ws = array("d", [h * x for x in xs])
        ws[0], ws[-1] = 0.5 * h * xs[0], 0.5 * h * xs[-1]
        # the class is frozen: its checked values go in past __setattr__
        self.__dict__.update(
            theta_min=t0, theta_max=t1, n_nodes=n, h=h,
            thetas=memoryview(thetas).toreadonly(),
            xs=memoryview(xs).toreadonly(),
            ws=memoryview(ws).toreadonly(),
        )

    def __getattr__(self, name):
        # only attributes not yet set get here: a read-only array, made once
        source = _ARRAY_SOURCES.get(name)
        if source is None:
            raise AttributeError(f"'Grid' object has no attribute {name!r}")
        import numpy as np

        view = self.__dict__[name] = np.frombuffer(getattr(self, source))
        return view

    @property
    def x_min(self) -> float:
        return self.xs[0]

    @property
    def x_max(self) -> float:
        return self.xs[-1]


def build_grid(theta_min: float, theta_max: float, n_nodes: int) -> Grid:
    """Grid(theta_min, theta_max, n_nodes), which checks its arguments."""
    return Grid(theta_min, theta_max, n_nodes)


def _check_values(values, grid: Grid, op: str):
    import numpy as np

    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_nodes,):
        raise ShapeError(
            f"{op}: expected shape ({grid.n_nodes},), got {values.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise NumericError(f"{op}: input contains non-finite values")
    return values


def integrate(values, grid: Grid) -> float:
    """Integral of nodal values over x in [x_min, x_max]."""
    values = _check_values(values, grid, "integrate")
    return float(grid.quad_weights @ values)


def differentiate(values, grid: Grid):
    """d/dx of nodal values: e^{-theta} times theta differences.

    Centered second-order stencil at interior nodes, first-order one-sided
    at the endpoints (the endpoints carry half quadrature weight and sit
    where every field in this problem is vanishingly small, so the lower
    order there never surfaces in assembled integrals).
    """
    import numpy as np

    values = _check_values(values, grid, "differentiate")
    d = np.empty_like(values)
    d[1:-1] = values[2:] - values[:-2]
    d[1:-1] /= 2.0 * grid.h
    d[0] = (values[1] - values[0]) / grid.h
    d[-1] = (values[-1] - values[-2]) / grid.h
    return d / grid.x


def _coefficients(k, phi):
    """P = 1 - k^2 phi, Q = 1 + k^2 phi and their k-derivatives at potential
    samples phi, an array or a float."""
    kk = k * k
    return 1.0 - kk * phi, 1.0 + kk * phi, -2.0 * k * phi, 2.0 * k * phi


def _origin_row(k, phi_origin):
    """Slope c0 of v = c0 x u at the origin and its k-derivative."""
    return (1.0 + k * k * phi_origin) / 3.0, 2.0 * k * phi_origin / 3.0


def _tail_row(k, phi_end, x_end):
    """Decaying Riccati root r = u/v at the outer edge and its k-derivative.

    DegenerateLinearizationError where the root is not defined: 1/x^2 + P Q
    is not positive, or Q is zero (or its square underflows) at the outer
    node.
    """
    p, q, dp, dq = _coefficients(k, phi_end)
    disc = 1.0 / (x_end * x_end) + p * q
    if not disc > 0.0:
        raise DegenerateLinearizationError(
            f"no decaying tail root at k={k!r}: 1/x^2 + P Q = {float(disc)!r}"
        )
    if q * q == 0.0:
        raise DegenerateLinearizationError(
            f"no decaying tail root at k={k!r}: Q = {float(q)!r} at the outer node"
        )
    s = math.sqrt(disc)
    r = (1.0 / x_end - s) / q
    ds = (p * dq + q * dp) / (2.0 * s)
    dr = -ds / q - (1.0 / x_end - s) * dq / (q * q)
    return float(r), float(dr)

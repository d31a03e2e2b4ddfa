"""Field types and model building blocks: spinor pair, density, self-potential,
and IterationState, the solved-state record of both solve routes.

The bound state is described by two real radial amplitudes u(x), v(x) with
density rho = u^2 + v^2 normalized to unit total charge. The state generates
its own electrostatic shape function

    phi0(x) = int_x^inf rho(y)/y dy + (1/x) int_0^x rho(y) dy,

the classic shell decomposition: charge outside x acts from its own radius,
charge inside acts from the center. The potential entering the equations is
phi = a * phi0 with coupling a (negative on the physical branch).

On the log grid both pieces are single cumulative trapezoid sweeps:
int rho/y dy has Jacobian-free form int rho dtheta, and int rho dy becomes
int rho e^theta dtheta.

Importing the module loads no numpy: the functions that build arrays,
SpinorPair.normalized, potential and trial_functions, import it when called.
So front's standard-library certificate builds an IterationState without
loading numpy.
"""

import sys
from dataclasses import dataclass, field
from typing import Tuple

from .errors import ConfigurationError, check_value
from .grid import Grid, _check_values, integrate

__all__ = [
    "SpinorPair",
    "Density",
    "SelfField",
    "IterationState",
    "density",
    "potential",
    "trial_functions",
]


@dataclass
class SpinorPair:
    """Radial amplitudes (u, v) sampled on a grid."""

    u: "np.ndarray"
    v: "np.ndarray"

    def normalized(self, grid: Grid) -> "SpinorPair":
        """Copy with unit density integral.

        A pair already within 4 eps of unit norm is copied unchanged; any
        other is scaled by 1/sqrt(norm), with the norm taken on the pair
        over max(|u|, |v|) where u^2 + v^2 under- or overflows. A pair with
        a non-finite value, or no non-zero one, raises ConfigurationError:
        no scale brings it to unit norm.
        """
        return _unit(self, grid)[0]


@dataclass
class Density:
    rho: "np.ndarray"
    norm: float


@dataclass
class SelfField:
    """Self-generated potential: shape phi0 plus the coupling that scales it."""

    phi0: "np.ndarray"
    a: float

    @property
    def phi(self) -> "np.ndarray":
        return self.a * self.phi0


@dataclass
class IterationState:
    """Complete iterate: fields, frequency, frozen potential, diagnostics.

    pair is at unit norm and field is the potential of its density at
    coupling a. residual_norm is the max-norm of the midpoint residuals at
    k with that potential frozen. last_mu is the frequency increment of
    the step that made the state: nan on a starting state, and on a
    converged one the increment of its last check. trace holds the solve's
    (iteration, k, residual_norm, mu) rows so far.

    Both solve routes return one: the numpy solver's states hold numpy
    arrays, the standard-library certificate's (front._certify) lists of
    floats. field.phi and any array arithmetic on the fields need the
    arrays, so only the numpy path's states support them.
    """

    pair: SpinorPair
    k: float
    field: SelfField
    a: float
    residual_norm: float
    iteration: int = 0
    last_mu: float = float("nan")
    trace: list = field(default_factory=list, repr=False)


def density(pair: SpinorPair, grid: Grid) -> Density:
    """rho = u^2 + v^2 and its integral over the grid."""
    u = _check_values(pair.u, grid, "density")
    v = _check_values(pair.v, grid, "density")
    rho = u * u + v * v
    return Density(rho=rho, norm=integrate(rho, grid))


_NORM_KEEP = 4 * sys.float_info.epsilon   # a pair this close to unit norm is kept


def _squares(u, v, grid: Grid):
    """rho = u^2 + v^2 and its integral over the grid, unchecked.

    Where the squares overflow, rho and the norm are inf, with no warning;
    a nan in u or v makes the norm nan. The callers refuse a norm that is
    not finite and positive.
    """
    import numpy as np

    with np.errstate(over="ignore"):
        rho = u * u + v * v
        return rho, float(grid.quad_weights @ rho)


def _unit(pair: SpinorPair, grid: Grid) -> Tuple[SpinorPair, Density]:
    """A copy of pair's fields at unit norm, and its density: the one
    rescale of SpinorPair.normalized and of every solver start.

    ConfigurationError for a pair with a non-finite value or no non-zero
    one, which no scale brings to unit norm. A pair already within
    _NORM_KEEP of unit norm is kept bit for bit, with the density of its
    norm check: rescaling it by 1/sqrt(norm) would only move its last bits.
    Any other pair is scaled by 1/sqrt(norm), from that norm; only where
    the norm under- or overflows is it taken on the pair divided by
    max(|u|, |v|) first, which leaves it finite and positive.
    """
    import numpy as np

    u, v = np.array(pair.u, dtype=float), np.array(pair.v, dtype=float)
    if not (np.isfinite(u).all() and np.isfinite(v).all() and (u.any() or v.any())):
        raise ConfigurationError("spinor pair must be finite with a non-zero value")
    u, v = _check_values(u, grid, "unit norm"), _check_values(v, grid, "unit norm")
    rho, norm = _squares(u, v, grid)
    if abs(norm - 1.0) <= _NORM_KEEP:
        return SpinorPair(u, v), Density(rho, norm)
    if not 0.0 < norm < np.inf:
        scale = max(np.abs(u).max(), np.abs(v).max())
        u, v = u / scale, v / scale
        norm = _squares(u, v, grid)[1]
    s = 1.0 / np.sqrt(norm)
    unit = SpinorPair(u * s, v * s)
    return unit, density(unit, grid)


def potential(rho: "np.ndarray", grid: Grid) -> "np.ndarray":
    """Shape function phi0 of the self-potential for a given density.

    Linear in rho. Monotone non-increasing, and equal to (int rho)/x
    wherever the density has already decayed.

    Returns
    -------
    np.ndarray
        phi0 at the grid nodes.
    """
    import numpy as np

    rho = _check_values(rho, grid, "potential")
    if np.any(rho < 0.0):
        raise ConfigurationError(
            "potential: density must be nonnegative "
            f"(min entry {float(np.min(rho)):g})"
        )
    x = grid.x
    h = grid.h
    # int_x^inf rho/y dy == int_theta^theta_max rho dtheta (backward sweep)
    seg_out = 0.5 * h * (rho[1:] + rho[:-1])
    outer = np.zeros(grid.n_nodes)
    outer[:-1] = np.cumsum(seg_out[::-1])[::-1]
    # int_0^x rho dy == int_theta_min^theta rho e^theta dtheta (forward sweep)
    rx = rho * x
    seg_in = 0.5 * h * (rx[1:] + rx[:-1])
    inner = np.zeros(grid.n_nodes)
    inner[1:] = np.cumsum(seg_in)
    return outer + inner / x


def trial_functions(b: float, grid: Grid) -> SpinorPair:
    """Variational seed pair at scale b.

    u = A x (1 + b x) e^{-bx}, v = B x^2 e^{-bx} with amplitudes
    A = sqrt(2/7) b^{3/2}, B = sqrt(2/3) b^{3/2}, which keeps the combination
    7 A^2 + 3 B^2 = 4 b^3 fixed across scales. Unit norm holds at b = 1
    exactly; for other b the norm is (1 + b^2)/(2 b^2), so callers that
    need a normalized state must rescale. A scale whose pair on this grid
    is not finite, or has no finite positive norm to rescale by, raises
    ConfigurationError.
    """
    import numpy as np

    check_value("trial scale b", b, 0.0, open_low=True)
    with np.errstate(over="ignore", invalid="ignore"):
        amp = np.float64(b) ** 1.5  # inf, where a Python float would raise
        A = np.sqrt(2.0 / 7.0) * amp
        B = np.sqrt(2.0 / 3.0) * amp
        x = grid.x
        decay = np.exp(-b * x)
        u = A * x * (1.0 + b * x) * decay
        v = B * x * x * decay
    # the weights are positive, so a non-finite entry makes this non-finite
    norm = _squares(u, v, grid)[1]
    if not 0.0 < norm < np.inf:
        raise ConfigurationError(
            f"trial scale b = {b!r} gives no finite seed with a positive "
            f"norm on this grid (norm {norm!r})"
        )
    return SpinorPair(u=u, v=v)

"""Field types and model building blocks: spinor pair, density, self-potential.

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
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_value
from .grid import Grid, _check_values, integrate

__all__ = [
    "SpinorPair",
    "Density",
    "SelfField",
    "density",
    "potential",
    "make_field",
    "trial_functions",
]


@dataclass
class SpinorPair:
    """Radial amplitudes (u, v) sampled on a grid."""

    u: np.ndarray
    v: np.ndarray

    def normalized(self, grid: Grid) -> "SpinorPair":
        """Scaled copy with unit density integral."""
        n = integrate(self.u**2 + self.v**2, grid)
        s = 1.0 / np.sqrt(n)
        return SpinorPair(self.u * s, self.v * s)


@dataclass
class Density:
    rho: np.ndarray
    norm: float


@dataclass
class SelfField:
    """Self-generated potential: shape phi0 plus the coupling that scales it."""

    phi0: np.ndarray
    a: float

    @property
    def phi(self) -> np.ndarray:
        return self.a * self.phi0


def density(pair: SpinorPair, grid: Grid) -> Density:
    """rho = u^2 + v^2 and its integral over the grid."""
    u = _check_values(pair.u, grid, "density")
    v = _check_values(pair.v, grid, "density")
    rho = u * u + v * v
    return Density(rho=rho, norm=integrate(rho, grid))


def potential(rho: np.ndarray, grid: Grid) -> np.ndarray:
    """Shape function phi0 of the self-potential for a given density.

    Linear in rho. Monotone non-increasing, and equal to (int rho)/x
    wherever the density has already decayed.

    Returns
    -------
    np.ndarray
        phi0 at the grid nodes.
    """
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


def make_field(pair: SpinorPair, a: float, grid: Grid) -> SelfField:
    """SelfField generated by the pair's own density at coupling a."""
    return SelfField(phi0=potential(density(pair, grid).rho, grid), a=float(a))


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
        norm = float(grid.quad_weights @ (u * u + v * v))
    if not (np.isfinite(norm) and norm > 0.0):
        raise ConfigurationError(
            f"trial scale b = {b!r} gives no finite seed with a positive "
            f"norm on this grid (norm {norm!r})"
        )
    return SpinorPair(u=u, v=v)

"""Energy functional pieces and the charge bookkeeping built on them.

For a unit-norm pair the energy splits into a one-body part

    T = int [ (u'v - v'u) - 2uv/x + (u^2 - v^2) ] dx

and the self-interaction

    Pi = int phi0 (u^2 + v^2) dx,

with total E = T + (a/2) Pi at coupling a. Stationarity of E/norm in the
state fixes the coupling at the extremum, a = -T/Pi, which is the anchor the
coupling scan is checked against. The remaining observables are algebraic in
a: rest energy E(0)/m0 = -T a / (2 alpha0), the product of the two charge
units e e0 = 4 pi a, and the mixing parameters delta = a/alpha0 and
C = (alpha0 - a)/(alpha0 + a), tied by delta = (1 - C)/(1 + C).

_report builds the EnergyReport from a, T, Pi and the localization radius
alone, for energy_report here and for the standard-library warm-start
certificate in front, which takes those integrals on lists of floats. Like
model, the module loads no numpy until a function that integrates an array
is called.
"""

import math
from dataclasses import dataclass

from .errors import NORM_TOL, UnnormalizedStateError, check_coupling, check_value
from .grid import Grid, differentiate, integrate
from .model import SpinorPair, density, potential

__all__ = [
    "EnergyReport",
    "kinetic_T",
    "potential_Pi",
    "energy_report",
    "charge_relation",
]


@dataclass
class EnergyReport:
    a: float
    T: float
    Pi: float
    a_extremum: float          # -T/Pi, should reproduce a at the solution
    E0_over_m0: float
    e_times_e0: float
    delta: float
    C: float
    localization_radius: float  # <x> of the density


def kinetic_T(pair: SpinorPair, grid: Grid, check_norm: bool = True) -> float:
    """One-body part of the energy functional.

    Expects a unit-norm pair (within 1e-6) unless check_norm is disabled;
    the functional's normalization-sensitive pieces make a silent
    unnormalized evaluation a bug, not a feature.
    """
    return _kinetic(pair, grid, density(pair, grid), check_norm)


def _kinetic(pair: SpinorPair, grid: Grid, dens, check_norm: bool = True) -> float:
    """kinetic_T, given the pair's density dens."""
    if check_norm and abs(dens.norm - 1.0) > NORM_TOL:
        raise UnnormalizedStateError(dens.norm, NORM_TOL)
    u, v = pair.u, pair.v
    du = differentiate(u, grid)
    dv = differentiate(v, grid)
    integrand = (du * v - dv * u) - 2.0 * u * v / grid.x + (u * u - v * v)
    return integrate(integrand, grid)


def potential_Pi(pair: SpinorPair, grid: Grid) -> float:
    """Self-interaction integral int phi0 rho dx, phi0 the pair's own
    potential shape."""
    return _self_interaction(density(pair, grid).rho, grid)


def _self_interaction(rho, grid: Grid) -> float:
    """potential_Pi, given the pair's density rho."""
    return integrate(potential(rho, grid) * rho, grid)


def charge_relation(a: float, e0: float = 1.0, alpha0: float = 10.0) -> dict:
    """Charge observables at coupling a.

    Parameters
    ----------
    a : float
        Coupling of the self-potential (negative on the physical branch).
    e0 : float
        Positive unit in which the second charge is measured; e = 4 pi a / e0.
    alpha0 : float
        Mixing scale, finite and positive; |a| < alpha0 required for
        meaningful delta, C.

    Returns
    -------
    dict with e_times_e0, e, delta, C.
    """
    check_value("e0", e0, 0.0, open_low=True)
    check_coupling(a, alpha0)
    e_e0 = 4.0 * math.pi * a
    C = (alpha0 - a) / (alpha0 + a)
    return {
        "e_times_e0": e_e0,
        "e": e_e0 / e0,
        "delta": a / alpha0,
        "C": C,
    }


def energy_report(
    pair: SpinorPair, grid: Grid, a: float, alpha0: float = 10.0
) -> EnergyReport:
    """Evaluate every derived quantity of a (converged) unit-norm state.

    The density, its norm and its potential are built once, for T, Pi and
    the localization radius alike.
    """
    dens = density(pair, grid)
    T = _kinetic(pair, grid, dens)
    Pi = _self_interaction(dens.rho, grid)
    radius = integrate(grid.x * dens.rho, grid) / dens.norm
    return _report(a, T, Pi, radius, alpha0)


def _report(a, T, Pi, radius, alpha0) -> EnergyReport:
    """The report of a state at coupling a, from its integrals T and Pi and
    its localization radius; refuses what charge_relation refuses."""
    charges = charge_relation(a, alpha0=alpha0)
    return EnergyReport(
        a=float(a),
        T=T,
        Pi=Pi,
        a_extremum=-T / Pi,
        E0_over_m0=-T * a / (2.0 * alpha0),
        e_times_e0=charges["e_times_e0"],
        delta=charges["delta"],
        C=charges["C"],
        localization_radius=radius,
    )

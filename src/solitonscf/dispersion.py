"""Relativistic dispersion of the moving bound state, in closed form.

A state of rest energy E0 boosted to momentum P carries energy
E = sqrt(E0^2 + P^2); the negative branch mirrors it. The moving state is
a superposition of the rest-frame state and its charge conjugate, with
mixing coefficients on the electron branch

    L = P / D,   K = (E_e - E0) / D,   D = sqrt(P^2 + (E_e - E0)^2),

normalized so L^2 + K^2 = 1. The difference E_e - E0 is evaluated as
P^2 / (E_e + E0), which is exact and avoids the cancellation that makes
the naive difference lose digits for P << E0. The orthogonal combination
is L1 = -K, K1 = L, and the negative-energy branch carries

    Lp = P / Dp,   Kp = -(E_e + E0) / Dp,   Dp = sqrt(P^2 + (E_e + E0)^2).

The group velocity dE/dP = P / sqrt(E0^2 + P^2) stays below one for any
momentum, with the rest energy playing the role of the inertial mass.

The mixing amplitudes and the velocity are ratios, unchanged when E0 and P
are scaled together. Inputs whose larger value lies outside [2^-500, 2^500]
are scaled by one power of two into that range first, so P * P and
E_e + E0 neither overflow nor flush to zero; the scaling is exact, and
inputs already in range are used as given.

The module needs only the standard library. Every square root of a sum of
squares goes through _hypot, the C library's hypot, which is the routine
numpy's np.hypot calls, so the values are the ones numpy gives bit for bit.
math.hypot is not used: its own algorithm differs from hypot in the last
bit on about one pair in two hundred.
"""

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import ConfigurationError, UnphysicalMixingError, check_value

__all__ = [
    "DispersionPoint",
    "spectrum",
    "mixing_coefficients",
    "group_velocity",
    "dispersion_table",
]


@dataclass
class DispersionPoint:
    """One momentum sample of the dispersion curve."""

    P: float
    E_electron: float
    E_positron: float
    L: float
    K: float
    velocity: float


def _hypot(x: float, y: float) -> float:
    """sqrt(x^2 + y^2) by the C library's hypot: the modulus of x + iy.

    Raises OverflowError where the result exceeds the double range.
    """
    return abs(complex(x, y))


def _check_inputs(E0: float, P: float, require_positive_E0: bool) -> Tuple[float, float]:
    E0 = float(check_value("E0", E0, 0.0))
    P = float(check_value("P", P, 0.0))
    if require_positive_E0 and E0 == 0.0 and P == 0.0:
        raise UnphysicalMixingError(
            "mixing coefficients are undefined at E0 = P = 0"
        )
    return E0, P


_SAFE_SCALE = 2.0**500


def _in_safe_range(E0: float, P: float) -> Tuple[float, float]:
    """(E0, P) times one power of two that brings the larger into range."""
    m = max(E0, P)
    if m > _SAFE_SCALE or 0.0 < m < 1.0 / _SAFE_SCALE:
        e = math.frexp(m)[1]
        return math.ldexp(E0, -e), math.ldexp(P, -e)
    return E0, P


def spectrum(E0: float, P: float) -> Tuple[float, float]:
    """Energies of the two branches at momentum P: (+sqrt, -sqrt)."""
    E0, P = _check_inputs(E0, P, require_positive_E0=False)
    try:
        e = _hypot(E0, P)
    except OverflowError as exc:
        raise ConfigurationError(
            f"energy sqrt(E0^2 + P^2) overflows at ({E0!r}, {P!r})"
        ) from exc
    return e, -e


def mixing_coefficients(E0: float, P: float):
    """Mixing amplitudes (L, K, L1, K1, Lp, Kp) of the moving state.

    L, K mix the electron branch; (L1, K1) = (-K, L) is its orthogonal
    partner; Lp, Kp mix the negative-energy branch. At P = 0 the state is
    pure: (L, K) = (1, 0) and (Lp, Kp) = (0, -1).
    """
    E0, P = _in_safe_range(*_check_inputs(E0, P, require_positive_E0=True))
    e_e = _hypot(E0, P)
    if P == 0.0:
        L, K = 1.0, 0.0
    else:
        q = P * P / (e_e + E0)  # E_e - E0 without cancellation
        d = _hypot(P, q)
        L, K = P / d, q / d
    s = e_e + E0
    dp = _hypot(P, s)
    Lp, Kp = P / dp, -s / dp
    return L, K, -K, L, Lp, Kp


def group_velocity(E0: float, P: float) -> float:
    """dE/dP on the positive branch; magnitude below one for finite E0 > 0."""
    E0, P = _check_inputs(E0, P, require_positive_E0=False)
    if E0 <= 0.0:
        raise ConfigurationError(
            f"group velocity needs a positive rest energy, got E0 = {E0!r}"
        )
    E0, P = _in_safe_range(E0, P)
    return P / _hypot(E0, P)


def dispersion_table(E0: float, momenta: Sequence[float]) -> list:
    """DispersionPoint rows for each momentum, ready for tabulation."""
    rows = []
    for P in momenta:
        e_e, e_p = spectrum(E0, P)
        L, K, *_ = mixing_coefficients(E0, P)
        rows.append(
            DispersionPoint(
                P=float(P),
                E_electron=e_e,
                E_positron=e_p,
                L=L,
                K=K,
                velocity=group_velocity(E0, P),
            )
        )
    return rows

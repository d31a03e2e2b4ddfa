"""Closed-form dispersion: spectrum branches, mixing weights, group velocity."""

import numpy as np
import pytest

from solitonscf.dispersion import (
    DispersionPoint,
    dispersion_table,
    group_velocity,
    mixing_coefficients,
    spectrum,
)
from solitonscf.errors import ConfigurationError, UnphysicalMixingError

# Symbolic values at E0 = P = 1, computed before the build:
L_UNIT = 0.92387953251128676    # cos(pi/8) = sqrt(2 + sqrt(2))/2
K_UNIT = 0.38268343236508977    # sin(pi/8)


def test_spectrum_at_unit_point():
    e_plus, e_minus = spectrum(1.0, 1.0)
    assert e_plus == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert e_minus == -e_plus


def test_spectrum_relativistic_invariant():
    for E0 in (0.158550, 1.0, 1.7):
        for P in E0 * np.logspace(-8, 1, 23):
            e_plus, e_minus = spectrum(E0, P)
            assert e_plus**2 - P**2 == pytest.approx(E0**2, rel=1e-12)
            assert e_minus == -e_plus


def test_mixing_at_unit_point():
    L, K, L1, K1, Lp, Kp = mixing_coefficients(1.0, 1.0)
    assert L == pytest.approx(L_UNIT, rel=1e-14)
    assert K == pytest.approx(K_UNIT, rel=1e-14)
    assert L1 == -K and K1 == L


def test_mixing_normalization_sweep():
    for E0 in (0.158550, 1.0, 1.7):
        for P in np.logspace(-8, 3, 23):
            L, K, L1, K1, Lp, Kp = mixing_coefficients(E0, P)
            assert L * L + K * K == pytest.approx(1.0, abs=1e-14)
            assert L1 * L1 + K1 * K1 == pytest.approx(1.0, abs=1e-14)
            assert Lp * Lp + Kp * Kp == pytest.approx(1.0, abs=1e-14)
            # the two electron rows are orthogonal by construction
            assert L * L1 + K * K1 == pytest.approx(0.0, abs=1e-14)


def test_mixing_rest_limits():
    L, K, L1, K1, Lp, Kp = mixing_coefficients(1.0, 0.0)
    assert (L, K) == (1.0, 0.0)
    assert (L1, K1) == (0.0, 1.0)
    assert (Lp, Kp) == (0.0, -1.0)


def test_mixing_small_momentum_is_stable():
    # no cancellation catastrophe approaching the rest frame
    L, K, L1, K1, Lp, Kp = mixing_coefficients(1.0, 1e-12)
    assert L == pytest.approx(1.0, abs=1e-15)
    assert K == pytest.approx(0.5e-12, rel=1e-9)
    assert Kp == pytest.approx(-1.0, abs=1e-15)


def test_mixing_large_momentum_limit():
    # both weights approach 1/sqrt(2) as P dominates
    L, K, *_ = mixing_coefficients(1.0, 1e6)
    assert L == pytest.approx(np.sqrt(0.5), rel=1e-6)
    assert K == pytest.approx(np.sqrt(0.5), rel=1e-6)


@pytest.mark.parametrize("s", [2.0**-1073, 2.0**-900, 2.0**900, 2.0**1022])
def test_mixing_and_velocity_are_scale_free(s):
    # the amplitudes and dE/dP are ratios: E0 and P scaled together by a
    # power of two give the same bits, where P * P alone would overflow or
    # flush to zero
    assert mixing_coefficients(s, 0.5 * s) == mixing_coefficients(1.0, 0.5)
    assert group_velocity(s, 0.5 * s) == group_velocity(1.0, 0.5)


def test_spectrum_refuses_an_energy_that_overflows():
    assert np.isfinite(spectrum(1e308, 1e308)[0])
    with pytest.raises(ConfigurationError, match="overflows"):
        spectrum(1.5e308, 1.5e308)


def test_group_velocity_values():
    assert group_velocity(1.0, 0.0) == 0.0
    assert group_velocity(1.0, 1.0) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)
    assert group_velocity(1.0, 1e6) == pytest.approx(1.0, abs=1e-9)


def test_group_velocity_matches_finite_difference():
    for E0 in (0.158550, 1.0, 1.7):
        dp = 1e-5 * E0
        for P in E0 * np.logspace(-3, 2, 17):
            fd = (spectrum(E0, P + dp)[0] - spectrum(E0, P - dp)[0]) / (2.0 * dp)
            assert group_velocity(E0, P) == pytest.approx(fd, rel=1e-8)


def test_invalid_inputs():
    with pytest.raises(ConfigurationError):
        spectrum(-1.0, 1.0)
    with pytest.raises(ConfigurationError):
        spectrum(np.nan, 1.0)
    with pytest.raises(ConfigurationError):
        mixing_coefficients(1.0, np.inf)
    with pytest.raises(UnphysicalMixingError):
        mixing_coefficients(0.0, 0.0)
    with pytest.raises(ConfigurationError):
        group_velocity(0.0, 1.0)
    with pytest.raises(ConfigurationError):
        group_velocity(-2.0, 1.0)


def test_dispersion_table():
    momenta = [0.0, 0.5, 1.0, 2.0]
    rows = dispersion_table(1.0, momenta)
    assert len(rows) == 4
    assert all(isinstance(row, DispersionPoint) for row in rows)
    assert rows[0].P == 0.0 and rows[0].L == 1.0 and rows[0].K == 0.0
    for row in rows:
        assert row.E_electron == pytest.approx(np.hypot(1.0, row.P), rel=1e-15)
        assert row.E_positron == -row.E_electron
        assert row.velocity == pytest.approx(row.P / row.E_electron, rel=1e-14)

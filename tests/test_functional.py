"""Energy functional pieces against frozen closed-form oracles."""

import numpy as np
import pytest

from solitonscf import functional
from solitonscf.errors import (
    ConfigurationError,
    UnnormalizedStateError,
    UnphysicalMixingError,
)
from solitonscf.functional import (
    charge_relation,
    energy_report,
    kinetic_T,
    potential_Pi,
)
from solitonscf.grid import integrate
from solitonscf.model import SpinorPair, trial_functions

# Symbolic values for the b = 1 seed family, computed before the build:
T_TRIAL = -0.65465367070797714    # -sqrt(21)/7
PI_TRIAL = 0.39293686224489796    # 4929/12544
XMEAN_TRIAL = 65.0 / 28.0


def test_kinetic_on_trial_family(grid):
    pair = trial_functions(1.0, grid)
    assert kinetic_T(pair, grid) == pytest.approx(T_TRIAL, rel=1e-5)


def test_potential_integral_on_trial_family(grid):
    pair = trial_functions(1.0, grid)
    assert potential_Pi(pair, grid) == pytest.approx(PI_TRIAL, rel=1e-5)


def test_mean_radius_on_trial_family(grid):
    pair = trial_functions(1.0, grid)
    report = energy_report(pair, grid, a=-3.3)
    assert report.localization_radius == pytest.approx(XMEAN_TRIAL, rel=1e-5)


def test_kinetic_requires_normalization(grid):
    pair = trial_functions(0.5, grid)  # norm (1 + b^2)/(2b^2) = 2.5
    with pytest.raises(UnnormalizedStateError):
        kinetic_T(pair, grid)
    # explicit opt-out evaluates anyway
    val = kinetic_T(pair, grid, check_norm=False)
    assert np.isfinite(val)


def test_kinetic_scale_behavior(grid):
    # T(b) = 1/2 - sqrt(21)/7 - 1/(2 b^2) on the normalized family
    b = 1.3
    pair = trial_functions(b, grid).normalized(grid)
    expected = 0.5 - np.sqrt(21.0) / 7.0 - 1.0 / (2.0 * b * b)
    # normalization rescales rho by 2b^2/(1+b^2); T is quadratic in fields
    expected_normalized = (
        (-np.sqrt(21.0) / 7.0 + 0.5 - 1.0 / (2.0 * b * b))
        * (2.0 * b * b / (1.0 + b * b))
    )
    assert kinetic_T(pair, grid) == pytest.approx(expected_normalized, rel=1e-5)
    assert np.isfinite(expected)


def test_charge_relation_values():
    out = charge_relation(-2.5, e0=2.0, alpha0=10.0)
    assert out["e_times_e0"] == pytest.approx(4.0 * np.pi * -2.5, rel=1e-14)
    assert out["e"] == pytest.approx(4.0 * np.pi * -2.5 / 2.0, rel=1e-14)
    assert out["delta"] == pytest.approx(-0.25, rel=1e-14)
    assert out["C"] == pytest.approx(12.5 / 7.5, rel=1e-14)


def test_charge_relation_delta_c_identity():
    for a in (-3.3, -2.3, -0.5, 1.0):
        out = charge_relation(a, alpha0=10.0)
        assert out["delta"] == pytest.approx(
            (1.0 - out["C"]) / (1.0 + out["C"]), rel=1e-12
        )


def test_charge_relation_rejects_bad_input():
    with pytest.raises(UnphysicalMixingError):
        charge_relation(-10.0, alpha0=10.0)
    with pytest.raises(ConfigurationError):
        charge_relation(-2.0, e0=0.0)
    with pytest.raises(ConfigurationError):
        charge_relation(np.nan)
    for alpha0 in (np.nan, np.inf, True):  # NaN delta and C; a bool is no scale
        with pytest.raises(ConfigurationError):
            charge_relation(-2.0, alpha0=alpha0)


def test_energy_report_arithmetic(grid):
    pair = trial_functions(1.0, grid)
    rep = energy_report(pair, grid, a=-2.0, alpha0=8.0)
    assert rep.a == -2.0
    assert rep.a_extremum == pytest.approx(-rep.T / rep.Pi, rel=1e-14)
    assert rep.E0_over_m0 == pytest.approx(-rep.T * -2.0 / 16.0, rel=1e-14)
    assert rep.e_times_e0 == pytest.approx(-8.0 * np.pi, rel=1e-14)
    assert rep.delta == pytest.approx(-0.25, rel=1e-14)


def test_energy_report_builds_density_and_potential_once(grid, monkeypatch):
    # one density and one potential per report, and the values of the
    # public pieces, which each build their own, bit for bit
    pair = trial_functions(1.3, grid).normalized(grid)
    expected = (kinetic_T(pair, grid), potential_Pi(pair, grid))
    calls = []
    for name in ("density", "potential"):
        plain = getattr(functional, name)

        def counted(*args, _name=name, _plain=plain):
            calls.append(_name)
            return _plain(*args)

        monkeypatch.setattr(functional, name, counted)
    rep = energy_report(pair, grid, a=-3.3)
    assert sorted(calls) == ["density", "potential"]
    assert (rep.T, rep.Pi) == expected
    with pytest.raises(UnnormalizedStateError):  # the unit-norm check stays
        energy_report(trial_functions(0.5, grid), grid, a=-3.3)


def test_kinetic_sign_flip_under_v_conjugation(grid):
    # flipping v's sign flips the cross terms only
    pair = trial_functions(1.0, grid)
    flipped = SpinorPair(pair.u, -pair.v)
    t1 = kinetic_T(pair, grid)
    t2 = kinetic_T(flipped, grid)
    # u^2 - v^2 part is invariant: T+ + T- = 2 * int(u^2 - v^2)
    sym = integrate(pair.u**2 - pair.v**2, grid)
    assert t1 + t2 == pytest.approx(2.0 * sym, rel=1e-10)

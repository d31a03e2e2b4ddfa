"""Spinor pair, density, self-potential and the variational seed family."""

import numpy as np
import pytest

from solitonscf.errors import ConfigurationError, NumericError
from solitonscf.grid import build_grid, integrate
from solitonscf.model import (
    SpinorPair,
    SelfField,
    density,
    potential,
    trial_functions,
)

# Closed-form values for the seed family at b = 1 (symbolic, frozen):
#   phi0(x) at x = 1/2, 1, 2, 4 and phi0(0+) = 4/7
PHI0_TRIAL = {
    0.5: 0.55913885541185090708,
    1.0: 0.52310424002336479999,
    2.0: 0.41583527843986436198,
    4.0: 0.24700879156786926944,
}
U_AT_1 = 0.39327966528611336551
V_AT_1 = 0.30037230591008518373


def test_density_zero(grid):
    zero = np.zeros(grid.n_nodes)
    d = density(SpinorPair(zero, zero), grid)
    assert np.all(d.rho == 0.0)
    assert d.norm == 0.0


def test_density_pointwise(grid):
    u = np.zeros(grid.n_nodes)
    v = np.zeros(grid.n_nodes)
    u[100], v[100] = 3.0, 4.0
    d = density(SpinorPair(u, v), grid)
    assert d.rho[100] == 25.0


def test_trial_pair_is_normalized(grid):
    pair = trial_functions(1.0, grid)
    assert abs(density(pair, grid).norm - 1.0) < 1e-6


def test_trial_point_values(grid):
    pair = trial_functions(1.0, grid)
    i = int(np.argmin(np.abs(grid.x - 1.0)))
    # evaluate analytically at the nearest node rather than x = 1 exactly
    x = grid.x[i]
    u_exact = np.sqrt(2.0 / 7.0) * x * (1.0 + x) * np.exp(-x)
    v_exact = np.sqrt(2.0 / 3.0) * x * x * np.exp(-x)
    assert pair.u[i] == pytest.approx(u_exact, rel=1e-14)
    assert pair.v[i] == pytest.approx(v_exact, rel=1e-14)
    # and the frozen values at x = 1 itself from the closed form
    assert np.sqrt(2 / 7) * 2 / np.e == pytest.approx(U_AT_1, rel=1e-15)
    assert np.sqrt(2 / 3) / np.e == pytest.approx(V_AT_1, rel=1e-15)


@pytest.mark.parametrize("b", [0.5, 0.7, 1.4, 2.0])
def test_trial_norm_formula(grid, b):
    pair = trial_functions(b, grid)
    expected = (1.0 + b * b) / (2.0 * b * b)
    assert density(pair, grid).norm == pytest.approx(expected, rel=1e-5)


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
def test_trial_amplitude_constraint(b):
    A = np.sqrt(2.0 / 7.0) * b**1.5
    B = np.sqrt(2.0 / 3.0) * b**1.5
    assert 7 * A * A + 3 * B * B == pytest.approx(4.0 * b**3, rel=1e-14)


def test_trial_rejects_bad_scale(grid):
    for b in (0.0, -1.0, np.nan, 1e300, 1e200, 1e-300):
        with pytest.raises(ConfigurationError):
            trial_functions(b, grid)


def test_potential_zero_density(grid):
    phi0 = potential(np.zeros(grid.n_nodes), grid)
    assert np.all(phi0 == 0.0)


def test_potential_rejects_negative(grid):
    rho = np.zeros(grid.n_nodes)
    rho[5] = -1e-3
    with pytest.raises((NumericError, ConfigurationError, ValueError)):
        potential(rho, grid)


def test_potential_coulomb_tail(grid):
    rho = density(trial_functions(1.0, grid), grid).rho
    phi0 = potential(rho, grid)
    assert grid.x[-1] * phi0[-1] == pytest.approx(integrate(rho, grid), rel=1e-4)


def test_potential_monotone_and_positive(grid):
    rho = density(trial_functions(1.0, grid), grid).rho
    phi0 = potential(rho, grid)
    assert np.all(phi0 > 0)
    assert np.all(np.diff(phi0) <= 1e-15)


def test_potential_linearity(grid):
    rho1 = density(trial_functions(1.0, grid), grid).rho
    rho2 = density(trial_functions(1.7, grid), grid).rho
    lhs = potential(2.0 * rho1 + 0.5 * rho2, grid)
    rhs = 2.0 * potential(rho1, grid) + 0.5 * potential(rho2, grid)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_potential_outside_support_is_coulomb(grid):
    # density supported inside x < 1: phi0(x) = (int rho)/x beyond it
    rho = np.where(grid.x < 1.0, grid.x**2 * np.exp(-grid.x), 0.0)
    rho[grid.x >= 1.0] = 0.0
    phi0 = potential(rho, grid)
    total = integrate(rho, grid)
    far = grid.x > 1.5
    assert np.max(np.abs(phi0[far] - total / grid.x[far])) < 1e-6


def test_potential_uniform_density_reference(grid):
    # rho constant on [0, 1] with unit integral: phi0(2) = 1/2 exactly
    rho = np.where(grid.x <= 1.0, 1.0, 0.0)
    rho = rho / integrate(rho, grid)
    phi0 = potential(rho, grid)
    i = int(np.argmin(np.abs(grid.x - 2.0)))
    assert phi0[i] * grid.x[i] == pytest.approx(1.0, abs=1e-4)


def _quadratic_sample(xs, ys, x_ref):
    """Three-point Lagrange evaluation around the node nearest x_ref."""
    i = int(np.argmin(np.abs(xs - x_ref)))
    sel = slice(i - 1, i + 2)
    coeffs = np.polyfit(xs[sel], ys[sel], 2)
    return float(np.polyval(coeffs, x_ref))


def test_potential_trial_family_frozen_oracle(grid):
    # nested-quadrature closed forms at four radii, 1e-5 relative
    rho = density(trial_functions(1.0, grid), grid).rho
    phi0 = potential(rho, grid)
    for x_ref, value in PHI0_TRIAL.items():
        sample = _quadratic_sample(grid.x, phi0, x_ref)
        assert sample == pytest.approx(value, rel=1e-5)


def test_potential_brute_force_kernel(coarse_grid):
    # independent O(n^2) evaluation: phi0 = K w rho with K = 1/max(x, y)
    g = coarse_grid
    rho = density(trial_functions(1.0, g), g).rho
    phi0 = potential(rho, g)
    kernel = 1.0 / np.maximum.outer(g.x, g.x)
    brute = kernel @ (g.quad_weights * rho)
    assert np.max(np.abs(phi0 - brute)) < 1e-10


def test_self_field_scales_by_coupling(grid):
    pair = trial_functions(1.0, grid)
    fld = SelfField(potential(density(pair, grid).rho, grid), -3.3)
    assert fld.a == -3.3
    assert np.allclose(fld.phi, -3.3 * fld.phi0, rtol=0, atol=1e-15)


def test_normalized_copy(grid):
    pair = trial_functions(2.0, grid)
    scaled = pair.normalized(grid)
    assert density(scaled, grid).norm == pytest.approx(1.0, abs=1e-12)
    # original untouched
    assert density(pair, grid).norm != pytest.approx(1.0, abs=1e-3)

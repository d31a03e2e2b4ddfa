"""Inner iteration: residuals, linearized corrections, frequency update."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from solitonscf.errors import (
    ConfigurationError,
    DegenerateLinearizationError,
    DivergenceError,
    NonConvergenceError,
    ShapeError,
    StalledUpdateError,
    WrongBranchError,
)
from solitonscf import model, solver
from solitonscf.grid import Grid, _origin_row, _tail_row, build_grid, integrate
from solitonscf.model import (
    SelfField,
    SpinorPair,
    density,
    potential,
    trial_functions,
)
from solitonscf.solver import (
    IterationState,
    SolverConfig,
    count_nodes,
    mu_update,
    newton_step,
    ode_residual,
    residual_norm,
    solve_corrections,
    solve_fixed_a,
)

K_AT_M33 = 0.837096797       # frozen regression, tol 1e-8, n = 2000
KSQ_A_PRODUCT = -2.3124125   # k(a)^2 * a, shared by every coupling


def _make_state(pair, a, k, grid):
    state = IterationState(
        pair=pair,
        k=float(k),
        field=SelfField(potential(density(pair, grid).rho, grid), float(a)),
        a=float(a),
        residual_norm=float("nan"),
    )
    state.residual_norm = residual_norm(state, grid)
    return state


def _seed_state(grid, a=-2.3, k=0.9, b=1.0):
    pair = trial_functions(b, grid).normalized(grid)
    return _make_state(pair, a, k, grid)


# ---------------------------------------------------------------------------
# residual evaluation


def test_residual_zero_fields(grid):
    zero = SpinorPair(np.zeros(grid.n_nodes), np.zeros(grid.n_nodes))
    state = _make_state(zero, -2.3, 1.0, grid)
    r_u, r_v = ode_residual(state, grid)
    assert np.all(r_u == 0.0)
    assert np.all(r_v == 0.0)
    assert residual_norm(state, grid) == 0.0


def test_residual_independent_stencil(coarse_grid):
    # re-evaluate the midpoint residual with literal index arithmetic
    state = _seed_state(coarse_grid)
    r_u, r_v = ode_residual(state, coarse_grid)
    x, h = coarse_grid.x, coarse_grid.h
    u, v, phi = state.pair.u, state.pair.v, state.field.phi
    k = state.k
    for i in (0, 5, coarse_grid.n_nodes // 2, coarse_grid.n_nodes - 2):
        xm = np.sqrt(x[i] * x[i + 1])
        um = 0.5 * (u[i] + u[i + 1])
        vm = 0.5 * (v[i] + v[i + 1])
        pm = 0.5 * (phi[i] + phi[i + 1])
        ru = (u[i + 1] - u[i]) / (h * xm) - um / xm - (1.0 - k * k * pm) * vm
        rv = (v[i + 1] - v[i]) / (h * xm) + vm / xm - (1.0 + k * k * pm) * um
        assert r_u[i] == pytest.approx(ru, abs=1e-12)
        assert r_v[i] == pytest.approx(rv, abs=1e-12)


def test_residual_norm_is_max_norm(coarse_grid):
    state = _seed_state(coarse_grid)
    r_u, r_v = ode_residual(state, coarse_grid)
    assert residual_norm(state, coarse_grid) == max(
        np.max(np.abs(r_u)), np.max(np.abs(r_v))
    )


# ---------------------------------------------------------------------------
# linearized corrections


def _apply_rows(state, grid, wu, wv):
    """Apply the box-scheme rows to a correction pair, literal form."""
    x, h = grid.x, grid.h
    phi = state.field.phi
    k = state.k
    xm = np.sqrt(x[1:] * x[:-1])
    pm = 0.5 * (phi[1:] + phi[:-1])
    p = 1.0 - k * k * pm
    q = 1.0 + k * k * pm
    g_a = 0.5 * h * xm * p
    g_b = 0.5 * h * xm * q
    eq1 = (
        (wu[1:] - wu[:-1])
        - 0.5 * h * (wu[:-1] + wu[1:])
        - g_a * (wv[:-1] + wv[1:])
    )
    eq2 = (
        (wv[1:] - wv[:-1])
        + 0.5 * h * (wv[:-1] + wv[1:])
        - g_b * (wu[:-1] + wu[1:])
    )
    c0 = (1.0 + k * k * phi[0]) / 3.0
    pq = (1.0 - k * k * phi[-1]) * (1.0 + k * k * phi[-1])
    inv = 1.0 / x[-1]
    r_end = (inv - np.sqrt(inv * inv + pq)) / (1.0 + k * k * phi[-1])
    origin = wv[0] - c0 * x[0] * wu[0]
    tail = wu[-1] - r_end * wv[-1]
    return eq1, eq2, origin, tail


def _manufactured_state(grid):
    """A hand-built smooth pair far from any solution."""
    x = grid.x
    pair = SpinorPair(x * np.exp(-x), 0.4 * x**2 * np.exp(-x))
    return _make_state(pair, -2.0, 0.9, grid)


def test_corrections_satisfy_discrete_equations(coarse_grid):
    # The residual-driven correction (-u, -v) and the solved frequency
    # direction, plugged into independently coded rows: on the seed and on
    # a hand-built pair far from any solution. The operator is linear in
    # the fields at frozen potential, so the rows applied to (-u, -v) give
    # minus the scaled residual.
    for state in (_seed_state(coarse_grid), _manufactured_state(coarse_grid)):
        _check_discrete_equations(state, coarse_grid)


def _check_discrete_equations(state, grid):
    psi_mu, psi1_mu = solve_corrections(state, grid)
    x, h = grid.x, grid.h
    u, v, phi = state.pair.u, state.pair.v, state.field.phi
    k = state.k
    xm = np.sqrt(x[1:] * x[:-1])
    hx = h * xm
    r_u, r_v = ode_residual(state, grid)

    eq1, eq2, origin, tail = _apply_rows(state, grid, -u, -v)
    assert np.max(np.abs(eq1 + hx * r_u)) < 1e-10
    assert np.max(np.abs(eq2 + hx * r_v)) < 1e-10
    c0 = (1.0 + k * k * phi[0]) / 3.0
    assert abs(origin + (v[0] - c0 * x[0] * u[0])) < 1e-12

    pm = 0.5 * (phi[1:] + phi[:-1])
    um = 0.5 * (u[1:] + u[:-1])
    vm = 0.5 * (v[1:] + v[:-1])
    dp = -2.0 * k * pm
    dq = 2.0 * k * pm
    eq1m, eq2m, originm, tailm = _apply_rows(state, grid, psi_mu, psi1_mu)
    scale = max(1.0, np.max(np.abs(psi_mu)), np.max(np.abs(psi1_mu)))
    assert np.max(np.abs(eq1m - hx * dp * vm)) < 1e-10 * scale
    assert np.max(np.abs(eq2m - hx * dq * um)) < 1e-10 * scale
    dc0 = 2.0 * k * phi[0] / 3.0
    assert abs(originm - dc0 * x[0] * u[0]) < 1e-12 * scale
    assert np.isfinite(tail) and np.isfinite(tailm)


# ---------------------------------------------------------------------------
# boundary rows: the asymptotic branches the box scheme is closed with


def _k_difference(row, k, *args, h=1e-6):
    return (row(k + h, *args)[0] - row(k - h, *args)[0]) / (2.0 * h)


def test_origin_row_is_the_regular_branch(state_m33, grid):
    # u = A x, v = c0 A x^2 solves v' = -v/x + Q0 u at leading order iff
    # 3 c0 = Q0 = 1 + k^2 phi(0), so v/u -> (Q0/3) x
    c0, _ = _origin_row(1.0, -2.5)
    x = 1e-3
    assert c0 * x == pytest.approx((1.0 - 2.5) / 3.0 * x, rel=1e-12)
    # worked reference: k = 1, phi(0) = -2.5, x = 0.01 -> v/u = -0.005
    assert c0 * 0.01 == pytest.approx(-0.005, rel=1e-12)
    for k in (1.0, 0.9):
        assert _origin_row(k, -2.5)[1] == pytest.approx(
            _k_difference(_origin_row, k, -2.5), rel=1e-8
        )
    # the converged state follows the branch near the origin: u/x is
    # constant and v/u = c0 x, not only at the node the row is imposed on
    u, v, x = state_m33.pair.u, state_m33.pair.v, grid.x
    c0, _ = _origin_row(state_m33.k, state_m33.field.phi[0])
    near = x < 1e-4
    assert np.max(np.abs((u / x)[near] / (u[0] / x[0]) - 1.0)) < 1e-4
    assert np.max(np.abs((v / (x * u))[near] / c0 - 1.0)) < 5e-5


def test_tail_row_is_the_coulomb_branch(state_m33, grid):
    # no potential: the decaying root r = u/v tends to -1
    r, _ = _tail_row(1.0, 0.0, 30.0)
    assert abs(r + 1.0) < 0.04
    # Coulomb potential phi = a/x: u/v = -1 + (1 + k^2 a)/x + O(1/x^2)
    a = -2.3
    for k in (1.0, 0.9):
        dev = []
        for x in (25.0, 50.0, 100.0, 200.0):
            r, dr = _tail_row(k, a / x, x)
            p, q = 1.0 - k * k * a / x, 1.0 + k * k * a / x
            # the decaying root of the Riccati equation Q r^2 - 2 r/x - P = 0
            assert q * r * r - 2.0 * r / x - p == pytest.approx(0.0, abs=1e-14)
            assert r < 0.0
            fd = _k_difference(_tail_row, k, a / x, x)
            assert dr == pytest.approx(fd, rel=1e-7)
            dev.append(r - (-1.0 + (1.0 + k * k * a) / x))
        assert abs(dev[1]) < 2e-3
        # second order: doubling x cuts the deviation about fourfold
        assert all(3.5 < d0 / d1 < 4.5 for d0, d1 in zip(dev, dev[1:]))
    # the converged state ends on the root its outer row imposes
    u, v, x = state_m33.pair.u, state_m33.pair.v, grid.x
    r, _ = _tail_row(state_m33.k, state_m33.field.phi[-1], x[-1])
    assert u[-1] / v[-1] == pytest.approx(r, rel=1e-6)


# ---------------------------------------------------------------------------
# block cyclic reduction


def _box_system(state, grid):
    """The band and right-hand side that solve_corrections hands to solve_banded."""
    seen = []
    real = solver.solve_banded

    def capture(l_and_u, ab, b):
        seen.append((ab.copy(), b.copy()))
        return real(l_and_u, ab, b)

    solver.solve_banded = capture
    try:
        solve_corrections(state, grid)
    finally:
        solver.solve_banded = real
    return seen[0]


def test_band_boundary_rows_are_the_shared_rows(state_m33, grid):
    # rows 0 and m - 1 of the band and the two end entries of the right-hand
    # side are grid's origin and tail rows, which front's certificate uses
    ab, b = _box_system(state_m33, grid)
    u, v, x = state_m33.pair.u, state_m33.pair.v, grid.x
    phi, k = state_m33.field.phi, state_m33.k
    c0, dc0 = _origin_row(k, phi[0])
    r_end, dr_end = _tail_row(k, phi[-1], x[-1])
    assert (ab[2, 0], ab[1, 1]) == (-c0 * x[0], 1.0)
    assert (ab[3, -2], ab[2, -1]) == (1.0, -r_end)
    assert ab[0, 2] == ab[4, -3] == 0.0   # neither row reaches a second block
    assert b[0] == dc0 * x[0] * u[0]
    assert b[-1] == dr_end * v[-1]


def test_zero_q_at_the_outer_node_is_refused(state_m33, grid, q_zero_coupling):
    # k^2 phi = -1 at the outer node: Q = 0 there and the tail row's root
    # formula is 0/0; the solver refuses the linearization
    phi_end = state_m33.field.phi0[-1]
    a, k = q_zero_coupling(phi_end)
    with pytest.raises(DegenerateLinearizationError, match="Q = 0.0 at the outer"):
        _tail_row(k, a * phi_end, grid.x[-1])
    state = _make_state(state_m33.pair, a, k, grid)
    assert state.field.phi[-1] == a * phi_end
    with pytest.raises(DegenerateLinearizationError, match="Q = 0.0 at the outer"):
        solve_corrections(state, grid)


def _relative_residual(ab, b, x):
    """||A x - b|| / (||A|| ||x|| + ||b||) in the 1-norm, A[i, j] = ab[2 + i - j, j]."""
    r = ab[2] * x - b
    r[:-1] += ab[1, 1:] * x[1:]
    r[:-2] += ab[0, 2:] * x[2:]
    r[1:] += ab[3, :-1] * x[:-1]
    r[2:] += ab[4, :-2] * x[:-2]
    norm_a = np.max(np.sum(np.abs(ab), axis=0))
    return np.sum(np.abs(r)) / (norm_a * np.sum(np.abs(x)) + np.sum(np.abs(b)))


@pytest.mark.parametrize("n_nodes", [2000, 16000])
def test_cyclic_reduction_matches_banded_lu(n_nodes):
    # scipy's banded LU is the test-only oracle, on the solver's own matrices:
    # a cold start at a = -3.3 and the converged state there. At convergence
    # (u, v) is a near-null vector of the matrix, so the solutions may differ
    # along it; both must still solve the system to rounding.
    linalg = pytest.importorskip("scipy.linalg")
    grid = build_grid(np.log(1e-6), np.log(80.0), n_nodes)
    cold = _seed_state(grid, a=-3.3, k=1.0)
    converged = solve_fixed_a(-3.3, grid)
    for state in (cold, converged):
        ab, b = _box_system(state, grid)
        x = solver.solve_banded((2, 2), ab, b)
        oracle = linalg.solve_banded((2, 2), ab, b)
        assert _relative_residual(ab, b, x) < 1e-15
        assert _relative_residual(ab, b, x) < 10.0 * _relative_residual(ab, b, oracle)
    ab, b = _box_system(cold, grid)
    x = solver.solve_banded((2, 2), ab, b)
    oracle = linalg.solve_banded((2, 2), ab, b)
    assert np.max(np.abs(x - oracle)) < 1e-12 * np.max(np.abs(oracle))


@pytest.mark.parametrize("n_blocks", [1, 2, 3, 32, 33, 34, 63, 64, 65, 130, 257])
def test_cyclic_reduction_at_every_level_parity(n_blocks):
    # random well-conditioned staircase systems, odd and even block counts
    # at each reduction level, against a dense solve
    rng = np.random.default_rng(n_blocks)
    m = 2 * n_blocks
    ab = np.zeros((5, m))
    ab[2] = rng.uniform(2.0, 3.0, m) * rng.choice([-1.0, 1.0], m)
    ab[1, 1::2] = rng.uniform(-1.0, 1.0, n_blocks)
    ab[3, 0::2] = rng.uniform(-1.0, 1.0, n_blocks)
    for row, start in ((4, 0), (3, 1), (1, 2), (0, 3)):
        ab[row, start : start + m - 2 : 2] = rng.uniform(-0.5, 0.5, n_blocks - 1)
    dense = np.zeros((m, m))
    for i in range(m):
        for j in range(max(0, i - 2), min(m, i + 3)):
            dense[i, j] = ab[2 + i - j, j]
    b = rng.standard_normal(m)
    x = solver.solve_banded((2, 2), ab, b)
    assert np.max(np.abs(x - np.linalg.solve(dense, b))) < 1e-13 * np.max(np.abs(x))


def test_cyclic_reduction_refuses_singular_pivots(coarse_grid):
    ab, b = _box_system(_seed_state(coarse_grid), coarse_grid)
    # odd block 3 = rows 6, 7 and unknowns 6, 7, as A[i, j] = ab[2 + i - j, j]
    for block in ([[1.0, 2.0], [2.0, 4.0]], [[1.0, 1.0], [1.0, 1.0 + 1e-15]]):
        bad = ab.copy()
        (bad[2, 6], bad[1, 7]), (bad[3, 6], bad[2, 7]) = block
        with pytest.raises(DegenerateLinearizationError, match="near-singular"):
            solver.solve_banded((2, 2), bad, b)
    # a singular system small enough to go straight to the dense solve
    small = np.zeros((5, 8))
    small[2] = 1.0
    small[2, 3] = 0.0
    with pytest.raises(DegenerateLinearizationError, match="singular"):
        solver.solve_banded((2, 2), small, np.ones(8))
    # a band outside the box scheme's staircase pattern is refused
    general = ab.copy()
    general[0, 2] = 1.0
    with pytest.raises(ValueError):
        solver.solve_banded((2, 2), general, b)


@pytest.mark.parametrize(
    "l_and_u, shape, m_rhs",
    [
        ((2, 1), (5, 8), 8),  # not the box scheme's bandwidths
        ((2, 2), (4, 8), 8),  # a band of four rows
        ((2, 2), (5, 7), 7),  # an odd number of unknowns: no 2x2 blocks
        ((2, 2), (5, 8), 6),  # a right-hand side of the wrong length
    ],
)
def test_solve_banded_refuses_what_is_no_box_system(l_and_u, shape, m_rhs):
    ab = np.zeros(shape)
    ab[2] = 1.0
    with pytest.raises(ValueError, match="solve_banded takes"):
        solver.solve_banded(l_and_u, ab, np.ones(m_rhs))


# ---------------------------------------------------------------------------
# frequency update


def test_mu_norm_overlap_is_minus_one(grid):
    # psi = -u makes I_s the negative of the unit norm, so on a normalized
    # state mu is 1 / I_mu
    state = _seed_state(grid)
    psi_mu, psi1_mu = solve_corrections(state, grid)
    i_mu = integrate(state.pair.u * psi_mu + state.pair.v * psi1_mu, grid)
    assert mu_update(state, psi_mu, psi1_mu, grid) * i_mu == pytest.approx(
        1.0, abs=1e-9
    )


def test_mu_matches_independent_quadrature(grid):
    state = _seed_state(grid)
    psi_mu, psi1_mu = solve_corrections(state, grid)
    mu = mu_update(state, psi_mu, psi1_mu, grid)
    # trapezoid in theta with the Jacobian folded into the samples, on the
    # residual-driven correction (-u, -v) written out
    u, v = state.pair.u, state.pair.v
    f_s = (u * -u + v * -v) * grid.x
    f_m = (u * psi_mu + v * psi1_mu) * grid.x
    i_s = np.trapezoid(f_s, dx=grid.h)
    i_mu = np.trapezoid(f_m, dx=grid.h)
    assert mu == pytest.approx(-i_s / i_mu, rel=1e-12)


def test_mu_stalls_on_vanishing_denominator(grid):
    state = _seed_state(grid)
    zero = np.zeros(grid.n_nodes)
    with pytest.raises(StalledUpdateError):
        mu_update(state, zero, zero.copy(), grid)


# ---------------------------------------------------------------------------
# stepping


def _damped(state, grid, tau=0.5):
    """The frequency direction, mu and the damped field increment of state."""
    psi_mu, psi1_mu = solve_corrections(state, grid)
    mu = mu_update(state, psi_mu, psi1_mu, grid)
    return mu, solver._damped_step(state, psi_mu, psi1_mu, mu, tau)


def test_newton_step_renormalizes(grid):
    state = _seed_state(grid)
    mu, (du, dv) = _damped(state, grid)
    new = newton_step(state, du, dv, mu, grid)
    assert abs(density(new.pair, grid).norm - 1) < 1e-12
    # the new fields are the raw update times one positive amplitude
    raw = SpinorPair(state.pair.u + du, state.pair.v + dv)
    a_norm = 1.0 / np.sqrt(density(raw, grid).norm)
    assert a_norm > 0
    np.testing.assert_allclose(new.pair.u, a_norm * raw.u, rtol=1e-14, atol=0)
    np.testing.assert_allclose(new.pair.v, a_norm * raw.v, rtol=1e-14, atol=0)
    assert new.iteration == state.iteration + 1
    assert np.isfinite(new.residual_norm)
    assert new.last_mu == mu
    assert new.k == state.k + mu


def test_newton_step_rejects_nonpositive_frequency(grid):
    state = _seed_state(grid, k=0.5)
    _, (du, dv) = _damped(state, grid)
    # forced downhill past zero, and damped by tau_k onto k = 0 exactly; the
    # safeguard's _try_step takes either as no valid state
    for tau_k, k_new in ((1.0, -0.5), (0.5, 0.0)):
        with pytest.raises(DivergenceError) as info:
            newton_step(state, du, dv, -1.0, grid, tau_k=tau_k)
        assert str(info.value) == f"step rejected: new k = {k_new!r} <= 0"
        assert solver._try_step(state, du, dv, -1.0, grid, tau_k) is None


def test_newton_step_integrates_once(grid, monkeypatch):
    # the raw norm of the moved fields is the step's one integral, taken
    # by the norm helper and not by integrate
    state = _seed_state(grid)
    mu, (du, dv) = _damped(state, grid)
    calls = {"_squares": [], "integrate": []}

    def counted(name, plain):
        def call(*args):
            calls[name].append(1)
            return plain(*args)

        return call

    monkeypatch.setattr(solver, "_squares", counted("_squares", model._squares))
    for module in (model, solver):
        monkeypatch.setattr(module, "integrate", counted("integrate", integrate))
    newton_step(state, du, dv, mu, grid)
    assert len(calls["_squares"]) == 1
    assert len(calls["integrate"]) == 0


@pytest.mark.parametrize("case", ["inf", "nan", "overflow", "column"])
def test_newton_step_flags_nonfinite_fields(grid, case):
    # a non-finite value, or squares that overflow, leave the moved fields
    # no finite positive norm: DivergenceError, with no numpy warning, and
    # no valid state for the safeguard's _try_step. Increments of the
    # wrong shape are a ShapeError, raised before they broadcast against
    # the fields into an n x n array.
    state = _seed_state(grid)
    _, (du, dv) = _damped(state, grid)
    if case in ("inf", "nan"):
        du[10] = float(case)
    elif case == "overflow":
        du = np.full(grid.n_nodes, 1e160)
    else:
        du = du[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if case == "column":
            tracemalloc.start()
            try:
                with pytest.raises(ShapeError, match="increments have shapes") as info:
                    newton_step(state, du, dv, 0.0, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert f"({grid.n_nodes}, 1)" in str(info.value)
            assert peak < 2**20  # one n x n array of doubles is 8 n^2 bytes
            return
        with pytest.raises(DivergenceError) as info:
            newton_step(state, du, dv, 0.0, grid)
        assert solver._try_step(state, du, dv, 0.0, grid) is None
    norm = "nan" if case == "nan" else "inf"
    assert str(info.value) == f"update produced unnormalizable fields (norm {norm})"


def test_newton_step_leaves_its_inputs_unmodified(grid):
    # the step renormalizes its own new arrays in place, with the multiply
    # a copy would take: the state's fields and the increments keep their
    # bits, and the new fields are the scaled copy's, bit for bit
    state = _seed_state(grid)
    mu, (du, dv) = _damped(state, grid)
    inputs = (state.pair.u, state.pair.v, du, dv)
    before = [x.tobytes() for x in inputs]
    new = newton_step(state, du, dv, mu, grid)
    assert [x.tobytes() for x in inputs] == before
    raw = SpinorPair(state.pair.u + du, state.pair.v + dv)
    a_norm = float(1.0 / np.sqrt(density(raw, grid).norm))
    assert new.pair.u.tobytes() == (raw.u * a_norm).tobytes()
    assert new.pair.v.tobytes() == (raw.v * a_norm).tobytes()


def _nan_residuals(monkeypatch, first, last):
    """Make residual_norm calls first to last (1-based, inclusive) give nan."""
    plain = solver.residual_norm
    calls = []

    def patched(state, g):
        calls.append(1)
        return float("nan") if first <= len(calls) <= last else plain(state, g)

    monkeypatch.setattr(solver, "residual_norm", patched)


def test_nan_candidate_residual_is_rejected_and_damped(grid, monkeypatch):
    # call 1 is the starting state's, call 2 the first candidate's. Every
    # comparison with nan is false, so the reject test alone once accepted
    # that candidate with k moved by the full mu; it is now rejected, and
    # the retry damps the fields and the frequency by tau / 2
    _nan_residuals(monkeypatch, 2, 2)
    with pytest.raises(NonConvergenceError) as info:
        solve_fixed_a(-3.3, grid, SolverConfig(max_iterations=1))
    (iteration, k1, residual, mu), = info.value.history
    assert iteration == 1 and np.isfinite(residual)
    assert k1 == 1.0 + 0.25 * mu


def test_cold_solve_never_iterates_from_below_the_frequency_floor(monkeypatch):
    # On 2 nodes the cold solve at -3.3 drives k down to the floor, 0.05
    # times the starting k. A step at or below it is no valid state, for
    # the least-bad candidate at tau's floor too, so the solve ends there
    # instead of iterating from k = 0.0122 and failing one step later.
    two = build_grid(np.log(1e-6), np.log(80.0), 2)
    ks = []
    plain = solver.solve_corrections

    def recorded(state, g):
        ks.append(state.k)
        return plain(state, g)

    monkeypatch.setattr(solver, "solve_corrections", recorded)
    with pytest.raises(DivergenceError) as info:
        solve_fixed_a(-3.3, two)
    assert str(info.value) == (
        "update produced no valid state at a=-3.3 even at tau=0.0078125"
    )
    assert ks[0] == 1.0 and len(ks) > 2
    assert all(k > 0.05 for k in ks)


def test_nan_residuals_down_to_the_floor_end_in_divergence(grid, monkeypatch):
    # a non-finite candidate is no least-bad step: at the floor of tau it
    # ends the solve as a candidate with no valid state does
    _nan_residuals(monkeypatch, 2, math.inf)
    with pytest.raises(DivergenceError, match="no valid state"):
        solve_fixed_a(-3.3, grid)


def test_converged_state_is_fixed_point(tight_solution, grid):
    mu, (du, dv) = _damped(tight_solution, grid, tau=1.0)
    assert abs(mu) < 1e-10
    new = newton_step(tight_solution, du, dv, mu, grid)
    assert abs(new.k - tight_solution.k) < 1e-10
    assert np.max(np.abs(new.pair.u - tight_solution.pair.u)) < 1e-10
    assert np.max(np.abs(new.pair.v - tight_solution.pair.v)) < 1e-10


# ---------------------------------------------------------------------------
# full solves


def test_frequency_regression_at_reference_coupling(state_m33):
    assert state_m33.k == pytest.approx(K_AT_M33, abs=2e-8)
    assert state_m33.residual_norm < 1e-8
    assert abs(state_m33.last_mu) < 1e-8
    assert state_m33.iteration < 100


def test_frequency_coupling_product_is_invariant(coarse_grid):
    # k(a)^2 * a is the same number for every coupling on a fixed grid
    cfg = SolverConfig(tol_residual=1e-10, max_iterations=400)
    s1 = solve_fixed_a(-3.3, coarse_grid, config=cfg)
    s2 = solve_fixed_a(-2.8, coarse_grid, config=cfg)
    prod1 = s1.k**2 * s1.a
    prod2 = s2.k**2 * s2.a
    assert prod1 == pytest.approx(prod2, abs=1e-7)
    assert prod1 == pytest.approx(KSQ_A_PRODUCT, abs=5e-4)  # grid-dependent


def test_solution_profile_properties(state_m33, grid):
    u, v = state_m33.pair.u, state_m33.pair.v
    assert count_nodes(u) == 0
    assert density(state_m33.pair, grid).norm == pytest.approx(1.0, abs=1e-10)
    # both components decay at the outer boundary
    assert abs(u[-1]) < 1e-10 and abs(v[-1]) < 1e-10
    # opposite signs on the converged branch
    assert np.sign(u[np.argmax(np.abs(u))]) != np.sign(v[np.argmax(np.abs(v))])


def test_cold_solve_is_accelerated(state_m33, scan_result):
    # Anderson mixing near convergence; the plain damped loop took 45
    assert state_m33.iteration <= 15
    assert scan_result.k_history[0][2] <= 15


def test_plain_steps_precede_mixing(state_m33):
    # the first steps run above the mixing threshold, so they are the
    # plain damped steps, unchanged
    ks = [row[1] for row in state_m33.trace[:4]]
    assert ks == pytest.approx([0.650582, 0.893278, 0.835117, 0.833273], abs=1e-6)


def _watch_damped_steps(monkeypatch):
    """Record the field increment and tau of the latest _damped_step call."""
    plain = solver._damped_step
    latest = {"du": None, "tau": None}

    def record(state, psi_mu, psi1_mu, mu, tau):
        du, dv = plain(state, psi_mu, psi1_mu, mu, tau)
        latest.update(du=du, tau=tau)
        return du, dv

    monkeypatch.setattr(solver, "_damped_step", record)
    return latest


def test_rejected_mixing_falls_back_to_damped_steps(grid, monkeypatch):
    # A mixed proposal enters newton_step with a field increment that no
    # _damped_step call returned; reject each one. Every iteration then
    # takes the safeguarded damped step, which is the plain loop: 45
    # iterations to the same frequency.
    plain = solver.newton_step
    latest = _watch_damped_steps(monkeypatch)
    rejected = []

    def reject_mixed(state, du, dv, mu, grid, tau_k=1.0):
        if du is not latest["du"]:
            rejected.append(state.iteration)
            raise DivergenceError("forced rejection")
        return plain(state, du, dv, mu, grid, tau_k=tau_k)

    monkeypatch.setattr(solver, "newton_step", reject_mixed)
    state = solve_fixed_a(-3.3, grid)
    assert len(rejected) > 10
    assert state.iteration == 45
    assert state.k == pytest.approx(K_AT_M33, abs=2e-8)


def test_floor_damped_step_damps_the_frequency(grid, monkeypatch):
    # A cold solve at this coupling damps tau to its floor. A candidate at
    # the floor is accepted as the least-bad step, so it must not move k by
    # the full mu: that once sent k from 1.33 to 20.48 and the solve died
    # with no decaying tail root.
    plain = solver.newton_step
    latest = _watch_damped_steps(monkeypatch)
    tau_floor = SolverConfig().tau / 64.0
    at_floor = []

    def record(state, du, dv, mu, grid, tau_k=1.0):
        tau = latest["tau"]
        if du is latest["du"] and tau <= tau_floor:
            at_floor.append((state.iteration, tau, tau_k))
        return plain(state, du, dv, mu, grid, tau_k=tau_k)

    monkeypatch.setattr(solver, "newton_step", record)
    with pytest.raises(WrongBranchError):
        solve_fixed_a(-2.181168, grid)
    assert at_floor
    assert all(tau_k == tau for _, tau, tau_k in at_floor)


def test_trace_records_progress(state_m33):
    assert len(state_m33.trace) == state_m33.iteration
    first = state_m33.trace[0]
    last = state_m33.trace[-1]
    assert last[2] < first[2]
    assert all(row[1] > 0 for row in state_m33.trace)


def test_warm_restart_converges_immediately(state_m33, grid):
    again = solve_fixed_a(
        -3.3, grid, init=state_m33.pair, k0=state_m33.k
    )
    assert again.iteration <= 2
    assert again.k == pytest.approx(state_m33.k, abs=1e-9)


# ---------------------------------------------------------------------------
# warm starts: unit-norm pairs are kept, converged pairs start at their
# fitted frequency


@pytest.fixture(scope="module")
def fine_grid():
    return build_grid(np.log(1e-6), np.log(80.0), 16000)


@pytest.fixture(scope="module")
def state_m33_fine(fine_grid):
    return solve_fixed_a(-3.3, fine_grid)


def _count_banded_solves(monkeypatch):
    plain = solver.solve_banded
    calls = []

    def count(l_and_u, ab, b):
        calls.append(1)
        return plain(l_and_u, ab, b)

    monkeypatch.setattr(solver, "solve_banded", count)
    return calls


@pytest.mark.parametrize("nodes", [2000, 16000])
@pytest.mark.parametrize("a", [-4.4, -1.6])
def test_warm_solve_starts_at_the_fitted_frequency(
    request, monkeypatch, nodes, a
):
    # the caller passes the snapshot's own k, not k_s sqrt(a_s / a); the
    # pair already solves the equations at k^2 a = k_s^2 a_s, so the solve
    # returns it untouched after one check
    name = "state_m33" if nodes == 2000 else "state_m33_fine"
    source = request.getfixturevalue(name)
    grid = request.getfixturevalue("grid" if nodes == 2000 else "fine_grid")
    calls = _count_banded_solves(monkeypatch)
    state = solve_fixed_a(a, grid, init=source.pair, k0=source.k)
    assert state.iteration == 0
    assert state.pair.u.tobytes() == source.pair.u.tobytes()
    assert state.pair.v.tobytes() == source.pair.v.tobytes()
    assert abs(state.k**2 * a - source.k**2 * source.a) <= 1e-8
    assert len(calls) == 1


def _start_keepers(state_m33, grid):
    """Pairs that solve the equations at no frequency, or at none with k^2 a < 0."""
    u, v = state_m33.pair.u, state_m33.pair.v
    return {
        "trial": trial_functions(1.0, grid).normalized(grid),
        "u scaled": SpinorPair(u * (1.0 + 1e-6), v).normalized(grid),
        "v negated": SpinorPair(u, -v),
    }


def test_fitted_lam_of_the_negated_pair_is_positive(state_m33, grid):
    # the "v negated" keeper is refused by the sign rule: its least-squares
    # lam = k^2 a is positive, so lam / a < 0 for every coupling
    state = _make_state(_start_keepers(state_m33, grid)["v negated"], -2.3, 1.0, grid)
    b_u, b_v = ode_residual(_make_state(state.pair, -2.3, 0.0, grid), grid)
    phi0 = state.field.phi0
    phi0_m = 0.5 * (phi0[1:] + phi0[:-1])
    u, v = state.pair.u, state.pair.v
    c_u = phi0_m * 0.5 * (v[1:] + v[:-1])
    c_v = -phi0_m * 0.5 * (u[1:] + u[:-1])
    assert -(b_u @ c_u + b_v @ c_v) > 0.0


@pytest.mark.filterwarnings("error")  # no sqrt of a negative lam / a
@pytest.mark.parametrize("case", ["trial", "u scaled", "v negated"])
def test_unconverged_warm_pairs_keep_k0(state_m33, grid, monkeypatch, case):
    pair = _start_keepers(state_m33, grid)[case]
    k0 = 0.9
    state = _make_state(pair, -2.3, k0, grid)
    assert state.residual_norm > SolverConfig().tol_residual
    assert solver._fitted_start(state, grid, SolverConfig().tol_residual) is state

    plain = solver.solve_corrections
    seen = []

    def record(state, grid):
        seen.append(state.k)
        return plain(state, grid)

    monkeypatch.setattr(solver, "solve_corrections", record)
    with pytest.raises(NonConvergenceError) as info:
        solve_fixed_a(-2.3, grid, SolverConfig(max_iterations=1), init=pair, k0=k0)
    assert seen[0] == k0
    # the first trace row moved k from k0 by mu, damped by some tau_k = 2^-j
    (_, k1, _, mu) = info.value.history[0]
    assert min(abs((k1 - k0) / mu - 0.5**j) for j in range(7)) < 1e-12


def test_converged_pair_at_its_own_frequency_is_not_refitted(state_m33, grid):
    state = _make_state(state_m33.pair, state_m33.a, state_m33.k, grid)
    assert state.residual_norm <= SolverConfig().tol_residual
    assert solver._fitted_start(state, grid, SolverConfig().tol_residual) is state


def test_a_pair_with_zero_midpoint_averages_is_not_refitted():
    # u = v = +-1 alternating: every midpoint average is exactly 0, so the
    # lam direction c vanishes and <c, c> = 0; the guard keeps k0 where
    # the fit would divide 0 by 0 (a RuntimeWarning, an error here)
    grid = build_grid(np.log(1e-6), np.log(80.0), 400)
    signs = np.where(np.arange(grid.n_nodes) % 2 == 0, 1.0, -1.0)
    pair = SpinorPair(signs, signs.copy())
    tol = SolverConfig().tol_residual
    state = solver._initial_state(-3.3, grid, pair, 1.0)
    assert state.residual_norm > tol
    assert solver._fitted_start(state, grid, tol) is state
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError) as info:
            solve_fixed_a(-3.3, grid, init=pair, k0=1.0)
    assert str(info.value) == (
        "update produced no valid state at a=-3.3 even at tau=0.0078125"
    )
    assert caught == []


def test_warm_solve_at_its_first_check_allocates_no_mixing_history(state_m33, grid):
    # A solve that returns at its first check never mixes, so it must not
    # set aside the two (5, 2n) Anderson buffers, 160 B per node. Measured:
    # a peak of 243 B per node on this grid (the band, the right-hand side
    # and the cyclic reduction's levels); the bound leaves 23% above that,
    # and the buffers would take the peak to about 400.
    warm = dict(init=state_m33.pair, k0=state_m33.k)
    solve_fixed_a(-3.3, grid, **warm)  # the grid's arrays and solver caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        state = solve_fixed_a(-3.3, grid, **warm)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert state.iteration == 0
    assert peak / grid.n_nodes < 300


def test_two_warm_solves_from_one_pair_are_identical(state_m33, grid):
    solves = [
        solve_fixed_a(-2.9, grid, init=state_m33.pair, k0=0.9) for _ in range(2)
    ]
    for name in ("u", "v"):
        texts = {getattr(s.pair, name).tobytes() for s in solves}
        assert texts == {getattr(state_m33.pair, name).tobytes()}
    assert solves[0].k == solves[1].k


def test_warm_pair_off_unit_norm_is_rescaled(state_m33, grid):
    s = np.sqrt(1.0 + 1e-10)
    init = SpinorPair(state_m33.pair.u * s, state_m33.pair.v * s)
    assert density(init, grid).norm == pytest.approx(1.0 + 1e-10, abs=1e-13)
    state = solver._initial_state(-3.3, grid, init, state_m33.k)
    assert not np.array_equal(state.pair.u, init.u)
    assert density(state.pair, grid).norm == pytest.approx(1.0, abs=1e-15)


def _counted_densities(monkeypatch):
    """The pairs of each model.density call from here on, in order: the
    calls of model._unit, which brings every start to unit norm."""
    calls = []

    def counted(pair, g):
        calls.append(pair)
        return density(pair, g)

    monkeypatch.setattr(model, "density", counted)
    return calls


def test_rescaled_warm_pair_takes_two_integrals(state_m33, grid, monkeypatch):
    # a warm pair off unit norm is rescaled by the norm its keep check
    # already integrated, so only the rescaled pair's density integrates
    # again; the pair is the one SpinorPair.normalized gives, bit for bit
    s = np.sqrt(1.0 + 1e-10)
    init = SpinorPair(state_m33.pair.u * s, state_m33.pair.v * s)
    calls = _counted_densities(monkeypatch)
    state = solver._initial_state(-3.3, grid, init, state_m33.k)
    assert len(calls) == 1 and calls[0] is state.pair
    monkeypatch.undo()
    expected = init.normalized(grid)
    assert state.pair.u.tobytes() == expected.u.tobytes()
    assert state.pair.v.tobytes() == expected.v.tobytes()


def test_kept_warm_pair_takes_one_density(state_m33, grid, monkeypatch):
    # a warm pair kept at unit norm reuses the density of its norm check
    calls = _counted_densities(monkeypatch)
    state = solver._initial_state(-3.3, grid, state_m33.pair, state_m33.k)
    assert np.array_equal(state.pair.u, state_m33.pair.u)
    assert calls == []
    dens = density(state_m33.pair, grid)
    assert np.array_equal(state.field.phi0, potential(dens.rho, grid))


@pytest.mark.parametrize("scale", [0.0, 1e-250, 1e-170, 1e160, 1e250, 1.0 + 1e-10])
def test_warm_pair_at_any_scale_starts_warningless_at_unit_norm(
    state_m33, grid, scale
):
    # u^2 + v^2 underflows to 0 at 1e-250 and 1e-170 and overflows at 1e160
    # and 1e250: the norm is then taken on the pair over its largest value.
    # The all-zero pair has no scale to find and is refused. The solver's
    # start and SpinorPair.normalized take the one rule.
    init = SpinorPair(state_m33.pair.u * scale, state_m33.pair.v * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if scale == 0.0:
            with pytest.raises(ConfigurationError, match="non-zero value"):
                solver._initial_state(-3.3, grid, init, state_m33.k)
            with pytest.raises(ConfigurationError, match="non-zero value"):
                init.normalized(grid)
            return
        state = solver._initial_state(-3.3, grid, init, state_m33.k)
        normalized = init.normalized(grid)
    assert density(normalized, grid).norm == pytest.approx(1.0, abs=1e-15)
    assert normalized.u.tobytes() == state.pair.u.tobytes()
    assert normalized.v.tobytes() == state.pair.v.tobytes()
    assert density(state.pair, grid).norm == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(state.pair.u, state_m33.pair.u, rtol=1e-14, atol=1e-300)
    assert state.residual_norm < 1e-8


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_warm_pair_with_a_non_finite_value_is_refused(state_m33, grid, bad):
    u = state_m33.pair.u.copy()
    u[7] = bad
    with pytest.raises(ConfigurationError, match="must be finite"):
        solve_fixed_a(-3.3, grid, init=SpinorPair(u, state_m33.pair.v))
    with pytest.raises(ConfigurationError, match="must be finite"):
        SpinorPair(u, state_m33.pair.v).normalized(grid)


@pytest.mark.parametrize("a", [-1e-12, -1e-20, -1e-100, -1e-300])
def test_a0_state_is_converged_at_couplings_near_zero(scan_result, grid, a):
    # only k^2 a enters, so the a0 state at k = k_s sqrt(a_s / a) passes the
    # first check: the stop rule, the stall rule and the floor scale with k
    source = scan_result.solution
    k0 = source.k * np.sqrt(source.a / a)
    state = solve_fixed_a(a, grid, init=source.pair, k0=k0)
    assert state.iteration == 0
    assert state.pair.u.tobytes() == source.pair.u.tobytes()
    assert state.k**2 * a == pytest.approx(-2.31241247338, abs=1e-11)


def test_cold_solves_from_every_seed_reach_one_state(grid):
    # the paper: the solution is unique at fixed coupling. Cold solves from
    # 15 (trial scale b, coupling lam0) cells, each its own trajectory, end
    # on one k^2 lam0 within ten times the tolerance
    config = SolverConfig(tol_residual=1e-12)
    cells = [
        (0.3, -8.0), (0.5, -5.0), (0.6, -4.0), (0.8, -3.3), (1.0, -1.6),
        (1.0, -3.3), (1.2, -2.5), (1.4, -3.0), (1.5, -4.0), (1.8, -12.0),
        (2.0, -3.3), (2.5, -5.0), (3.0, -4.0), (3.5, -6.0), (4.0, -4.0),
    ]
    lams = []
    for b, lam0 in cells:
        init = trial_functions(b, grid).normalized(grid)
        state = solve_fixed_a(lam0, grid, config, init=init, k0=1.0)
        lams.append(state.k**2 * lam0)
    assert max(lams) - min(lams) <= 10.0 * config.tol_residual


@pytest.mark.parametrize("a", [-2.181168, -4.3])
def test_one_node_state_regression(grid, monkeypatch, a):
    # these cold solves end on the state whose u has one interior node,
    # which the node check refuses; with the check off they return it
    monkeypatch.setattr(solver, "count_nodes", lambda values: 0)
    state = solve_fixed_a(a, grid, k0=1.0)
    assert count_nodes(state.pair.u) == 1
    assert state.k**2 * a == pytest.approx(-4.63587504, abs=5e-8)


def test_seed_scale_insensitivity(coarse_grid):
    cfg = SolverConfig(tol_residual=1e-10, max_iterations=400)
    ks = []
    for b in (1.0, 1.4):
        init = trial_functions(b, coarse_grid)
        ks.append(solve_fixed_a(-2.3, coarse_grid, config=cfg, init=init).k)
    assert abs(ks[0] - ks[1]) < 1e-8


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tau": 0.0},
        {"tau": 1.5},
        {"tol_residual": -1e-8},
        {"tol_residual": np.nan},
        {"max_iterations": 0},
        {"max_iterations": np.nan},
        {"max_iterations": 2.5},
        {"max_iterations": True},
        {"tau": "0.5"},
        {"tau": True},
        {"tol_residual": True},
        {"tau": 10**400},  # an int beyond the double range is not finite
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        SolverConfig(**kwargs).validate()


def test_rejects_bad_coupling_and_frequency(coarse_grid):
    with pytest.raises(ConfigurationError):
        solve_fixed_a(np.nan, coarse_grid)
    for a in (0.0, 0.5):  # k^2 a = a0 < 0 rules these out before iterating
        with pytest.raises(ConfigurationError):
            solve_fixed_a(a, coarse_grid)
    with pytest.raises(ConfigurationError):
        solve_fixed_a(-2.3, coarse_grid, k0=-1.0)


def test_nonconvergence_carries_history(coarse_grid):
    cfg = SolverConfig(max_iterations=3)
    with pytest.raises(NonConvergenceError) as info:
        solve_fixed_a(-3.3, coarse_grid, config=cfg)
    assert len(info.value.history) == 3
    assert all(len(row) == 4 for row in info.value.history)


def test_count_nodes():
    x = np.linspace(0.0, 1.0, 201)
    assert count_nodes(np.sin(2.0 * np.pi * x)) == 1
    assert count_nodes(np.sin(3.0 * np.pi * x)) == 2
    assert count_nodes(x * np.exp(-x)) == 0
    assert count_nodes(np.zeros(50)) == 0
    # sub-threshold wiggle near zero does not count
    prof = np.exp(-x)
    prof[-1] = -1e-12
    assert count_nodes(prof) == 0

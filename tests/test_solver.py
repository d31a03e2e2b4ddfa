"""Inner iteration: residuals, linearized corrections, frequency update."""

import numpy as np
import pytest

from solitonscf.errors import (
    ConfigurationError,
    DegenerateLinearizationError,
    DivergenceError,
    NonConvergenceError,
    StalledUpdateError,
    StepRejectedError,
    WrongBranchError,
)
from solitonscf import solver
from solitonscf.grid import Grid, build_grid, integrate
from solitonscf.model import SpinorPair, density, make_field, trial_functions
from solitonscf.solver import (
    CorrectionSet,
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
    fld = make_field(pair, a, grid)
    state = IterationState(
        pair=pair,
        k=float(k),
        field=fld,
        a=float(a),
        residual_norm=float("nan"),
        norm_error=abs(density(pair, grid).norm - 1.0),
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


def test_corrections_negate_state(grid):
    # at frozen potential the operator is linear in the fields, so the
    # residual-driven correction is exactly minus the current state
    state = _seed_state(grid)
    cor = solve_corrections(state, grid)
    assert np.max(np.abs(cor.psi + state.pair.u)) < 1e-9
    assert np.max(np.abs(cor.psi1 + state.pair.v)) < 1e-9


def test_corrections_negate_manufactured_pair(grid):
    # same identity on a hand-built smooth profile far from any solution
    x = grid.x
    u = x * np.exp(-x)
    v = 0.4 * x**2 * np.exp(-x)
    state = _make_state(SpinorPair(u, v), -2.0, 0.9, grid)
    cor = solve_corrections(state, grid)
    assert np.max(np.abs(cor.psi + u)) < 1e-8 * np.max(np.abs(u))
    assert np.max(np.abs(cor.psi1 + v)) < 1e-8 * np.max(np.abs(v))


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


def test_corrections_satisfy_discrete_equations(coarse_grid):
    # plug both solution pairs back into independently coded rows
    state = _seed_state(coarse_grid)
    cor = solve_corrections(state, coarse_grid)
    x, h = coarse_grid.x, coarse_grid.h
    u, v, phi = state.pair.u, state.pair.v, state.field.phi
    k = state.k
    xm = np.sqrt(x[1:] * x[:-1])
    hx = h * xm
    r_u, r_v = ode_residual(state, coarse_grid)

    eq1, eq2, origin, tail = _apply_rows(state, coarse_grid, cor.psi, cor.psi1)
    assert np.max(np.abs(eq1 + hx * r_u)) < 1e-10
    assert np.max(np.abs(eq2 + hx * r_v)) < 1e-10
    c0 = (1.0 + k * k * phi[0]) / 3.0
    assert abs(origin + (v[0] - c0 * x[0] * u[0])) < 1e-12

    pm = 0.5 * (phi[1:] + phi[:-1])
    um = 0.5 * (u[1:] + u[:-1])
    vm = 0.5 * (v[1:] + v[:-1])
    dp = -2.0 * k * pm
    dq = 2.0 * k * pm
    eq1m, eq2m, originm, tailm = _apply_rows(
        state, coarse_grid, cor.psi_mu, cor.psi1_mu
    )
    scale = max(1.0, np.max(np.abs(cor.psi_mu)), np.max(np.abs(cor.psi1_mu)))
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
    c0, _ = solver._origin_row(1.0, -2.5)
    x = 1e-3
    assert c0 * x == pytest.approx((1.0 - 2.5) / 3.0 * x, rel=1e-12)
    # worked reference: k = 1, phi(0) = -2.5, x = 0.01 -> v/u = -0.005
    assert c0 * 0.01 == pytest.approx(-0.005, rel=1e-12)
    for k in (1.0, 0.9):
        assert solver._origin_row(k, -2.5)[1] == pytest.approx(
            _k_difference(solver._origin_row, k, -2.5), rel=1e-8
        )
    # the converged state follows the branch near the origin: u/x is
    # constant and v/u = c0 x, not only at the node the row is imposed on
    u, v, x = state_m33.pair.u, state_m33.pair.v, grid.x
    c0, _ = solver._origin_row(state_m33.k, state_m33.field.phi[0])
    near = x < 1e-4
    assert np.max(np.abs((u / x)[near] / (u[0] / x[0]) - 1.0)) < 1e-4
    assert np.max(np.abs((v / (x * u))[near] / c0 - 1.0)) < 5e-5


def test_tail_row_is_the_coulomb_branch(state_m33, grid):
    # no potential: the decaying root r = u/v tends to -1
    r, _ = solver._tail_row(1.0, 0.0, 30.0)
    assert abs(r + 1.0) < 0.04
    # Coulomb potential phi = a/x: u/v = -1 + (1 + k^2 a)/x + O(1/x^2)
    a = -2.3
    for k in (1.0, 0.9):
        dev = []
        for x in (25.0, 50.0, 100.0, 200.0):
            r, dr = solver._tail_row(k, a / x, x)
            p, q = 1.0 - k * k * a / x, 1.0 + k * k * a / x
            # the decaying root of the Riccati equation Q r^2 - 2 r/x - P = 0
            assert q * r * r - 2.0 * r / x - p == pytest.approx(0.0, abs=1e-14)
            assert r < 0.0
            fd = _k_difference(solver._tail_row, k, a / x, x)
            assert dr == pytest.approx(fd, rel=1e-7)
            dev.append(r - (-1.0 + (1.0 + k * k * a) / x))
        assert abs(dev[1]) < 2e-3
        # second order: doubling x cuts the deviation about fourfold
        assert all(3.5 < d0 / d1 < 4.5 for d0, d1 in zip(dev, dev[1:]))
    # the converged state ends on the root its outer row imposes
    u, v, x = state_m33.pair.u, state_m33.pair.v, grid.x
    r, _ = solver._tail_row(state_m33.k, state_m33.field.phi[-1], x[-1])
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


# ---------------------------------------------------------------------------
# frequency update


def test_mu_norm_overlap_is_minus_one(grid):
    # psi = -u makes I_s the negative of the unit norm
    state = _seed_state(grid)
    cor = solve_corrections(state, grid)
    i_s = integrate(
        state.pair.u * cor.psi + state.pair.v * cor.psi1, grid
    )
    assert i_s == pytest.approx(-1.0, abs=1e-9)


def test_mu_matches_independent_quadrature(grid):
    state = _seed_state(grid)
    cor = solve_corrections(state, grid)
    mu = mu_update(state, cor, grid)
    # trapezoid in theta with the Jacobian folded into the samples
    f_s = (state.pair.u * cor.psi + state.pair.v * cor.psi1) * grid.x
    f_m = (state.pair.u * cor.psi_mu + state.pair.v * cor.psi1_mu) * grid.x
    i_s = np.trapezoid(f_s, dx=grid.h)
    i_mu = np.trapezoid(f_m, dx=grid.h)
    assert mu == pytest.approx(-i_s / i_mu, rel=1e-12)
    assert cor.mu == mu


def test_mu_scales_linearly_with_corrections(grid):
    state = _seed_state(grid)
    cor = solve_corrections(state, grid)
    mu = mu_update(state, cor, grid)
    for c in (0.5, 2.0, -3.0):
        scaled = CorrectionSet(
            psi=c * cor.psi,
            psi1=c * cor.psi1,
            psi_mu=cor.psi_mu.copy(),
            psi1_mu=cor.psi1_mu.copy(),
        )
        assert mu_update(state, scaled, grid) == pytest.approx(c * mu, rel=1e-12)


def test_mu_stalls_on_vanishing_denominator(grid):
    state = _seed_state(grid)
    cor = solve_corrections(state, grid)
    cor.psi_mu = np.zeros_like(cor.psi_mu)
    cor.psi1_mu = np.zeros_like(cor.psi1_mu)
    with pytest.raises(StalledUpdateError):
        mu_update(state, cor, grid)


# ---------------------------------------------------------------------------
# stepping


def test_newton_step_renormalizes(grid):
    state = _seed_state(grid)
    cor = solve_corrections(state, grid)
    new = newton_step(state, cor, SolverConfig(), grid)
    assert new.norm_error < 1e-12
    assert cor.a_norm is not None and cor.a_norm > 0
    assert new.iteration == state.iteration + 1
    assert np.isfinite(new.residual_norm)
    assert new.last_mu == cor.mu


def test_newton_step_rejects_nonpositive_frequency(grid):
    state = _seed_state(grid, k=0.5)
    cor = solve_corrections(state, grid)
    cor.mu = -1.0  # forced downhill past zero
    with pytest.raises(StepRejectedError):
        newton_step(state, cor, SolverConfig(), grid)


def test_newton_step_flags_nonfinite_fields(grid):
    state = _seed_state(grid)
    cor = solve_corrections(state, grid)
    cor.mu = 0.0
    cor.psi = cor.psi.copy()
    cor.psi[10] = np.inf
    with pytest.raises(DivergenceError):
        newton_step(state, cor, SolverConfig(), grid)


def test_converged_state_is_fixed_point(tight_solution, grid):
    cor = solve_corrections(tight_solution, grid)
    mu = mu_update(tight_solution, cor, grid)
    assert abs(mu) < 1e-10
    new = newton_step(tight_solution, cor, SolverConfig(), grid, tau=1.0)
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


def test_rejected_mixing_falls_back_to_damped_steps(grid, monkeypatch):
    # Mixed proposals enter newton_step undamped (tau = 1); reject each one.
    # Every iteration then takes the safeguarded damped step, which is the
    # plain loop: 45 iterations to the same frequency.
    plain = solver.newton_step
    rejected = []

    def reject_mixed(state, corrections, config, grid, tau=None, tau_k=1.0):
        if tau == 1.0:
            rejected.append(state.iteration)
            raise DivergenceError("forced rejection")
        return plain(state, corrections, config, grid, tau=tau, tau_k=tau_k)

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
    tau_floor = SolverConfig().tau / 64.0
    at_floor = []

    def record(state, corrections, config, grid, tau=None, tau_k=1.0):
        if tau is not None and tau <= tau_floor:
            at_floor.append((state.iteration, tau, tau_k))
        return plain(state, corrections, config, grid, tau=tau, tau_k=tau_k)

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

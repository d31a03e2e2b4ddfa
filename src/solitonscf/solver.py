"""Self-consistent bound-state solver with an embedded frequency eigenvalue.

The physical problem is the coupled radial system

    du/dx - u/x - (1 - phi) v = 0,
    dv/dx + v/x - (1 + phi) u = 0,       phi = a * phi0[rho],

with rho = u^2 + v^2 normalized to one and phi0 the self-generated potential
shape (see ``model``). A normalizable solution exists only at discrete
couplings, so the system is embedded in a one-parameter family

    P(k) = 1 - k^2 phi,   Q(k) = 1 + k^2 phi,

where the squared frequency k^2 multiplies the coupling. At k = 1 the family
reduces to the physical system; away from it, k^2 a plays the role of an
effective coupling, so the family is solvable for every a on the attractive
branch and k(a) is a smooth monotone function whose root k = 1 marks the
self-consistent coupling a0. The tail mass sqrt(P Q) -> 1 is independent of
k, which keeps the spatial scale fixed along the embedding.

One iteration freezes phi at the current density. Because the frozen-phi
system is linear and homogeneous in (u, v), the correction at fixed k is
exactly (-u, -v): the discrete rows applied to the state are the residual
rows. So only the frequency direction (psi_mu, psi1_mu) is solved for, from
the linearized boundary value problem; the frequency increment mu restores
the norm constraint to first order, and the step is

    u <- A [u + tau (-u + mu psi_mu)],   v likewise,   k <- k + mu,

with A the renormalization amplitude. The fields are damped by tau; the
frequency moves by the full mu. newton_step takes the field increment
(du, dv) and mu, so the damped step and a mixed one take the same path.

This damped fixed-point step converges only linearly (residual ratio about
0.72 per step at tau = 0.5). Once the residual norm is at or below 0.1 the
fields are Anderson-mixed instead (type II, Walker & Ni 2011): with
x = (u, v) and f = tau (-u + mu psi_mu, -v + mu psi1_mu) the damped step
above, the last five differences dX, dF of iterates and steps give the
proposal x + f - (dX + dF) gamma, gamma = lstsq(dF, f), renormalized as
before; k still moves by the full mu. A cold solve at a = -3.3 then takes
13 iterations instead of 45. One verdict, _try_step, judges every step:
none is valid that newton_step refuses (k <= 0, moved fields with no
finite positive norm, a non-finite residual norm) or that takes k to or
below the floor. A mixed proposal with no valid state is dropped together
with the history, and that iteration takes the safeguarded damped step:
tau halving, then at tau's floor the least-bad valid candidate, whose
frequency step is damped by the same tau; with no valid candidate there
the solve ends in DivergenceError. Above the threshold every step is the
damped step.

A solve stops at the first check where the residual norm is below
tol_residual and |mu| is below tol_residual times k. Only lam = k^2 a
enters the discrete equations, so the relative step mu / k does not depend
on a; the stall rule (|I_mu| k below 1e-14) and the floor that k may not
reach (0.05 times the starting k) are scaled by k in the same way. So a
state converged at one coupling passes the same check at any other, at
the frequency k^2 a fixes, however close to 0 that coupling is.

A warm solve starts at the given k0 unless its pair already solves the
frozen-potential equations at some frequency. The box rows are affine in
lam = k^2 a, so the least-squares lam of the pair is one O(n) projection,
and a pair whose residual at sqrt(lam / a) is within tol_residual starts
there: a state converged at any coupling is then returned at its first
check, fields untouched, whatever frequency its caller passed. A cold
solve starts from the trial seed at the config's trial_b, which is fitted
no frequency. Both starts are brought to unit norm by one rule,
model._unit: a pair already at unit norm (within 4 eps) is not rescaled,
so a warm pair stays bit for bit what the caller gave; one whose
u^2 + v^2 under- or overflows is rescaled from its norm over
max(|u|, |v|), and one that is all zero or not finite is refused.

Discretization: midpoint (box) scheme on the uniform theta = ln x grid,
coupling each interval's endpoints, plus one boundary row per end. At the
origin the regular branch gives v = c0 x u with c0 = (1 + k^2 phi(0))/3; at
the outer end u = r v with r the decaying root of the local Riccati equation
Q r^2 - 2 r/x - P = 0, which absorbs the slow Coulomb tail of phi. P, Q,
the interval residuals (grid._residuals), the interval rows with their
k-derivative drive (grid._rows) and both boundary rows come from grid,
which defines them once for this module and the standard-library
certificate in front; this module calls them on array slices. Unknowns
interleave as (u_0, v_0, u_1, v_1, ...), making the matrix pentadiagonal
and, in blocks of two rows, block tridiagonal with 2x2 blocks. solve_banded
solves it for the one k-derivative right-hand side by block cyclic
reduction in numpy alone.

Every iterate, and the solved state solve_fixed_a returns, is an
IterationState. The class is defined in model, which imports no numpy, so
that front's standard-library certificate returns the same record; this
module re-exports it.
"""

from dataclasses import replace
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import (
    MU_DENOM_TOL,
    NODE_TOL,
    DegenerateLinearizationError,
    DivergenceError,
    NonConvergenceError,
    ShapeError,
    StalledUpdateError,
    WrongBranchError,
    check_value,
)
from .grid import (
    Grid, _coefficients, _origin_row, _residuals, _rows, _tail_row, integrate
)
from .io import SolverConfig
from .model import (
    IterationState, SelfField, SpinorPair, _squares, _unit, potential, trial_functions
)

__all__ = [
    "SolverConfig",
    "IterationState",
    "ode_residual",
    "solve_corrections",
    "mu_update",
    "newton_step",
    "solve_fixed_a",
    "solve_banded",
    "count_nodes",
]

_K_FLOOR = 0.05
_MIX_DEPTH = 5          # Anderson history: differences kept
_MIX_THRESHOLD = 0.1    # mix only at or below this residual norm
_PIVOT_TOL = 1e-12      # |det| of a 2x2 pivot block relative to |p00 p11|
_DENSE_BLOCKS = 32      # cyclic reduction leaves at most this many blocks


def solve_banded(l_and_u, ab, b):
    """Solve the box scheme's banded system A x = b by block cyclic reduction.

    Same calling convention as scipy.linalg.solve_banded with (l, u) =
    (2, 2): A[i, j] = ab[2 + i - j, j], and b is one right-hand side of
    length m = ab.shape[1]. l_and_u must be (2, 2); it stays the first
    argument so that scipy's argument positions hold, which the benchmark's
    tracer reads ab and b by. A must have the box scheme's staircase pattern:
    block row j, the rows (2j, 2j+1), reaches block j - 1 through its row 0
    only and block j + 1 through its row 1 only (ab[0, 2::2] and
    ab[4, 1:-2:2] are zero), so A is block tridiagonal in 2x2 blocks.

    Each level eliminates the odd blocks, vectorized over all of them, and
    leaves the even ones with the same coupling pattern (Buzbee, Golub &
    Nielson 1970); at most _DENSE_BLOCKS blocks are left to one dense solve.
    Nothing pivots across blocks, so each odd pivot block is checked: one
    whose determinant has cancelled to below _PIVOT_TOL times its diagonal
    product raises DegenerateLinearizationError, as does a singular dense
    remainder.
    """
    ab = np.asarray(ab, dtype=float)
    b = np.asarray(b, dtype=float)
    m = ab.shape[1]
    if tuple(l_and_u) != (2, 2) or ab.shape[0] != 5 or m % 2 or b.shape != (m,):
        raise ValueError(
            f"solve_banded takes (2, 2), a (5, 2n) band and one right-hand "
            f"side; got {tuple(l_and_u)}, {ab.shape}, {b.shape}"
        )
    if np.any(ab[0, 2::2]) or np.any(ab[4, 1:-2:2]):
        raise ValueError("solve_banded: the band is not block tridiagonal")
    # One level is (d, lo, up, rhs) per block: the diagonal block d, row 0's
    # coupling lo to the block before and row 1's coupling up to the block
    # after (one entry per interface), and the right-hand side. Level zero
    # reads them from the band through strided views.
    level = (
        (ab[2, 0::2], ab[1, 1::2], ab[3, 0::2], ab[2, 1::2]),
        (ab[4, 0:-2:2], ab[3, 1:-2:2]),
        (ab[1, 2::2], ab[0, 3::2]),
        (b[0::2], b[1::2]),
    )
    eliminated = []
    while len(level[0][0]) > _DENSE_BLOCKS:
        odd, level = _reduce(*level)
        eliminated.append(odd)
    # Block j of level k is block j 2^k of the system, so each level's
    # solution is written straight into place.
    out = np.empty(m)
    x_u, x_v = out[0::2], out[1::2]
    step = 1 << len(eliminated)
    x_u[::step], x_v[::step] = _dense_solve(*level)
    for odd in reversed(eliminated):
        half = step >> 1
        _back_substitute(
            odd, x_u[::step], x_v[::step], x_u[half::step], x_v[half::step]
        )
        step = half
    return out


def _reduce(d, lo, up, rhs):
    """Eliminate the odd blocks of one level.

    Returns the odd blocks' data for back substitution and the reduced
    level on the even blocks, whose interface t joins even blocks t, t + 1.
    """
    d00, d01, d10, d11 = d
    n_odd = len(d00) // 2
    n_inner = len(d00) - n_odd - 1      # odd blocks with a right neighbour
    p00, p01, p10, p11 = d00[1::2], d01[1::2], d10[1::2], d11[1::2]
    diag = p00 * p11
    det = diag - p01 * p10
    # |det| > tol |p00 p11| also bounds |p01 p10| / |det| by 1/tol + 1
    if not np.all(np.abs(diag) * _PIVOT_TOL < np.abs(det)):
        raise DegenerateLinearizationError(
            f"near-singular 2x2 pivot block in the box-scheme solve "
            f"({len(d00)} blocks at this reduction level)"
        )
    # D^-1 = [[g11, -g01], [-g10, g00]]
    g00, g01, g10, g11 = p00 / det, p01 / det, p10 / det, p11 / det
    lo_left, lo_right = (lo[0][0::2], lo[1][0::2]), (lo[0][1::2], lo[1][1::2])
    up_left, up_right = (up[0][0::2], up[1][0::2]), (up[0][1::2], up[1][1::2])
    q0, q1 = rhs[0][1::2], rhs[1][1::2]
    # beta: row 1 of the even block before, times D^-1; alpha: row 0 of the
    # even block after, times D^-1.
    beta0 = up_left[0] * g11 - up_left[1] * g10
    beta1 = up_left[1] * g00 - up_left[0] * g01
    s = slice(0, n_inner)
    alpha0 = lo_right[0] * g11[s] - lo_right[1] * g10[s]
    alpha1 = lo_right[1] * g00[s] - lo_right[0] * g01[s]

    e00, e01, e10, e11 = (c[0::2].copy() for c in d)
    f0, f1 = rhs[0][0::2].copy(), rhs[1][0::2].copy()
    e00[1:] -= alpha1 * up_right[0]
    e01[1:] -= alpha1 * up_right[1]
    f0[1:] -= alpha0 * q0[s] + alpha1 * q1[s]
    e10[:n_odd] -= beta0 * lo_left[0]
    e11[:n_odd] -= beta0 * lo_left[1]
    f1[:n_odd] -= beta0 * q0 + beta1 * q1
    alpha0 = -alpha0
    beta1 = -beta1[s]
    reduced = (
        (e00, e01, e10, e11),
        (alpha0 * lo_left[0][s], alpha0 * lo_left[1][s]),
        (beta1 * up_right[0], beta1 * up_right[1]),
        (f0, f1),
    )
    return (g00, g01, g10, g11, lo_left, up_right, q0, q1), reduced


def _back_substitute(odd, y_u, y_v, x_u, x_v):
    """Fill in the odd blocks x from the solved even blocks y of a level."""
    g00, g01, g10, g11, lo_left, up_right, q0, q1 = odd
    n_odd = len(g00)
    r0 = q0 - lo_left[0] * y_u[:n_odd] - lo_left[1] * y_v[:n_odd]
    r1 = q1.copy()
    r1[: len(y_u) - 1] -= up_right[0] * y_u[1:] + up_right[1] * y_v[1:]
    np.subtract(g11 * r0, g01 * r1, out=x_u)
    np.subtract(g00 * r1, g10 * r0, out=x_v)


@lru_cache(maxsize=_DENSE_BLOCKS)
def _dense_index(n):
    """Flat positions of a level's (d, lo, up) in its (2n, 2n) dense matrix.

    n is at most _DENSE_BLOCKS, so the cache holds every size that occurs.
    """
    j = 2 * np.arange(n)
    t = j[:-1]
    rows = np.concatenate((j, j, j + 1, j + 1, t + 2, t + 2, t + 1, t + 1))
    cols = np.concatenate((j, j + 1, j, j + 1, t, t + 1, t + 2, t + 3))
    index = rows * (2 * n) + cols
    index.flags.writeable = False    # shared by every call through the cache
    return index


def _dense_solve(d, lo, up, rhs):
    """Solve the last few blocks as one dense system."""
    n = len(d[0])
    dense = np.zeros(4 * n * n)
    dense[_dense_index(n)] = np.concatenate(d + lo + up)
    b = np.empty(2 * n)
    b[0::2], b[1::2] = rhs
    try:
        x = np.linalg.solve(dense.reshape(2 * n, 2 * n), b)
    except np.linalg.LinAlgError as exc:
        raise DegenerateLinearizationError(
            f"singular reduced system in the box-scheme solve: {exc}"
        ) from exc
    return x[0::2], x[1::2]


def ode_residual(state: IterationState, grid: Grid):
    """Midpoint residuals of both equations on each interval.

    Returns (r_u, r_v), each of length n_nodes - 1: the first equation's
    residual du/dx - u/x - P v and the second's dv/dx + v/x - Q u, evaluated
    at interval midpoints with the potential frozen at state.field.
    """
    u, v = state.pair.u, state.pair.v
    phi = state.field.phi
    p, q, _, _ = _coefficients(state.k, 0.5 * (phi[1:] + phi[:-1]))
    # Interval midpoints in theta; x there is the geometric mean of the nodes.
    xm = np.sqrt(grid.x[1:] * grid.x[:-1])
    return _residuals(grid.h, xm, p, q, u[:-1], u[1:], v[:-1], v[1:])


def residual_norm(state: IterationState, grid: Grid) -> float:
    """Max-norm over both midpoint residual profiles."""
    r_u, r_v = ode_residual(state, grid)
    return float(max(np.max(np.abs(r_u)), np.max(np.abs(r_v))))


def solve_corrections(
    state: IterationState, grid: Grid
) -> Tuple[np.ndarray, np.ndarray]:
    """Frequency direction (psi_mu, psi1_mu) of the linearized problem.

    The pentadiagonal matrix J (the box-scheme Jacobian at frozen potential
    and current k) is solved against one right-hand side, the k-derivative
    of the operator applied to the state. The residual-driven correction
    needs no solve: J applied to (u, v) is exactly the scaled state residual
    (grid._rows applied to the state is h x_m times grid._residuals, and
    the boundary rows are the same on both sides), so J psi = -residual has
    the solution (psi, psi1) = (-u, -v).
    """
    ab, rhs = _band_system(state, grid)
    try:
        sol = solve_banded((2, 2), ab, rhs)
    except DegenerateLinearizationError as exc:
        raise DegenerateLinearizationError(f"at k={state.k!r}: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise DegenerateLinearizationError(
            f"banded solve produced non-finite corrections at k={state.k!r}"
        )
    return sol[0::2], sol[1::2]


def _band_system(state: IterationState, grid: Grid):
    """The band ab of J and the right-hand side -(dF/dk), in solve_banded's
    layout. Its coefficient arrays are freed on return, before the solve."""
    x = grid.x
    m = 2 * grid.n_nodes
    u, v = state.pair.u, state.pair.v
    phi = state.field.phi
    p, q, dp, dq = _coefficients(state.k, 0.5 * (phi[1:] + phi[:-1]))
    first, f_u, second, f_v = _rows(
        grid.h, np.sqrt(x[1:] * x[:-1]), p, q, dp, dq, u[:-1], u[1:], v[:-1], v[1:]
    )

    # Box rows for interval i couple (u_i, v_i, u_{i+1}, v_{i+1}); unknowns
    # interleave as (u_0, v_0, u_1, v_1, ...), so the matrix is banded with
    # two sub- and two superdiagonals. The first equation is row 2i+1, the
    # second row 2i+2.
    ab = np.zeros((5, m))
    ab[3, 0:m-3:2], ab[2, 1:m-2:2], ab[1, 2:m-1:2], ab[0, 3::2] = first
    ab[4, 0:m-3:2], ab[3, 1:m-2:2], ab[2, 2:m-1:2], ab[1, 3::2] = second

    # Boundary rows: origin slope in row 0, outer Riccati ratio in row m-1.
    c0, dc0 = _origin_row(state.k, phi[0])
    r_end, dr_end = _tail_row(state.k, phi[-1], x[-1])
    ab[2, 0] = -c0 * x[0]
    ab[1, 1] = 1.0
    ab[3, m - 2] = 1.0
    ab[2, m - 1] = -r_end

    # k-derivative drive: the operator's k-derivative applied to the state,
    # with the sign such that psi_mu solves J psi_mu = -(dF/dk).
    rhs = np.empty(m)
    rhs[1:-1:2], rhs[2:-1:2] = f_u, f_v
    rhs[0] = dc0 * x[0] * u[0]
    rhs[-1] = dr_end * v[-1]
    return ab, rhs


def mu_update(state: IterationState, psi_mu, psi1_mu, grid: Grid) -> float:
    """Frequency increment restoring the unit norm to first order.

    The norm of the updated (pre-renormalization) state expands around the
    current iterate as N + 2 I_s + 2 mu I_mu + O(corrections^2) with

        N    = int (u^2 + v^2) dx,
        I_s  = int (u psi + v psi1) dx,
        I_mu = int (u psi_mu + v psi1_mu) dx,

    so the increment that holds the norm is mu = -I_s / I_mu. The
    residual-driven correction is (psi, psi1) = (-u, -v), so I_s = -N and
    mu = N / I_mu, which is 1 / I_mu for a normalized state. N is
    integrated all the same, so a state off the unit norm is not silently
    assumed normalized. I_mu scales as 1 / k, so the update stalls
    (StalledUpdateError) when |I_mu| k, not |I_mu|, is below 1e-14.
    """
    u, v = state.pair.u, state.pair.v
    norm = integrate(u * u + v * v, grid)
    i_mu = integrate(u * psi_mu + v * psi1_mu, grid)
    if abs(i_mu) * state.k < MU_DENOM_TOL:
        raise StalledUpdateError(
            f"frequency update denominator |I_mu| k = {abs(i_mu) * state.k:.3e} "
            f"< {MU_DENOM_TOL:g}; the linearization carries no k-motion"
        )
    return float(norm / i_mu)


def _damped_step(state, psi_mu, psi1_mu, mu, tau):
    """Field increment of the damped step: tau (-u + mu psi_mu), likewise v."""
    u, v = state.pair.u, state.pair.v
    return tau * (mu * psi_mu - u), tau * (mu * psi1_mu - v)


def _state(a, grid, pair, rho, k, **fields) -> IterationState:
    """The state of the unit-norm pair at (a, k): the potential of its
    density rho, then the residual norm. fields sets the rest (iteration,
    last_mu, trace)."""
    state = IterationState(
        pair=pair,
        k=float(k),
        field=SelfField(phi0=potential(rho, grid), a=float(a)),
        a=float(a),
        residual_norm=float("nan"),
        **fields,
    )
    state.residual_norm = residual_norm(state, grid)
    return state


def newton_step(
    state: IterationState, du, dv, mu: float, grid: Grid, tau_k: float = 1.0
) -> IterationState:
    """Apply one update and rebuild the self-consistent potential.

    The fields move by (du, dv) and are renormalized; the frequency moves
    by tau_k times mu (the full step by default; the safeguard loop damps
    it when retrying a rejected step and when tau is already at its floor).
    The potential is recomputed from the new density, so the returned state
    is ready for the next residual evaluation.

    Raises DivergenceError when the frequency would leave the positive
    branch (k <= 0), when the moved fields have no finite positive norm
    (a non-finite value, or squares that overflow, give norm inf or nan)
    and when the new residual norm is not finite; _try_step takes each as
    no valid state. Increments whose shape is not (n_nodes,) raise
    ShapeError before they are added, so none broadcasts. The norm of the
    moved fields is the step's one integral (model._squares); the
    renormalized norm is not integrated again.
    """
    if np.shape(du) != (grid.n_nodes,) or np.shape(dv) != (grid.n_nodes,):
        raise ShapeError(
            f"newton_step: increments have shapes {np.shape(du)} and "
            f"{np.shape(dv)}, not ({grid.n_nodes},)"
        )
    u_new = state.pair.u + du
    v_new = state.pair.v + dv
    k_new = state.k + tau_k * mu
    if k_new <= 0.0:
        raise DivergenceError(f"step rejected: new k = {k_new!r} <= 0")
    rho, raw = _squares(u_new, v_new, grid)
    if not 0.0 < raw < np.inf:  # nan fails every comparison
        raise DivergenceError(f"update produced unnormalizable fields (norm {raw!r})")
    a_norm = float(1.0 / np.sqrt(raw))
    # u_new, v_new and rho are this step's own arrays: scaled in place, by
    # the multiply a copy would take; the renormalized pair's density is
    # the raw one scaled by a_norm^2
    u_new *= a_norm
    v_new *= a_norm
    rho *= a_norm * a_norm
    new = _state(
        state.a, grid, SpinorPair(u_new, v_new), rho, k_new,
        iteration=state.iteration + 1, last_mu=float(mu), trace=state.trace,
    )
    # every comparison with nan is false: no reject test would see it
    if not np.isfinite(new.residual_norm):
        raise DivergenceError(
            f"non-finite residual norm {new.residual_norm!r} after update "
            f"at iteration {state.iteration}"
        )
    return new


def _try_step(state, du, dv, mu, grid, tau_k=1.0, k_floor=0.0):
    """newton_step, or None for no valid state: the step raises
    DivergenceError, or its k is at or below k_floor.

    This is the one verdict on a step for the mixer and the safeguard
    loop alike, and the one place where a step's k meets the floor.
    """
    try:
        new = newton_step(state, du, dv, mu, grid, tau_k=tau_k)
    except DivergenceError:
        return None
    return new if new.k > k_floor else None


class _AndersonMixer:
    """Type-II Anderson mixing of the fields x = (u, v) with the damped step f.

    The last _MIX_DEPTH differences of iterates and steps are kept as the
    rows of two ring buffers, allocated when the first difference is
    recorded, so a solve that never mixes holds none; the proposal is
    x + f - (dX + dF) gamma with gamma the least-squares solution of
    dF gamma = f. The frequency is not mixed: it moves by the full mu.
    """

    def __init__(self):
        self.d_x = self.d_f = None
        self.clear()

    def clear(self) -> None:
        self.x = self.f = None
        self.count = 0
        self.head = 0

    def step(self, state, psi_mu, psi1_mu, mu, tau, grid, k_floor):
        """Record the current (x, f) and return the mixed IterationState.

        Returns None while there is no history yet, and when _try_step
        finds no valid state (k at or below k_floor included); a rejection
        also clears the history.
        """
        x = np.concatenate((state.pair.u, state.pair.v))
        f = np.concatenate(_damped_step(state, psi_mu, psi1_mu, mu, tau))
        if self.x is not None:
            if self.d_x is None:
                self.d_x = np.empty((_MIX_DEPTH, x.size))
                self.d_f = np.empty((_MIX_DEPTH, x.size))
            np.subtract(x, self.x, out=self.d_x[self.head])
            np.subtract(f, self.f, out=self.d_f[self.head])
            self.head = (self.head + 1) % _MIX_DEPTH
            self.count = min(self.count + 1, _MIX_DEPTH)
        self.x, self.f = x, f
        if self.count == 0:
            return None
        d_x = self.d_x[: self.count]
        d_f = self.d_f[: self.count]
        # Least squares through the small normal equations: lstsq on the
        # tall history would copy it and add its LAPACK workspace.
        gamma = np.linalg.lstsq(d_f @ d_f.T, d_f @ f, rcond=None)[0]
        step = f - gamma @ d_x - gamma @ d_f
        # the fields move by exactly the mixed step, k by the full mu
        n = grid.n_nodes
        new = _try_step(state, step[:n], step[n:], mu, grid, k_floor=k_floor)
        if new is None:
            self.clear()
            return None
        return new


def count_nodes(values: np.ndarray) -> int:
    """Interior sign changes of a profile, ignoring the values whose size is
    at most NODE_TOL times its largest."""
    z = np.asarray(values, dtype=float)
    scale = np.max(np.abs(z))
    if scale == 0.0:
        return 0
    core = z[np.abs(z) > NODE_TOL * scale]
    return int(np.sum(np.diff(np.sign(core)) != 0))


def _fitted_start(state: IterationState, grid: Grid, tol: float) -> IterationState:
    """state at the frequency its fields already solve, else state itself.

    The box rows are affine in lam = k^2 a: with b the residual at lam = 0
    and c = (phi0_m vm, -phi0_m um), r = b + lam c. The least-squares
    lam = -<b, c> / <c, c> gives k_fit = sqrt(lam / a). A copy of state at
    k_fit is returned when the residual at state.k is above tol, lam / a is
    finite and positive, and the max-norm residual at k_fit is at or below
    tol; every other state is returned unchanged.
    """
    if not state.residual_norm > tol:
        return state
    b_u, b_v = ode_residual(replace(state, k=0.0), grid)
    phi0 = state.field.phi0
    phi0_m = 0.5 * (phi0[1:] + phi0[:-1])
    u, v = state.pair.u, state.pair.v
    c_u = phi0_m * (0.5 * (v[1:] + v[:-1]))
    c_v = -phi0_m * (0.5 * (u[1:] + u[:-1]))
    cc = c_u @ c_u + c_v @ c_v
    if not cc > 0.0:
        return state
    k2 = -(b_u @ c_u + b_v @ c_v) / cc / state.a
    if not (np.isfinite(k2) and k2 > 0.0):
        return state
    fitted = replace(state, k=float(np.sqrt(k2)))
    fitted.residual_norm = residual_norm(fitted, grid)
    return fitted if fitted.residual_norm <= tol else state


def _initial_state(a, grid, pair, k0) -> IterationState:
    """The state at (a, k0) from pair brought to unit norm (model._unit)."""
    pair, dens = _unit(pair, grid)
    return _state(a, grid, pair, dens.rho, k0)


def solve_fixed_a(
    a: float,
    grid: Grid,
    config: Optional[SolverConfig] = None,
    init: Optional[SpinorPair] = None,
    k0: float = 1.0,
) -> IterationState:
    """Iterate to the bound state at coupling a, returning the converged state.

    Parameters
    ----------
    a : float
        Coupling of the self-generated potential; the bound branch needs
        a < 0.
    grid : Grid
    config : SolverConfig, optional
        The run's config: SolverConfig, ScanConfig and RunConfig are one
        type, and its tau, tol_residual, max_iterations and trial_b are
        read. None takes the defaults.
    init : SpinorPair, optional
        Warm-start fields, renormalized on entry unless their norm is
        already within 4 eps of one (they are then kept bit for bit), also
        where their norm under- or overflows. When absent, the solve starts
        from the variational seed at scale config.trial_b, renormalized.
    k0 : float
        Starting frequency, unless the warm pair already solves the
        equations at its fitted k^2 a. Only k^2 a enters the equations, so
        a state converged at (a_s, k_s) is already converged at a with
        frequency k_s sqrt(a_s / a). When the residual at k0 is above
        tol_residual, the solve fits lam = k^2 a to the warm pair by least
        squares and starts at sqrt(lam / a) if the residual there is at or
        below tol_residual; such a solve, like one given that frequency,
        stops at its first check and returns init's fields unchanged.

    Raises
    ------
    ConfigurationError
        Before iterating, for a coupling that is not finite and negative, a
        starting frequency that is not finite and positive, a warm pair
        with a non-finite value or no non-zero one, or, without one, a
        trial_b whose seed on the grid has no finite positive norm.
    NonConvergenceError
        Iteration cap reached; carries the trace history.
    WrongBranchError
        Converged to a state whose u has interior nodes.
    DivergenceError, DegenerateLinearizationError, StalledUpdateError
        Propagated from the inner steps when damping cannot recover.

    Near convergence the field update is Anderson-mixed; see the module
    docstring.
    """
    config = (config or SolverConfig()).validate()
    # k^2 a = a0 < 0 on the bound branch, so a >= 0 has no solution
    check_value("coupling a", a, high=0.0, open_high=True)
    check_value("starting frequency k0", k0, 0.0, open_low=True)

    tol = config.tol_residual
    if init is None:  # the trial seed solves the equations at no frequency
        state = _initial_state(a, grid, trial_functions(config.trial_b, grid), k0)
    else:
        state = _fitted_start(_initial_state(a, grid, init, k0), grid, tol)
    tau = config.tau
    tau_floor = config.tau / 64.0
    accepted_streak = 0
    # only k^2 a enters, so the frequency's floor and stop rule scale with k
    k_floor = _K_FLOOR * state.k
    mixer = _AndersonMixer()

    for _ in range(config.max_iterations):
        psi_mu, psi1_mu = solve_corrections(state, grid)
        mu = mu_update(state, psi_mu, psi1_mu, grid)

        if abs(mu) < tol * state.k and state.residual_norm < tol:
            if count_nodes(state.pair.u) > 0:
                raise WrongBranchError(
                    f"converged at a={a!r} to a state with "
                    f"{count_nodes(state.pair.u)} interior node(s) in u"
                )
            state.last_mu = mu
            return state

        accepted = None
        if state.residual_norm > _MIX_THRESHOLD:
            mixer.clear()
        else:
            accepted = mixer.step(state, psi_mu, psi1_mu, mu, tau, grid, k_floor)

        # A step already damped to the floor would be accepted as the
        # least-bad candidate at once, so it must not move k by the full mu.
        tau_k = tau if tau <= tau_floor else 1.0
        while accepted is None:
            du, dv = _damped_step(state, psi_mu, psi1_mu, mu, tau)
            candidate = _try_step(state, du, dv, mu, grid, tau_k, k_floor)
            reject = candidate is None or (
                candidate.residual_norm > state.residual_norm + 10.0 * tol
                and state.residual_norm > 10.0 * tol
            )
            if not reject:
                accepted = candidate
            elif tau > tau_floor:
                # Damp everything on a retry, the frequency included.
                accepted_streak = 0
                tau = tau_k = 0.5 * tau
            elif candidate is None:
                raise DivergenceError(
                    f"update produced no valid state at a={a!r} even at tau={tau:g}"
                )
            else:
                # Accept the least-bad damped step rather than stall; the
                # count below then leaves the streak at zero.
                accepted, accepted_streak = candidate, -1

        # two accepted steps in a row restore the configured damping
        accepted_streak += 1
        if accepted_streak >= 2:
            tau = config.tau
        state = accepted
        state.trace.append(
            (state.iteration, state.k, state.residual_norm, state.last_mu)
        )

    raise NonConvergenceError(
        f"no convergence at a={a!r} after {config.max_iterations} iterations "
        f"(residual {state.residual_norm:.3e}, |mu| {abs(state.last_mu):.3e})",
        history=state.trace,
    )

"""A dense eigenvalue oracle for a0 that shares no code with solver.py.

At k = 1 and with phi0 frozen, the discrete equations of the README are
linear in the coupling a: the box rows of

    u' - u/x - (1 - a phi0) v = 0,    v' + v/x - (1 + a phi0) u = 0,

taken at the midpoints of a uniform grid in theta = ln x, and the origin
row v = (1 + a phi0(0)) x u / 3 form a pencil A + a B. The outer row
u = r v takes the decaying root r of the Riccati equation of u/v at the
last node, evaluated at the scan's a0, so it belongs to A. The pencil's
nodeless eigenvalue is then a0 itself, and its eigenvector, at unit norm,
is the scan's state.
"""

import math

import numpy as np
import pytest

from solitonscf.io import RunConfig
from solitonscf.scan import find_a0

scipy_linalg = pytest.importorskip("scipy.linalg")

N_NODES = 200


def _pencil(theta, phi0, a_tail):
    """A and B of the box, origin and tail rows at k = 1; unknowns interleave
    as (u_0, v_0, u_1, v_1, ...)."""
    n = theta.size
    h = theta[1] - theta[0]
    x = np.exp(theta)
    A, B = np.zeros((2 * n, 2 * n)), np.zeros((2 * n, 2 * n))
    # origin row: v_0 - (1 + a phi0_0) x_0 u_0 / 3 = 0
    A[0, 0], A[0, 1], B[0, 0] = -x[0] / 3.0, 1.0, -phi0[0] * x[0] / 3.0
    for i in range(n - 1):
        xm = math.sqrt(x[i] * x[i + 1])
        pm = 0.5 * (phi0[i] + phi0[i + 1])
        c = 0.5 * h * xm
        ui, vi, uj, vj = 2 * i, 2 * i + 1, 2 * i + 2, 2 * i + 3
        # h xm times the first equation at the midpoint
        row = 2 * i + 1
        A[row, ui], A[row, uj] = -1.0 - 0.5 * h, 1.0 - 0.5 * h
        A[row, vi] = A[row, vj] = -c
        B[row, vi] = B[row, vj] = c * pm
        # h xm times the second equation at the midpoint
        row = 2 * i + 2
        A[row, vi], A[row, vj] = -1.0 + 0.5 * h, 1.0 + 0.5 * h
        A[row, ui] = A[row, uj] = -c
        B[row, ui] = B[row, uj] = -c * pm
    # tail row: u = r v, r the decaying root of r' = 2r/x + P - Q r^2
    p, q = 1.0 - a_tail * phi0[-1], 1.0 + a_tail * phi0[-1]
    r = (1.0 / x[-1] - math.sqrt(1.0 / x[-1] ** 2 + p * q)) / q
    A[-1, -2], A[-1, -1] = 1.0, -r
    return A, B


def _trapezoid_weights(theta):
    """Weights of the trapezoid rule in theta for an integral over x."""
    h = theta[1] - theta[0]
    w = h * np.exp(theta)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _shape(rho, theta):
    """phi0 = int_x^inf rho / y dy + (1/x) int_0^x rho dy, by trapezoids."""
    h = theta[1] - theta[0]
    x = np.exp(theta)
    rx = rho * x
    outer = np.zeros_like(rho)
    outer[:-1] = np.cumsum((0.5 * h * (rho[1:] + rho[:-1]))[::-1])[::-1]
    inner = np.zeros_like(rho)
    inner[1:] = np.cumsum(0.5 * h * (rx[1:] + rx[:-1]))
    return outer + inner / x


def test_dense_eigen_solve_reproduces_a0_and_its_state():
    cfg = RunConfig(n_nodes=N_NODES)
    result = find_a0(cfg, cfg.build_grid())
    u_ref, v_ref = result.solution.pair.u, result.solution.pair.v
    phi0 = result.solution.field.phi0
    theta = np.linspace(cfg.theta_min, cfg.theta_max, N_NODES)

    A, B = _pencil(theta, phi0, result.a0)
    values, vectors = scipy_linalg.eig(A, -B)  # (A + a B) w = 0
    # B's tail row is zero, so one eigenvalue is infinite
    negative = np.flatnonzero(
        np.isfinite(values) & (values.imag == 0.0) & (values.real < 0.0)
    )
    index = negative[np.argmin(np.abs(values[negative]))]
    a_eig = values[index].real
    u, v = vectors[0::2, index].real, vectors[1::2, index].real
    core = u[np.abs(u) > 1e-8 * np.max(np.abs(u))]
    assert np.all(np.sign(core) == np.sign(core[0])), "the eigenvector has a node"
    assert abs(a_eig - result.a0) <= 1e-8

    # unit norm, and the sign of the scan's state
    weights = _trapezoid_weights(theta)
    scale = np.sign(weights @ (u * u_ref)) / math.sqrt(weights @ (u * u + v * v))
    u, v = scale * u, scale * v
    assert max(np.max(np.abs(u - u_ref)), np.max(np.abs(v - v_ref))) <= 1e-10
    assert np.max(np.abs(_shape(u * u + v * v, theta) - phi0)) <= 1e-10

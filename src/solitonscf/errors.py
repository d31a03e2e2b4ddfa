"""Exception types for the solver package.

Everything derives from SolitonError so callers can catch the whole family,
but the CLI maps individual classes to distinct exit codes, so the split
below is part of the public contract. check_value, the one check of every
configuration value, check_coupling, the one check of a coupling against
alpha0, and check_grid, the one check of the grid bounds and node count,
live here too: they need only the standard library, so the command line
can run them without importing numpy.
"""

import math
import numbers

# Largest grid node count: over 60 times the 16000 nodes of the finest grid
# any test, demo or benchmark uses. Building the grid and running a cold
# solve raise the peak resident memory by about 0.56 kB per node (ru_maxrss
# over an interpreter that has imported the package and run one small
# solve, at 1e5 nodes; python3 tools/node_memory.py N prints it), so a grid
# at the cap stays under a gigabyte.
MAX_NODES = 10**6


class SolitonError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SolitonError, ValueError):
    """Invalid grid bounds, node counts, config keys or parameter values."""


class ShapeError(SolitonError, ValueError):
    """Array argument does not match the grid it is paired with."""


class NumericError(SolitonError, ArithmeticError):
    """Non-finite values where finite ones are required."""


NORM_TOL = 1e-6  # how far from 1 the norm of a "unit-norm" pair may be

# Two thresholds of solve_fixed_a's convergence check, which front's
# certificate of a warm solve repeats on lists of floats: the frequency
# update stalls where |I_mu| k is below MU_DENOM_TOL, and count_nodes skips
# the values of u whose size is at most NODE_TOL times max |u|.
MU_DENOM_TOL = 1e-14
NODE_TOL = 1e-8


class UnnormalizedStateError(SolitonError, ValueError):
    """A spinor pair violated the unit-norm precondition.

    Carries the offending norm so the caller can see how far off it was.
    """

    def __init__(self, norm: float, tol: float):
        self.norm = float(norm)
        self.tol = float(tol)
        super().__init__(
            f"spinor pair norm is {self.norm!r}, outside 1 +- {self.tol:g}"
        )


class UnphysicalMixingError(SolitonError, ValueError):
    """Mixing parameters requested where they are undefined.

    Raised for |a| >= alpha0 in the charge relations and for the
    degenerate point E0 = P = 0 of the dispersion coefficients.
    """


class DegenerateLinearizationError(SolitonError, RuntimeError):
    """The linearized boundary value problem was numerically singular."""


class StalledUpdateError(SolitonError, RuntimeError):
    """The eigenvalue update denominator I_mu vanished; no step possible."""


class DivergenceError(SolitonError, RuntimeError):
    """Iteration produced non-finite values."""


class NonConvergenceError(SolitonError, RuntimeError):
    """solve_fixed_a hit the iteration cap.

    ``history`` holds (iteration, k, residual_norm, mu) rows for diagnosis.
    """

    def __init__(self, message: str, history=None):
        self.history = list(history or [])
        super().__init__(message)


class WrongBranchError(SolitonError, RuntimeError):
    """Converged to a state with interior zeros of u (not the ground branch)."""


class ScanFailureError(SolitonError, RuntimeError):
    """The coupling scan could not reach k(a) = 1.

    ``k_history`` holds (a, k, iterations, residual) rows for every
    attempted coupling.
    """

    def __init__(self, message: str, k_history=None):
        self.k_history = list(k_history or [])
        super().__init__(message)


class SnapshotError(SolitonError):
    """Base class for snapshot load problems."""


class CorruptSnapshotError(SnapshotError):
    """Snapshot file is truncated, unparseable or fails its checksum."""


class UnsupportedSnapshotError(SnapshotError):
    """Snapshot declares a format_version this build does not know."""


def check_value(
    name, value, low=-math.inf, high=math.inf, *,
    integer=False, open_low=False, open_high=False,
):
    """Return value if it is a number within [low, high], else refuse it.

    A real value must be finite (an int beyond the double range is not); an
    integer one must be integral. A bound is excluded when its open_* flag
    is set. bool, non-numbers, NaN, +-inf and values out of range raise
    ConfigurationError("<name> must be <rule>, got <value!r>"). Numpy
    scalars are accepted, and the value is returned as given, bits intact.
    """
    try:
        ok = (
            isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, bool)
            and (integer or math.isfinite(value))
            and (low < value if open_low else low <= value)
            and (value < high if open_high else value <= high)
        )
    except OverflowError:  # an integer beyond the double range, as a real
        ok = False
    if not ok:
        raise ConfigurationError(
            f"{name} must be {_rule(low, high, open_low, open_high, integer)}, "
            f"got {value!r}"
        )
    return value


def check_coupling(a, alpha0):
    """Refuse the coupling a unless it is finite with |a| < alpha0.

    These are the checks of the charge relations, whose mixing parameters
    delta = a/alpha0 and C = (alpha0 - a)/(alpha0 + a) are undefined at
    |a| >= alpha0: a not finite, then alpha0 not finite and positive, raise
    ConfigurationError (check_value's message); |a| >= alpha0 raises
    UnphysicalMixingError. The command line runs them before it imports
    numpy.
    """
    check_value("coupling a", a)
    check_value("alpha0", alpha0, 0.0, open_low=True)
    if abs(a) >= alpha0:
        raise UnphysicalMixingError(
            f"|a| = {abs(a):g} >= alpha0 = {alpha0:g}: mixing parameters undefined"
        )


def _rule(low, high, open_low, open_high, integer):
    """The words of check_value's message: 'finite and positive' and so on."""
    kind = "an integer" if integer else "finite"
    if -math.inf < low and high < math.inf:
        left, right = "(["[not open_low], ")]"[not open_high]
        return f"{kind} and in {left}{low:g}, {high:g}{right}"
    if low == 0:
        return f"{kind} and {'positive' if open_low else 'non-negative'}"
    if high == 0:
        return f"{kind} and {'negative' if open_high else 'non-positive'}"
    if -math.inf < low:
        return f"{kind} {'>' if open_low else '>='} {low:g}"
    if high < math.inf:
        return f"{kind} {'<' if open_high else '<='} {high:g}"
    return kind


def check_grid(theta_min, theta_max, n_nodes):
    """Return (theta_min, theta_max, n_nodes) as (float, float, int), or
    refuse them with ConfigurationError.

    The bounds must be finite, with theta_min < theta_max and e^theta
    finite and positive at both, the largest trapezoid weight, the theta
    spacing h times e^theta_max, must be finite, and the smallest midpoint
    Jacobian, h sqrt(x_0 x_1), must not underflow to zero (below x of about
    1e-162, x_0 x_1 does); n_nodes must be an integer in [2, MAX_NODES] (a
    float is refused, not truncated). Nothing is built before these checks
    pass.
    """
    theta_min = float(check_value("theta_min", theta_min))
    theta_max = float(check_value("theta_max", theta_max))
    check_value("n_nodes", n_nodes, 2, MAX_NODES, integer=True)
    if not theta_min < theta_max:
        raise ConfigurationError(
            f"grid bounds reversed or equal: theta_min={theta_min!r} "
            f">= theta_max={theta_max!r}"
        )
    x_bounds = []
    for theta in (theta_min, theta_max):
        try:
            x_bounds.append(math.exp(theta))
        except OverflowError:  # where numpy's exp gives inf
            x_bounds.append(math.inf)
    if not (x_bounds[1] < math.inf and x_bounds[0] > 0.0):
        raise ConfigurationError(
            f"grid bounds ({theta_min!r}, {theta_max!r}) give x = e^theta "
            f"outside the positive finite range: {x_bounds!r}"
        )
    h = (theta_max - theta_min) / (n_nodes - 1)
    weight = h * x_bounds[1]
    if not weight < math.inf:
        raise ConfigurationError(
            f"grid ({theta_min!r}, {theta_max!r}, {n_nodes!r} nodes) has a "
            f"trapezoid weight h e^theta_max = {weight!r} beyond the double range"
        )
    # The box rows divide by h sqrt(x_j x_{j+1}), smallest on the first
    # interval; its second node is grid._linspace's 1 * h + theta_min.
    theta_1 = theta_max if n_nodes == 2 else h + theta_min
    x_0_x_1 = x_bounds[0] * math.exp(theta_1)
    if not h * math.sqrt(x_0_x_1) > 0.0:
        raise ConfigurationError(
            f"grid ({theta_min!r}, {theta_max!r}, {n_nodes!r} nodes) has a "
            f"first interval whose x_0 x_1 = {x_0_x_1!r} or theta spacing "
            f"h = {h!r} underflows to zero"
        )
    return theta_min, theta_max, int(n_nodes)

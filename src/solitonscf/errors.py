"""Exception types for the solver package.

Everything derives from SolitonError so callers can catch the whole family,
but the CLI maps individual classes to distinct exit codes, so the split
below is part of the public contract.
"""


class SolitonError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SolitonError, ValueError):
    """Invalid grid bounds, node counts, config keys or parameter values."""


class ShapeError(SolitonError, ValueError):
    """Array argument does not match the grid it is paired with."""


class NumericError(SolitonError, ArithmeticError):
    """Non-finite values where finite ones are required."""


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


class StepRejectedError(SolitonError, RuntimeError):
    """A Newton step produced an invalid state (k <= 0); retried damped."""

    def __init__(self, k_new: float):
        self.k_new = float(k_new)
        super().__init__(f"step rejected: new k = {self.k_new!r} <= 0")


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

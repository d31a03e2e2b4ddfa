"""Self-consistent field solver for a soliton-like charged bound state.

The package computes a localized two-component radial state bound by its
own electrostatic potential. ``solve_fixed_a`` relaxes the state at a given
coupling with the frequency embedded as an eigenvalue, ``find_a0`` finds
the coupling where the frequency returns to the rest value, ``functional``
evaluates the energy split and charge observables of the converged state,
and ``dispersion`` gives the closed-form spectrum of the moving state.
"""

from .dispersion import (
    DispersionPoint,
    dispersion_table,
    group_velocity,
    mixing_coefficients,
    spectrum,
)
from .errors import (
    ConfigurationError,
    CorruptSnapshotError,
    DegenerateLinearizationError,
    DivergenceError,
    NonConvergenceError,
    NumericError,
    ScanFailureError,
    ShapeError,
    SnapshotError,
    SolitonError,
    StalledUpdateError,
    StepRejectedError,
    UnnormalizedStateError,
    UnphysicalMixingError,
    UnsupportedSnapshotError,
    WrongBranchError,
)
from .functional import (
    EnergyReport,
    charge_relation,
    energy_report,
    kinetic_T,
    potential_Pi,
)
from .grid import Grid, build_grid, differentiate, integrate
from .io import (
    RunConfig,
    Snapshot,
    load_config,
    load_snapshot,
    save_snapshot,
)
from .model import (
    Density,
    SelfField,
    SpinorPair,
    density,
    make_field,
    potential,
    trial_functions,
)
from .scan import ScanConfig, ScanResult, find_a0, verify_extremum
from .solver import (
    CorrectionSet,
    IterationState,
    SolverConfig,
    count_nodes,
    mu_update,
    newton_step,
    ode_residual,
    solve_corrections,
    solve_fixed_a,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # grid
    "Grid",
    "build_grid",
    "integrate",
    "differentiate",
    # model
    "SpinorPair",
    "Density",
    "SelfField",
    "density",
    "potential",
    "make_field",
    "trial_functions",
    # functional
    "EnergyReport",
    "kinetic_T",
    "potential_Pi",
    "energy_report",
    "charge_relation",
    # solver
    "SolverConfig",
    "IterationState",
    "CorrectionSet",
    "ode_residual",
    "solve_corrections",
    "mu_update",
    "newton_step",
    "solve_fixed_a",
    "count_nodes",
    # scan
    "ScanConfig",
    "ScanResult",
    "find_a0",
    "verify_extremum",
    # dispersion
    "DispersionPoint",
    "spectrum",
    "mixing_coefficients",
    "group_velocity",
    "dispersion_table",
    # io
    "RunConfig",
    "Snapshot",
    "load_config",
    "save_snapshot",
    "load_snapshot",
    # errors
    "SolitonError",
    "ConfigurationError",
    "ShapeError",
    "NumericError",
    "UnnormalizedStateError",
    "UnphysicalMixingError",
    "DegenerateLinearizationError",
    "StalledUpdateError",
    "StepRejectedError",
    "DivergenceError",
    "NonConvergenceError",
    "WrongBranchError",
    "ScanFailureError",
    "SnapshotError",
    "CorruptSnapshotError",
    "UnsupportedSnapshotError",
]

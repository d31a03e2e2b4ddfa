"""Self-consistent field solver for a soliton-like charged bound state.

The package computes a localized two-component radial state bound by its
own electrostatic potential. ``solve_fixed_a`` relaxes the state at a given
coupling with the frequency embedded as an eigenvalue, ``find_a0`` finds
the coupling where the frequency returns to the rest value, ``functional``
evaluates the energy split and charge observables of the converged state,
and ``dispersion`` gives the closed-form spectrum of the moving state.

The exports below load on first use (PEP 562): ``import solitonscf`` runs
no submodule, so a caller that needs only ``dispersion`` or ``io`` never
imports numpy. Each access resolves the name in its submodule afresh and
nothing is stored in the package namespace, so a rebinding of a submodule
attribute (a test double, a tracing wrapper) is seen here too.
"""

from importlib import import_module as _import_module

__version__ = "1.0.0"

# the public names of each submodule, in the order of __all__
_SUBMODULE_EXPORTS = {
    "grid": ("Grid", "build_grid", "integrate", "differentiate"),
    "model": ("SpinorPair", "IterationState", "density", "potential", "trial_functions"),
    "functional": (
        "EnergyReport",
        "kinetic_T",
        "potential_Pi",
        "energy_report",
        "charge_relation",
    ),
    "solver": (
        "SolverConfig",
        "ode_residual",
        "solve_corrections",
        "mu_update",
        "newton_step",
        "solve_fixed_a",
        "count_nodes",
    ),
    "scan": ("ScanConfig", "ScanResult", "find_a0", "verify_extremum"),
    "dispersion": (
        "DispersionPoint",
        "spectrum",
        "mixing_coefficients",
        "group_velocity",
        "dispersion_table",
    ),
    "io": ("RunConfig", "Snapshot", "load_config", "save_snapshot", "load_snapshot"),
    "errors": (
        "SolitonError",
        "ConfigurationError",
        "ShapeError",
        "NumericError",
        "UnnormalizedStateError",
        "UnphysicalMixingError",
        "DegenerateLinearizationError",
        "StalledUpdateError",
        "DivergenceError",
        "NonConvergenceError",
        "WrongBranchError",
        "ScanFailureError",
        "SnapshotError",
        "CorruptSnapshotError",
        "UnsupportedSnapshotError",
    ),
}

__all__ = ["__version__"] + [
    name for names in _SUBMODULE_EXPORTS.values() for name in names
]

# export name -> the submodule that defines it
_EXPORTS = {
    name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names
}

def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is not None:
        return getattr(_import_module(f"{__name__}.{module}"), name)
    if name in _SUBMODULE_EXPORTS:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULE_EXPORTS))

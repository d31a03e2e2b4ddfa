"""trial-eval on the standard library against the numpy layers.

front._trial_summary repeats the arithmetic of build_grid, trial_functions,
kinetic_T and potential_Pi on lists of floats, with math.fsum for every
integral. It must give the numpy path's numbers to about 1e-14 relative,
the same trial_summary.json bytes and the same refusals.
"""

import pytest
from hypothesis import given, settings, strategies as st

from solitonscf import front
from solitonscf import io as io_mod
from solitonscf.cli import main
from solitonscf.errors import SolitonError
from solitonscf.front import EXIT_USAGE, _trial_summary
from solitonscf.functional import kinetic_T, potential_Pi
from solitonscf.grid import build_grid, integrate
from solitonscf.model import density, trial_functions

DEFAULTS = io_mod.RunConfig()
BOUNDS = (DEFAULTS.theta_min, DEFAULTS.theta_max)
SUMMARY_BS = (0.5, 0.7, 0.8125, 1.0, 1.3, 1.75, 2.0, 0.01, 40.0)


def _numpy_summary(b, theta_min, theta_max, n_nodes):
    grid = build_grid(theta_min, theta_max, n_nodes)
    pair = trial_functions(b, grid)
    raw_norm = density(pair, grid).norm
    pair = pair.normalized(grid)
    T = kinetic_T(pair, grid)
    Pi = potential_Pi(pair, grid)
    return {
        "b": float(b),
        "norm_before_rescale": raw_norm,
        "T": T,
        "Pi": Pi,
        "a_extremum": -T / Pi,
        "mean_radius": integrate(grid.x * density(pair, grid).rho, grid),
    }


@settings(database=None, derandomize=True, deadline=None, max_examples=60)
@given(
    b=st.floats(min_value=1e-3, max_value=1e3),
    n_nodes=st.integers(min_value=2, max_value=2500),
)
def test_stdlib_trial_summary_matches_numpy(b, n_nodes):
    expected = _numpy_summary(b, *BOUNDS, n_nodes)
    got = _trial_summary(b, *BOUNDS, n_nodes)
    assert got.keys() == expected.keys()
    for key, value in expected.items():
        assert got[key] == pytest.approx(value, rel=1e-14, abs=0.0), key


@pytest.mark.parametrize("b", SUMMARY_BS)
def test_trial_eval_summary_bytes_match_numpy(tmp_path, capsys, b):
    out = tmp_path / "run"
    assert main(["trial-eval", "--b", repr(b), "--output-dir", str(out)]) == 0
    capsys.readouterr()
    reference = tmp_path / "numpy_summary.json"
    io_mod.write_summary_json(
        str(reference), _numpy_summary(b, *BOUNDS, DEFAULTS.n_nodes)
    )
    assert (out / "trial_summary.json").read_bytes() == reference.read_bytes()


@pytest.mark.parametrize(
    "b, config",
    [
        (1e300, ""),
        (1e200, ""),
        (1e-300, ""),
        (1.0, "theta_min = 2\ntheta_max = 1\n"),       # reversed
        (1.0, "theta_min = 1\ntheta_max = 1\n"),       # equal
        (1.0, "theta_min = -800\ntheta_max = 1\n"),    # e^theta_min is 0
        (1.0, "theta_min = 1\ntheta_max = 710\n"),     # e^theta_max overflows
        (1.0, "n_nodes = 1\n"),
        # every term of the seed's norm is finite, the largest 4.13e307,
        # but their sum overflows: fsum raises, numpy's dot gives inf
        (4e-155, "theta_min = 340\ntheta_max = 370\nn_nodes = 200\n"),
    ],
)
def test_trial_eval_refuses_as_the_numpy_path_does(tmp_path, capsys, b, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    run = io_mod.load_config(str(cfg))
    bounds = (run.theta_min, run.theta_max, run.n_nodes)
    with pytest.raises(SolitonError) as numpy_refusal:
        _numpy_summary(b, *bounds)
    with pytest.raises(SolitonError) as stdlib_refusal:
        _trial_summary(b, *bounds)
    assert type(stdlib_refusal.value) is type(numpy_refusal.value)
    assert str(stdlib_refusal.value) == str(numpy_refusal.value)
    out = tmp_path / "run"
    argv = ["trial-eval", "--b", repr(b), "--config", str(cfg)]
    assert main(argv + ["--output-dir", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {numpy_refusal.value}\n"
    assert not out.exists()


def test_trial_eval_refuses_a_seed_whose_integrands_overflow(tmp_path, capsys):
    # at x ~ 1e-156 the derivatives d/dx = e^-theta d/dtheta overflow; no
    # solver runs, so this is a refused seed (2), not a non-convergence (3)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta_min = -360\ntheta_max = -350\nn_nodes = 40\n")
    out = tmp_path / "run"
    argv = ["trial-eval", "--b", "1e155", "--config", str(cfg), "--output-dir", str(out)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: trial scale b = 1e+155 gives a seed whose energy integrands are "
        "not finite on this grid (integrate: input contains non-finite values)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "b, theta_min, theta_max, n_nodes",
    [
        (2.1461141453194385e-173, -132.21464494668453, 369.8720354104277, 2),
        (1.1547754679733622e-206, -0.7439409998664601, 407.38317003134534, 3),
    ],
)
def test_trial_eval_refuses_a_seed_whose_pi_underflows(
    tmp_path, capsys, b, theta_min, theta_max, n_nodes
):
    # a finite, unit-norm seed whose self-interaction Pi rounds to 0, so
    # -T / Pi has no value: a refused seed (2), not a traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"theta_min = {theta_min!r}\ntheta_max = {theta_max!r}\nn_nodes = {n_nodes}\n"
    )
    out = tmp_path / "run"
    argv = ["trial-eval", "--b", repr(b), "--config", str(cfg), "--output-dir", str(out)]
    assert front.main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: trial scale b = {b!r} gives a seed whose self-interaction Pi "
        "underflows to 0 on this grid\n"
    )
    assert not out.exists()

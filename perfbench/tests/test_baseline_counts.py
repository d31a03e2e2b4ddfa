"""The traced run reproduces the solver's baseline counts at fixed accuracy."""

import solitonscf
import solitonscf.io

from tracing import Tracer, layer_metrics


def traced(fn):
    tracer = Tracer().install()
    tracer.job = 0
    try:
        fn()
    finally:
        tracer.uninstall()
    return layer_metrics(tracer.spans, jobs=1)


def test_default_scan_takes_eight_solves_and_45_cold_iterations():
    grid = solitonscf.io.RunConfig().build_grid()
    result = {}

    def scan():
        result["scan"] = solitonscf.find_a0(solitonscf.ScanConfig(), grid)

    m = traced(scan)
    assert abs(result["scan"].a0 - (-2.31241249)) <= 5e-7
    assert m["scan.solves_per_scan"][0] == 8
    assert m["solver.iterations_cold"][0] == 45
    assert m["solver.band_bytes_computed"][0] == 16 * 4000 * 8


def test_warm_continuation_steps_take_about_three_iterations():
    grid = solitonscf.io.RunConfig().build_grid()
    start = solitonscf.solve_fixed_a(-3.3, grid)

    def walk():
        state = start
        for a in (-3.1, -2.9, -3.2, -3.5):
            state = solitonscf.solve_fixed_a(a, grid, init=state.pair, k0=state.k)

    m = traced(walk)
    assert 2.0 <= m["solver.iterations_warm"][0] <= 4.0
    assert m["solver.iterations_cold"][0] == 0.0

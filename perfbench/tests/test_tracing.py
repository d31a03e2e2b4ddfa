"""Span accounting: self time, solve classification and per-job metrics."""

import pytest

from tracing import Span, Tracer, layer_metrics, self_times, solves


def tree():
    """job 0 -> find_a0 -> two solves (each with steps) plus one integrate."""
    return [
        Span("job", 0.0, 10.0, None, 0),                                    # 0
        Span("scan.find_a0", 1.0, 9.0, 0, 0),                               # 1
        Span("solver.solve_fixed_a", 1.5, 5.0, 1, 0, {"iterations": 2, "init_none": False}),  # 2
        Span("solver.newton_step", 2.0, 3.0, 2, 0),                         # 3
        Span("grid.integrate", 2.25, 2.5, 3, 0),                            # 4
        Span("solver.newton_step", 3.0, 4.0, 2, 0),                         # 5
        Span("solver.newton_step", 4.0, 4.5, 2, 0),                         # 6
        Span("solver.solve_fixed_a", 5.0, 8.0, 1, 0, {"iterations": 1, "init_none": False}),  # 7
        Span("solver.newton_step", 5.5, 6.5, 7, 0),                         # 8
        Span("solver.solve_fixed_a", 8.0, 8.5, 1, 0, {"error": True}),      # 9
    ]


def test_self_time_subtracts_children():
    own = self_times(tree())
    assert own[0] == pytest.approx(2.0)          # 10 - 8
    assert own[1] == pytest.approx(8.0 - 3.5 - 3.0 - 0.5)
    assert own[2] == pytest.approx(3.5 - 1.0 - 1.0 - 0.5)
    assert own[3] == pytest.approx(0.75)
    assert own[4] == pytest.approx(0.25)
    assert sum(own) == pytest.approx(10.0)       # self times tile the root


def test_first_scan_solve_is_cold_and_failures_are_flagged():
    records = solves(tree())
    assert [r.cold for r in records] == [True, False, False]
    assert [r.steps for r in records] == [3, 1, 0]
    assert [r.failed for r in records] == [False, False, True]
    assert all(r.in_scan for r in records)


def test_layer_metrics_per_job():
    m = layer_metrics(tree(), jobs=1)
    assert m["scan.solves_per_scan"] == (3.0, "solves/scan")
    assert m["scan.failed_solves"][0] == 1.0
    assert m["solver.iterations_cold"][0] == 2.0
    assert m["solver.iterations_warm"][0] == 1.0
    assert m["solver.step_accept_ratio"][0] == pytest.approx(3 / 4)
    assert m["grid.integrate_s"][0] == pytest.approx(0.25)
    assert m["grid.integrate_calls"][0] == 1.0
    assert m["scan.find_a0.self_s"][0] == pytest.approx(1.0)
    assert m["layer.solver.self_s"][0] == pytest.approx(10.0 - 2.0 - 1.0 - 0.25)
    assert m["job.unattributed_s"][0] == pytest.approx(2.0)


def test_setup_spans_count_for_iterations_but_not_per_job_time():
    spans = [
        Span("solver.solve_fixed_a", 0.0, 1.0, None, None, {"iterations": 45, "init_none": True}),
        Span("job", 1.0, 2.0, None, 0),
        Span("solver.solve_fixed_a", 1.0, 1.5, 1, 0, {"iterations": 3, "init_none": False}),
    ]
    m = layer_metrics(spans, jobs=1)
    assert m["solver.iterations_cold"][0] == 45.0
    assert m["solver.iterations_warm"][0] == 3.0
    assert m["solver.solve_fixed_a_calls"][0] == 1.0
    assert m["layer.solver.self_s"][0] == pytest.approx(0.5)


def test_merged_spans_hang_under_the_job():
    tracer = Tracer()
    tracer.job = 7
    job = tracer.open("job")
    child = [Span("cli.import", 1.0, 2.0), Span("cli.main", 2.0, 3.0), Span("io.save_snapshot", 2.5, 2.75, 1)]
    tracer.merge(child, parent=tracer.current())
    tracer.close(job)
    assert [s.parent for s in tracer.spans] == [None, 0, 0, 2]
    assert all(s.job == 7 for s in tracer.spans)


def test_install_wraps_every_binding_and_uninstall_restores():
    import solitonscf
    import solitonscf.grid as grid
    import solitonscf.solver as solver

    original = grid.integrate
    tracer = Tracer().install()
    try:
        assert solver.integrate is grid.integrate is solitonscf.integrate
        assert solver.integrate is not original
        g = grid.build_grid(-1.0, 1.0, 5)
        tracer.job = 0
        solver.integrate([1.0] * 5, g)
    finally:
        tracer.uninstall()
    assert solver.integrate is original and grid.integrate is original
    assert [s.name for s in tracer.spans] == ["grid.build_grid", "grid.integrate"]

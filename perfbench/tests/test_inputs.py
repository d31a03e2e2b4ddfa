"""The seeded generator: same seed, same inputs; ranges as documented."""

import pytest

from workloads import A_RANGE, A_SCAN_STARTS, B_RANGE, COLD_START_PROBES, STEP_RANGE, WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    first = WORKLOADS[name](5, str(tmp_path / "a"), "")
    again = WORKLOADS[name](5, str(tmp_path / "b"), "")
    other = WORKLOADS[name](6, str(tmp_path / "c"), "")
    assert first.inputs == again.inputs
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()


def test_cli_and_scan_draws_stay_in_range(tmp_path):
    sessions = WORKLOADS["cli_session"](3, str(tmp_path / "cli"), "").inputs
    assert all(A_RANGE[0] <= s["a"] <= A_RANGE[1] for s in sessions)
    assert all(B_RANGE[0] <= s["b"] <= B_RANGE[1] for s in sessions)
    starts = WORKLOADS["scan_inproc"](3, str(tmp_path / "scan"), "").inputs
    assert set(starts) <= set(A_SCAN_STARTS)
    assert min(starts) < -3.75 and max(starts) > -2.85     # spread over the grid


def test_cold_start_probes_span_the_coupling_range():
    assert COLD_START_PROBES[0] == A_RANGE[0] and COLD_START_PROBES[-1] == A_RANGE[1]
    assert len(A_SCAN_STARTS) == 501 and A_SCAN_STARTS[-1] == -2.8


def test_continuation_path_reflects_inside_the_range(tmp_path):
    path = WORKLOADS["continuation_fine"](3, str(tmp_path), "").inputs
    assert all(A_RANGE[0] <= a <= A_RANGE[1] for a in path)
    steps = [abs(b - a) for a, b in zip(path, path[1:])]
    # A reflected step is shorter than the drawn one, never longer.
    assert max(steps) <= STEP_RANGE[1] + 1e-6

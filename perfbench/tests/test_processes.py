"""The benchmark's own processes: command RSS, the host-speed helper, and
the clean-up of temporary directories."""

import os
import subprocess
import sys

import run
from hostspeed import REFERENCE_SLOW_S, HostSpeed
from workloads import CliSession


def test_cli_peak_rss_is_that_of_the_largest_command(tmp_path):
    session = CliSession(1, str(tmp_path), "")
    big = [sys.executable, "-c", "b = bytearray(100 * 2**20); b[::4096] = b'x' * len(b[::4096])"]
    small = [sys.executable, "-c", "pass"]
    assert session._call(big) == 0
    assert session._call(small) == 0
    assert session.peak_rss_kib() >= 100 * 1024
    assert session._call([sys.executable, "-c", "raise SystemExit(3)"]) == 3


def test_host_speed_helper_samples_and_stops():
    with HostSpeed() as host:
        host.sample_after(0.25)
        host.sample_after(0.0)
    assert len(host.samples) == 3
    assert all(s > 0 for s in host.samples)
    assert host._proc.returncode == 0


def test_tail_scale_uses_the_kernel_time_at_the_same_rank():
    host = HostSpeed.__new__(HostSpeed)         # no helper process needed
    host.samples = [0.008] * 20 + [0.004] * 80
    assert host.scale_at(0.5) == REFERENCE_SLOW_S / 0.004
    assert host.scale_at(0.97) == REFERENCE_SLOW_S / 0.008
    assert host.scale_at(1.0) == REFERENCE_SLOW_S / 0.008


def test_stale_temporary_directories_are_removed(tmp_path, monkeypatch):
    gone = subprocess.Popen([sys.executable, "-c", "pass"])
    gone.wait()
    stale = tmp_path / f"{run.TMP_PREFIX}{gone.pid}-x"
    live = tmp_path / f"{run.TMP_PREFIX}{os.getpid()}-y"
    other = tmp_path / "kept"
    for d in (stale, live, other):
        (d / "sub").mkdir(parents=True)
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    run.remove_stale_tmp()
    assert not stale.exists()
    assert live.exists() and other.exists()

"""tools/fingerprint.py: one digest over the solver's results, run to run."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "fingerprint.py")
_SPEC = importlib.util.spec_from_file_location("fingerprint", _PATH)
fingerprint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fingerprint)


def test_two_runs_give_one_digest(coarse_grid):
    first = fingerprint.fingerprint(coarse_grid)
    assert len(first) == 64
    assert fingerprint.fingerprint(coarse_grid) == first

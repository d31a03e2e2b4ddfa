"""tools/fingerprint.py: one digest over the solver's results and one over
the warm-start certificate's, run to run."""

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


def test_the_certificate_digest_covers_certified_and_refused_pairs(coarse_grid):
    # the a0 pair is certified at tol 1e-8 and refused at 1e-12, and the
    # two other pairs are refused
    records = [record for _, record in fingerprint.certificates(coarse_grid)]
    assert [r is None for r in records] == [False, True] * 3 + [True, True]
    digest = fingerprint.certificate_digest(coarse_grid)
    assert len(digest) == 64 and fingerprint.certificate_digest(coarse_grid) == digest


def test_the_certificate_digest_sees_a_change_in_i_mu(coarse_grid, monkeypatch):
    # an elimination that moves I_mu by 1e-12 relative certifies and refuses
    # the same pairs; only last_mu = norm / I_mu carries the change
    digest = fingerprint.certificate_digest(coarse_grid)
    sweep = fingerprint.front._sweep

    def nudged(*args):
        swept = sweep(*args)
        return None if swept is None else (swept[0], swept[1] * (1.0 + 1e-12))

    monkeypatch.setattr(fingerprint.front, "_sweep", nudged)
    records = [record for _, record in fingerprint.certificates(coarse_grid)]
    assert [r is None for r in records] == [False, True] * 3 + [True, True]
    assert fingerprint.certificate_digest(coarse_grid) != digest

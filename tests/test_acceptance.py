"""Every built-in check must pass at its stated tolerance.

One test per check, one PASS/FAIL line each (run with -s or read the
captured output).  The master seed is fixed so the whole suite is
reproducible; any seed is admissible per the check contracts, this one
is simply the recorded choice.
"""

import tempfile

import pytest

from kstfree.acceptance import CHECKS, run_checks

SEED = 7000

_IDS = ["%02d-%s" % (num, name) for num, name, _ in CHECKS]


@pytest.mark.parametrize("number,name,fn", CHECKS, ids=_IDS)
def test_check(number, name, fn):
    ok, summary, detail = fn(SEED)
    print("%s  check %2d  %s: %s" % ("PASS" if ok else "FAIL", number, name,
                                     summary))
    assert ok, "check %d (%s) failed: %s\ndetail: %r" % (
        number, name, summary, detail)


def test_reproducibility_check_leaves_no_files(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    run_checks(SEED, [11])
    assert list(tmp_path.iterdir()) == []

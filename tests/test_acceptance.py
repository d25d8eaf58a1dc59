"""Every built-in check must pass at its stated tolerance.

One test per check, one PASS/FAIL line each (run with -s or read the
captured output).  The master seed is fixed so the whole suite is
reproducible; any seed is admissible per the check contracts, this one
is simply the recorded choice.
"""

import tempfile

import pytest

import kstfree.acceptance
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


@pytest.mark.parametrize("number", [3, 4, 5, 9])
def test_theorem_checks_draw_nothing(number, monkeypatch):
    # checks 3-5 are settled by theorems and check 9 runs every case of
    # its sizes: no stream, the same verdict at every seed
    def no_stream(seed):
        raise AssertionError("check %d drew from a stream" % number)
    monkeypatch.setattr(kstfree.acceptance, "SeededRng", no_stream)
    fn = {num: fn for num, _, fn in CHECKS}[number]
    assert fn(1) == fn(SEED)


def test_reproducibility_check_leaves_no_files(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    run_checks(SEED, [11])
    assert list(tmp_path.iterdir()) == []

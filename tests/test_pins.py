"""Artifact bytes: `construct` writes the graphs that bench/pins.json pins.

The pins file is read, never written.  Each case runs the benchmark's s=2
turan command line for one plan label and master seed, and compares the
graph file's sha256 and the report's edge count with the pinned values.
"""
import hashlib
import json
import os

import pytest

from kstfree.cli import main
from kstfree.jsonio import report_path_for

PINS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench", "pins.json")

with open(PINS) as fh:
    TURAN_PINS = {label: plans[label] for plans in json.load(fh).values()
                  for label in plans if label.startswith("turan-q")}


@pytest.mark.parametrize("q", [7, 11, 23])
@pytest.mark.parametrize("seed", [1, 2])
def test_construct_writes_the_pinned_graph(q, seed, tmp_path, capsys):
    pin = TURAN_PINS["turan-q%d" % q][str(seed)]
    out = str(tmp_path / "g.json")
    rc = main(["construct", "turan", "--s", "2", "--m", "3", "--r", "1",
               "--Z", "1", "--c", "1/4", "--q", str(q), "--seed", str(seed),
               "--out", out])
    capsys.readouterr()
    assert rc in (0, 2)
    with open(out, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == pin["sha256"]
    with open(report_path_for(out)) as fh:
        assert json.load(fh)["n_edges"] == pin["n_edges"]

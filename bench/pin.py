"""Regenerate bench/pins.json: the pinned outputs of the default workload seed.

    python3 bench/pin.py --cycles desk-turan=40 wide-turan=24 ...

Runs cycles at master seeds 1, 2, ... untraced and records, per plan label
and master seed, the graph file's sha256 and edge count (the variety digest
and probe counts on builder-ext).  Workloads not named keep their pins.  Run
it only when a change is meant to alter artifact bytes, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cycles", nargs="+", required=True,
                    metavar="WORKLOAD=N")
    args = ap.parse_args(argv)
    run.load_program()
    from workloads import WORKLOADS, run_cycle

    path = os.path.join(run.BENCH, "pins.json")
    with open(path) as fh:
        pins = json.load(fh)
    for item in args.cycles:
        name, n = item.split("=")
        entry = {}
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            for seed in range(1, int(n) + 1):
                for op in run_cycle(WORKLOADS[name], seed, tmp, {}):
                    if op.problems:
                        sys.exit("%s seed %d failed: %s"
                                 % (op.label, seed, op.problems))
                    if op.primary and op.pin is not None:
                        entry.setdefault(op.label, {})[str(seed)] = op.pin
                print(name, seed, flush=True)
        pins[name] = entry
        with open(path, "w") as fh:
            json.dump(pins, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

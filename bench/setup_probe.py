"""Set-up time of one workload in a fresh interpreter.

    python3 bench/setup_probe.py '{"fields": [7, 11], "plans": [...]}'

Prints the seconds from just before `import kstfree` until every field the
workload uses is built (including its scalar tables) and every plan is
resolved.  `run.py` starts several of these and reports their median as
`setup_s`; the spec comes from `workloads.setup_spec`.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def run_setup(spec: dict) -> None:
    from fractions import Fraction

    from kstfree import field_for_order, plan_construction

    for q in spec["fields"]:
        f = field_for_order(q)
        f.mul(f.one, f.one)
    for kind, s, params in spec["plans"]:
        kw = {k: (Fraction(v) if k == "c" else v) for k, v in params.items()}
        plan_construction(kind, s, **kw)


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    run_setup(json.loads(sys.argv[1]))
    print(repr(time.perf_counter() - _START))

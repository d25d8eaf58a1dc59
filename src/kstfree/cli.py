"""Command-line front end.

Subcommands:
    plan        print a construction plan as JSON
    construct   build a graph, retrying master seeds until a trial passes
    verify      rebuild the report of an emitted graph file and compare it
    indep       dependence diagnostics for a point file
    sweep       run many master seeds, one after another, and aggregate
    selftest    run the built-in check suite

Exit codes: 0 = certified pass, 2 = built but uncertified within budget
(or budget exhausted), 1 = usage or validation error.  Every source of
randomness is the --seed flag or a seed recorded in an input file; there
is no wall-clock seeding anywhere.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from .gf import field_for_order
from .graphs import (
    CertificationError,
    ConstructionPlan,
    SidedGraph,
    construct_turan,
    construct_zar,
    plan_construction,
    trial_report,
)
from .independence import dependence_classify, s_wise_independent
from .jsonio import dump_doc, read_doc, read_points_file, report_path_for, write_doc
from .util import (
    DEFAULT_POINT_BUDGET,
    DEFAULT_SUBSET_BUDGET,
    BudgetExceeded,
    parse_frac,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # exit code 1 for usage problems, not argparse's default 2
    def error(self, message):
        raise UsageError(message)


def _at_least(low: int):
    """argparse type: an int no smaller than low, else a usage error."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be >= %d, got %d"
                                             % (low, value))
        return value
    return parse


def _add_plan_flags(sp):
    sp.add_argument("kind", choices=("turan", "zarankiewicz"))
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--m", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--Z", type=int)
    sp.add_argument("--T", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--c", type=parse_frac,
                    help='density constant as a rational, e.g. "1/4"')


def _add_budget_flags(sp, points: bool):
    sp.add_argument("--budget-subsets", type=_at_least(0),
                    default=DEFAULT_SUBSET_BUDGET)
    if points:
        sp.add_argument("--budget-points", type=_at_least(0),
                        default=DEFAULT_POINT_BUDGET)


def _decimal_digits(n: int) -> int:
    """Decimal digits of n >= 1, without converting it to a string."""
    d = int(math.log10(n)) + 1
    if 10 ** (d - 1) > n:     # log10 rounded up across a power of ten
        return d - 1
    return d + (10 ** d <= n)


def _plan_from_args(args) -> ConstructionPlan:
    """The plan the flags name; only `plan` takes --mode, the rest are desk.

    A t_threshold longer than Python's int-to-string limit could not be
    written as JSON, so it is refused here, before any output.
    """
    kw = {}
    for name in ("m", "r", "Z", "T", "q", "c"):
        v = getattr(args, name)
        if v is not None:
            kw[name] = v
    plan = plan_construction(args.kind, args.s,
                             mode=getattr(args, "mode", "desk"), **kw)
    limit = sys.get_int_max_str_digits()
    digits = _decimal_digits(plan.t_threshold)
    if limit and digits > limit:
        raise ValueError("t_threshold has %d decimal digits, more than the "
                         "%d that JSON output can write" % (digits, limit))
    return plan


def _emit(doc, out: str | None) -> None:
    if out:
        write_doc(out, doc)
    else:
        sys.stdout.write(dump_doc(doc))


def cmd_plan(args) -> int:
    _emit(_plan_from_args(args).to_json(), args.out)
    return 0


def _construct_once(plan: ConstructionPlan, seed: int, subset_budget: int,
                    point_cap: int):
    construct = construct_turan if plan.kind == "turan" else construct_zar
    return construct(plan, seed, point_cap=point_cap,
                     subset_budget=subset_budget)


def cmd_construct(args) -> int:
    plan = _plan_from_args(args)
    best = None
    errors = []
    used = None
    for i in range(args.trials):
        seed = args.seed + i
        try:
            graph, report = _construct_once(plan, seed, args.budget_subsets,
                                            args.budget_points)
        except CertificationError as e:
            errors.append({"seed": seed, "error": str(e)})
            if not e.seeded:  # every later seed would fail alike
                break
            continue
        best = (graph, report)
        used = seed
        if report.passed:
            break
    if best is None:
        if len(errors) < args.trials:
            sys.stderr.write("no graph built: the plan alone decides seed "
                             "%d's rejection, so no later seed was tried\n"
                             % errors[-1]["seed"])
        else:
            sys.stderr.write("no graph built in %d trials\n" % args.trials)
        for row in errors:
            sys.stderr.write("  seed %d: %s\n" % (row["seed"], row["error"]))
        return 2
    graph, report = best
    write_doc(args.out, graph.to_json())
    write_doc(report_path_for(args.out), report.to_json())
    summary = {
        "passed": report.passed,
        "master_seed": used,
        "seeds_tried": used - args.seed + 1,
        "rejected_seeds": errors,
        "graph": args.out,
        "report": report_path_for(args.out),
    }
    sys.stdout.write(dump_doc(summary))
    return 0 if report.passed else 2


def cmd_verify(args) -> int:
    graph = SidedGraph.from_json(read_doc(args.graph))
    if graph.plan is None:
        raise ValueError("graph document carries no plan")
    stored_path = report_path_for(args.graph)
    stored = read_doc(stored_path) if os.path.exists(stored_path) else None
    if stored is not None and not isinstance(stored, dict):
        raise ValueError("%s is not a JSON object" % stored_path)
    # the report's own budget, else (no report, or an older one) the default
    budget = (stored or {}).get("subset_budget", DEFAULT_SUBSET_BUDGET)
    if type(budget) is not int or budget < 0:
        raise ValueError("%s: subset_budget = %r is not an integer >= 0"
                         % (stored_path, budget))
    fresh = trial_report(graph, budget)
    report = fresh.to_json()
    # only construct knows the builder's summary and which seed it tried
    del report["builder"], report["seed"]
    result = dict(report, graph=os.path.basename(args.graph))
    if stored is not None:
        # kst is compared even where the stored report lacks it, and last;
        # values compare as JSON, where 1, 1.0 and true differ
        keys = [key for key in report if key in stored and key != "kst"]
        mismatches = [key for key in keys + ["kst"]
                      if json.dumps(stored.get(key), sort_keys=True)
                      != json.dumps(report[key], sort_keys=True)]
        result["matches_report"] = not mismatches
        result["mismatched_fields"] = mismatches
    _emit(result, args.out)
    return 0 if fresh.passed and result.get("matches_report", True) else 2


def cmd_indep(args) -> int:
    spec = field_for_order(args.q)
    rows = read_points_file(spec, args.points)
    rep = dependence_classify(spec, rows, args.m)
    doc = {
        "n_points": rep.t,
        "m": rep.m,
        "hilbert_rank": rep.hilbert_rank,
        "dependent": rep.dependent,
        "minimal": rep.minimal,
        "kernel_dim": len(rep.kernel_basis),
    }
    sw = None
    if args.s is not None:
        sw = s_wise_independent(spec, rows, args.s, args.m,
                                budget=args.budget_subsets)
        doc["s_wise"] = {
            "s": args.s,
            "verdict": sw.verdict,
            "certified": sw.certified,
            "checked": sw.checked,
            "total": sw.total,
            "mode": sw.mode,
            "witness": None if sw.witness is None else list(sw.witness),
        }
    _emit(doc, args.out)
    return 0 if sw is None or sw.certified else 2


def _sweep_row(plan, seed: int, subset_budget: int, point_cap: int) -> dict:
    try:
        graph, report = _construct_once(plan, seed, subset_budget, point_cap)
    except CertificationError as e:
        return {"seed": seed, "built": False, "error": str(e)}
    return {
        "seed": seed,
        "built": True,
        "error": None,
        "passed": report.passed,
        "sides_full": report.sides_full,
        "kst_free": report.kst.free,
        "kst_certified": report.kst.certified,
        "n_edges": report.n_edges,
    }


def cmd_sweep(args) -> int:
    plan = _plan_from_args(args)
    rows = [_sweep_row(plan, args.seed + i, args.budget_subsets,
                       args.budget_points) for i in range(args.trials)]
    built = [r for r in rows if r["built"]]
    passed = [r for r in built if r["passed"]]
    agg = {
        "trials": len(rows),
        "built": len(built),
        "passed": len(passed),
        "kst_free": sum(1 for r in built if r["kst_free"] is True),
        "edges_min": min((r["n_edges"] for r in built), default=None),
        "edges_max": max((r["n_edges"] for r in built), default=None),
        "edges_mean": None if not built else str(
            Fraction(sum(r["n_edges"] for r in built), len(built))),
    }
    doc = {"plan": plan.to_json(), "rows": rows, "aggregate": agg}
    _emit(doc, args.out)
    return 0 if passed else 2


def cmd_selftest(args) -> int:
    from .acceptance import run_checks

    results = run_checks(seed=args.seed, which=args.checks or None)
    all_ok = True
    for res in results:
        line = "%s  check %2d  %s: %s" % (
            "PASS" if res["ok"] else "FAIL", res["number"], res["name"],
            res["summary"])
        sys.stdout.write(line + "\n")
        all_ok = all_ok and res["ok"]
    if args.out:
        write_doc(args.out, {"results": results, "ok": all_ok})
    return 0 if all_ok else 2


@functools.cache
def build_parser() -> _Parser:
    """The argument tree, built once per process; `main` only parses."""
    parser = _Parser(prog="kstfree", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="subcommand", required=True,
                                 parser_class=_Parser)

    sp = subs.add_parser("plan", help="print a construction plan")
    _add_plan_flags(sp)
    sp.add_argument("--mode", choices=("desk", "theorem"), default="desk")
    sp.add_argument("--out")

    sp = subs.add_parser("construct", help="build and certify a graph")
    _add_plan_flags(sp)
    _add_budget_flags(sp, points=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--trials", type=_at_least(1), default=10,
                    help="master seeds to try before giving up")
    sp.add_argument("--out", required=True)

    sp = subs.add_parser("verify", help="rebuild and compare a graph's report")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--out")

    sp = subs.add_parser("indep", help="dependence diagnostics for points")
    sp.add_argument("--points", required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--m", type=_at_least(0), required=True)
    sp.add_argument("--s", type=int)
    _add_budget_flags(sp, points=False)
    sp.add_argument("--out")

    sp = subs.add_parser("sweep", help="statistics over many master seeds")
    _add_plan_flags(sp)
    _add_budget_flags(sp, points=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--trials", type=_at_least(1), default=20)
    sp.add_argument("--out")

    sp = subs.add_parser("selftest", help="run the built-in check suite")
    sp.add_argument("checks", nargs="*", type=int,
                    help="check numbers to run (default: all)")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # read at each call, so a wrapper set on a module attribute runs
        command = {"plan": cmd_plan, "construct": cmd_construct,
                   "verify": cmd_verify, "indep": cmd_indep,
                   "sweep": cmd_sweep, "selftest": cmd_selftest}
        return command[args.subcommand](args)
    except UsageError as e:
        sys.stderr.write("usage error: %s\n" % e)
        return 1
    except BudgetExceeded as e:
        sys.stderr.write("budget exceeded: %s\n" % e)
        return 2
    except MemoryError as e:
        # an allocation within every budget that the machine cannot hold
        sys.stderr.write("budget exceeded: out of memory: %s\n" % e)
        return 2
    except CertificationError as e:
        sys.stderr.write("certification failed: %s\n" % e)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())

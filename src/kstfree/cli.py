"""Command-line front end.

Subcommands:
    plan        print a construction plan as JSON
    construct   build a graph, retrying master seeds until a trial passes
    verify      re-run the verdicts on an emitted graph file
    indep       dependence diagnostics for a point file
    sweep       run many master seeds and aggregate the outcomes
    selftest    run the built-in check suite

Exit codes: 0 = certified pass, 2 = built but uncertified within budget
(or budget exhausted), 1 = usage or validation error.  Every source of
randomness is the --seed flag or a seed recorded in an input file; there
is no wall-clock seeding anywhere.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
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
    judge_graph,
    plan_construction,
)
from .independence import dependence_classify, s_wise_independent
from .jsonio import dump_doc, read_doc, read_points_file, report_path_for, write_doc
from .polyrand import SeededRng
from .util import (
    DEFAULT_POINT_BUDGET,
    DEFAULT_SAMPLE_SUBSETS,
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


def _add_plan_flags(sp):
    sp.add_argument("kind", choices=("turan", "zarankiewicz"))
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--mode", choices=("desk", "theorem"), default="desk")
    sp.add_argument("--m", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--Z", type=int)
    sp.add_argument("--T", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--a", type=int,
                    help="override the left ambient dimension (zarankiewicz)")
    sp.add_argument("--c", type=parse_frac,
                    help='density constant as a rational, e.g. "1/4"')


def _add_budget_flags(sp):
    sp.add_argument("--budget-subsets", type=int, default=DEFAULT_SUBSET_BUDGET)
    sp.add_argument("--budget-points", type=int, default=DEFAULT_POINT_BUDGET)


def _plan_from_args(args) -> ConstructionPlan:
    kw = {}
    for name in ("m", "r", "Z", "T", "q", "c"):
        v = getattr(args, name)
        if v is not None:
            kw[name] = v
    plan = plan_construction(args.kind, args.s, mode=args.mode, **kw)
    if getattr(args, "a", None) is not None:
        if plan.kind != "zarankiewicz":
            raise UsageError("--a only applies to zarankiewicz plans")
        plan = dataclasses.replace(plan, a=args.a)
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
            continue
        best = (graph, report)
        used = seed
        if report.passed:
            break
    if best is None:
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
    if graph.seed is None:
        raise ValueError("graph document carries no seed")
    plan = graph.plan
    s = args.s if args.s is not None else plan.s
    t = args.t if args.t is not None else plan.t_threshold
    orientation = args.orientation or plan.orientation
    overridden = (s, t, orientation) != (plan.s, plan.t_threshold,
                                         plan.orientation)
    verdicts = judge_graph(graph, s, t, orientation,
                           budget=args.budget_subsets)
    fresh = verdicts.to_json()
    result = dict(fresh, graph=os.path.basename(args.graph), s=s, t=t,
                  orientation=orientation)
    stored_path = report_path_for(args.graph)
    if os.path.exists(stored_path):
        stored = read_doc(stored_path)
        fresh.update(n_edges=graph.num_edges, n_left=len(graph.left),
                     n_right=len(graph.right))
        kst = fresh.pop("kst")
        mismatches = [key for key, value in fresh.items()
                      if key in stored and stored[key] != value]
        if not overridden and stored.get("kst") != kst:
            mismatches.append("kst")
        result["matches_report"] = not mismatches
        result["mismatched_fields"] = mismatches
    _emit(result, args.out)
    if verdicts.free_and_dense(plan.kind) and result.get("matches_report", True):
        return 0
    return 2


def cmd_indep(args) -> int:
    spec = field_for_order(args.q)
    points = read_points_file(spec, args.points)
    rep = dependence_classify(points, args.m)
    doc = {
        "n_points": rep.t,
        "m": rep.m,
        "hilbert_rank": rep.hilbert_rank,
        "dependent": rep.dependent,
        "minimal": rep.minimal,
        "kernel_dim": len(rep.kernel_basis),
    }
    certified = True
    if args.s is not None:
        rng = SeededRng(args.seed) if args.seed is not None else None
        try:
            sw = s_wise_independent(points, args.s, args.m,
                                    budget=args.budget_subsets, rng=rng,
                                    samples=args.trials)
        except BudgetExceeded:
            raise BudgetExceeded(
                "subset budget exceeded; pass --seed to enable sampling")
        doc["s_wise"] = {
            "s": args.s,
            "verdict": sw.verdict,
            "certified": sw.certified,
            "checked": sw.checked,
            "total": sw.total,
            "mode": sw.mode,
            "witness": None if sw.witness is None else list(sw.witness),
        }
        certified = sw.certified
    _emit(doc, args.out)
    return 0 if certified else 2


def _sweep_worker(payload):
    plan_doc, seed, subset_budget, point_cap = payload
    plan = ConstructionPlan.from_json(plan_doc)
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
    payloads = [(plan.to_json(), args.seed + i, args.budget_subsets,
                 args.budget_points) for i in range(args.trials)]
    if args.workers > 1:
        with multiprocessing.Pool(args.workers) as pool:
            rows = pool.map(_sweep_worker, payloads)
    else:
        rows = [_sweep_worker(p) for p in payloads]
    rows.sort(key=lambda r: r["seed"])
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


def build_parser() -> _Parser:
    parser = _Parser(prog="kstfree", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="subcommand", required=True,
                                 parser_class=_Parser)

    sp = subs.add_parser("plan", help="print a construction plan")
    _add_plan_flags(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_plan)

    sp = subs.add_parser("construct", help="build and certify a graph")
    _add_plan_flags(sp)
    _add_budget_flags(sp)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--trials", type=int, default=10,
                    help="master seeds to try before giving up")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_construct)

    sp = subs.add_parser("verify", help="re-run verdicts on a graph file")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--s", type=int)
    sp.add_argument("--t", type=int)
    sp.add_argument("--orientation", choices=("both", "left_only"))
    _add_budget_flags(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_verify)

    sp = subs.add_parser("indep", help="dependence diagnostics for points")
    sp.add_argument("--points", required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--s", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--trials", type=int, default=DEFAULT_SAMPLE_SUBSETS,
                    help="sampled subsets when the budget forces sampling")
    _add_budget_flags(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_indep)

    sp = subs.add_parser("sweep", help="statistics over many master seeds")
    _add_plan_flags(sp)
    _add_budget_flags(sp)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_sweep)

    sp = subs.add_parser("selftest", help="run the built-in check suite")
    sp.add_argument("checks", nargs="*", type=int,
                    help="check numbers to run (default: all)")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        sys.stderr.write("usage error: %s\n" % e)
        return 1
    except BudgetExceeded as e:
        sys.stderr.write("budget exceeded: %s\n" % e)
        return 2
    except CertificationError as e:
        sys.stderr.write("certification failed: %s\n" % e)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())

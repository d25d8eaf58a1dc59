"""kstfree benchmark: fixed-seed workloads through the public API and the CLI.

    python3 bench/run.py --workload desk-turan --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports `kstfree` from its
`src/`; without one it exits 2 and prints no result.  Load is a closed loop:
one client in this process, cycles run back to back, and a new cycle starts
only while at least half of it is expected to fit within --seconds (at least
one cycle runs).
Cycle i uses master seed `seed + i`.  See NOTES.md for the workloads, the
metrics and what each should move.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every cycle twice,
untraced and then traced, requires equal graph digests, checks the span trees,
and prints the per-layer metrics (per primary op) and the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 1 when any
output check failed.  Artifacts, the trace (JSON lines) and a full result
file with the machine description go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# (name, unit) of every end-to-end metric; op_s.tail, verify_s.p50 and
# failed_share are printed too but are not defined (or not nonzero) on every
# workload, so the JSON result leaves them out.
END_TO_END = (("setup_s", "s"), ("op_s.p50", "s"), ("ops_per_s", "1/s"),
              ("certified_share", "share"), ("peak_rss_mb", "MB"))

_T, _N, _CB = "s/op", "count/op", "computed_B/op"
PER_LAYER = (
    ("gf.arr_mul.self_s", _T), ("gf.arr_mul.calls", _N),
    ("gf.arr_mul.cells", _N), ("gf.arr_mul.bytes", _CB),
    ("gf.arr_dot.self_s", _T), ("gf.field_for_order.s", _T),
    ("projgeom.projective_chunks.self_s", _T),
    ("projgeom.projective_chunks.points", _N),
    ("projgeom.monomial_matrix.self_s", _T),
    ("projgeom.monomial_matrix.cells", _N),
    ("projgeom.monomial_matrix.bytes_out", _CB),
    ("polyrand.eval_hom_many.self_s", _T),
    ("polyrand.eval_hom_many.points", _N),
    ("polyrand.eval_hom_many.forms", _N),
    ("polyrand.eval_bihom_grid.self_s", _T),
    ("polyrand.eval_bihom_grid.pairs", _N),
    ("variety.fq_point_array.s", _T), ("variety.fq_point_array.points_kept", _N),
    ("variety.count_points.s", _T), ("variety.count_points.calls", _N),
    ("variety.count_points.points", _N),
    ("variety.count_points_ext.s", _T), ("variety.count_points_ext.points", _N),
    ("variety.dimension_probe.s", _T),
    ("variety.build_independent_variety.s", _T),
    ("variety.build_independent_variety.attempts", _N),
    ("variety.build_independent_variety.rejections.count", _N),
    ("variety.build_independent_variety.rejections.swise", _N),
    ("variety.build_independent_variety.rejections.probe", _N),
    ("variety.build_independent_variety.certified_per_attempt", "ratio"),
    ("independence.s_wise_independent.s", _T),
    ("independence.s_wise_independent.checked", _N),
    ("independence.s_wise_independent.total", _N),
    ("independence.s_wise_independent.mode.exhaustive", _N),
    ("independence.s_wise_independent.mode.sampled", _N),
    ("linalg.rank.calls", _N), ("linalg.rank.self_s", _T),
    ("graphs.max_common_neighborhood.s", _T),
    ("graphs.max_common_neighborhood.checked", _N),
    ("graphs.max_common_neighborhood.total", _N),
    ("graphs.max_common_neighborhood.mode.exhaustive", _N),
    ("graphs.max_common_neighborhood.mode.sampled", _N),
    ("graphs.max_common_neighborhood.mode.empty", _N),
    ("graphs.kst_verdict.s", _T),
    ("graphs.kst_verdict.mode.exhaustive", _N),
    ("graphs.kst_verdict.mode.sampled", _N),
    ("graphs.kst_verdict.mode.pigeonhole", _N),
    ("graphs.construct_turan.self_s", _T), ("graphs.construct_zar.self_s", _T),
    ("graphs.density_report.s", _T), ("graphs.SidedGraph.to_json.s", _T),
    ("graphs.SidedGraph.from_json.s", _T),
    ("jsonio.write_doc.s", _T), ("jsonio.write_doc.bytes", "B/op"),
    ("jsonio.read_doc.s", _T), ("jsonio.read_doc.bytes", "B/op"),
    ("cli.cmd_construct.s", _T), ("cli.cmd_construct.seeds_tried", _N),
    ("cli.cmd_verify.s", _T),
    ("trace.overhead_s", _T), ("trace.overhead_share", "ratio"),
    ("trace.root_share", "ratio"),
)


def load_program():
    """Put this checkout's src/ first on sys.path; exit 2 if it has none."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "kstfree", "__init__.py")):
        sys.stderr.write("no kstfree sources under %s\n" % src)
        sys.exit(2)
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH)
    import kstfree

    if not os.path.abspath(kstfree.__file__).startswith(src + os.sep):
        sys.stderr.write("kstfree imported from %s, not %s\n"
                         % (kstfree.__file__, src))
        sys.exit(2)


def machine_info() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": commit or "unknown (not a git checkout)",
    }


def measure_setup(spec: dict, repeats: int) -> float:
    """Median set-up seconds over `repeats` fresh interpreters."""
    probe = os.path.join(BENCH, "setup_probe.py")
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, probe, json.dumps(spec)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % done.stderr)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def tail(times):
    """(value, percentile) of the highest percentile with ten ops beyond it.

    Defined only from twenty ops up, so that it sits at or above the median.
    """
    n = len(times)
    if n < 20:
        return None
    rank = n - 10
    return sorted(times)[rank - 1], 100.0 * rank / n


def _cycle_mean(cycle, pick):
    xs = [op.seconds for op in cycle if pick(op)]
    return sum(xs) / len(xs) if xs else None


def run_loop(w, seed, seconds, outdir, pins, tracer):
    """Closed loop of cycles; returns (plain cycles, traced cycles, wall s)."""
    from workloads import run_cycle

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        ms = seed + len(plain)
        plain.append(run_cycle(w, ms, outdir, pins))
        if tracer is not None:
            twin = run_cycle(w, ms, outdir, pins, tracer)
            for a, b in zip(plain[-1], twin):
                if a.digest != b.digest:
                    b.problems.append("traced digest differs from untraced")
            if len(twin) != len(plain[-1]):
                twin[-1].problems.append("traced cycle ran different ops")
            traced.append(twin)
        elapsed = time.perf_counter() - start
        # start another cycle only if at least half of it should fit, so
        # that runs last `seconds` give or take half a cycle
        if elapsed + elapsed / len(plain) / 2 >= seconds:
            return plain, traced, elapsed


def end_to_end(plain, wall, setup_s):
    primary = [op for c in plain for op in c if op.primary]
    verify = [m for m in (_cycle_mean(c, lambda o: o.kind == "verify")
                          for c in plain) if m is not None]
    return {
        "setup_s": setup_s,
        "op_s.p50": statistics.median(
            _cycle_mean(c, lambda o: o.primary) for c in plain),
        "ops_per_s": len(primary) / wall,
        "certified_share": sum(op.certified for op in primary) / len(primary),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {
        "op_s.tail": tail([op.seconds for op in primary]),
        "verify_s.p50": statistics.median(verify) if verify else None,
        "primary_ops": len(primary),
    }


def per_layer(plain, traced, tracer):
    from tracing import root_seconds

    st = tracer.stats
    for c in traced:
        for op in c:
            if op.seeds_tried is not None:
                st["cli.cmd_construct.seeds_tried"] += op.seeds_tried
    n = sum(op.primary for c in traced for op in c)
    out = {name: st.get(name, 0.0) / n for name, _ in PER_LAYER}
    key = "variety.build_independent_variety."
    attempts = st.get(key + "attempts", 0.0)
    out[key + "certified_per_attempt"] = (
        st.get(key + "certified", 0.0) / attempts if attempts else 0.0)
    over, share = [], []
    for p, t in zip(plain, traced):
        dp = sum(op.seconds for op in p)
        dt = sum(op.seconds for op in t)
        over.append((dt - dp) / sum(op.primary for op in p))
        share.append((dt - dp) / dp)
    out["trace.overhead_s"] = statistics.median(over)
    out["trace.overhead_share"] = statistics.median(share)
    roots = root_seconds(tracer.spans)
    timed = sum(op.seconds for c in traced for op in c)
    out["trace.root_share"] = sum(roots.values()) / timed
    return out


def _fmt(value):
    return "%.6g" % value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_program()
    from tracing import Tracer, self_time_violations
    from workloads import WORKLOADS, setup_spec

    from setup_probe import run_setup

    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(WORKLOADS)))
    w = WORKLOADS[args.workload]
    tag = "%s-seed%d-trace%d" % (w.name, args.seed, args.trace)
    outdir = os.path.join(OUT, tag)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    with open(os.path.join(BENCH, "pins.json")) as fh:
        pins = json.load(fh).get(w.name, {})

    machine = machine_info()
    spec = setup_spec(w)
    setup_s = measure_setup(spec, SETUP_REPEATS) if not args.trace else None
    run_setup(spec)
    tracer = Tracer() if args.trace else None
    plain, traced, wall = run_loop(w, args.seed, args.seconds, outdir, pins,
                                   tracer)

    ops = [op for c in plain + traced for op in c]
    failed = [op for op in ops if op.failed]
    print("machine: %s" % json.dumps(machine, sort_keys=True))
    print("workload %s, seed %d: %d cycles (master seeds %d..%d) in %.1f s, "
          "%d ops, %d failed" % (w.name, args.seed, len(plain), args.seed,
                                 args.seed + len(plain) - 1, wall, len(ops),
                                 len(failed)))
    for op in failed:
        print("  FAILED %s %s seed %d: %s" % (op.kind, op.label,
                                             op.master_seed,
                                             "; ".join(op.problems)))
    if tracer is None:
        metrics, extra = end_to_end(plain, wall, setup_s)
        units = dict(END_TO_END)
        lines = [(k, _fmt(v), units[k]) for k, v in metrics.items()]
        t = extra["op_s.tail"]
        lines.insert(2, ("op_s.tail", "n/a", "(needs 20 primary ops, have %d)"
                         % extra["primary_ops"]) if t is None else
                     ("op_s.tail", _fmt(t[0]), "s (p%.0f of %d primary ops)"
                      % (t[1], extra["primary_ops"])))
        v = extra["verify_s.p50"]
        lines.insert(3, ("verify_s.p50", "n/a", "(no verify on this workload)")
                     if v is None else ("verify_s.p50", _fmt(v), "s"))
        lines.insert(6, ("failed_share", _fmt(len(failed) / len(ops)),
                         "share"))
        result_units = units
    else:
        for op_id in self_time_violations(tracer.spans):
            bad = next(op for op in ops if op.trace_op == op_id)
            bad.problems.append("child self times exceed the root span")
        failed = [op for op in ops if op.failed]
        metrics = per_layer(plain, traced, tracer)
        result_units = dict(PER_LAYER)
        lines = [(k, _fmt(v), result_units[k]) for k, v in metrics.items()]
        tracer.write_jsonl(os.path.join(OUT, tag + ".trace.jsonl"))
    for name, value, unit in lines:
        print("  %-58s %12s %s" % (name, value, unit))

    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": result_units[k]}
                    for k, v in metrics.items()},
    }
    with open(os.path.join(OUT, tag + ".result.json"), "w") as fh:
        json.dump({"machine": machine, "workload": w.name, "seed": args.seed,
                   "seconds": args.seconds, "wall_s": wall, "result": result,
                   "ops": [dict(vars(op)) for op in ops]}, fh, indent=1)
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())

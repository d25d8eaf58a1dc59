"""The benchmark's workloads: what one cycle runs and how its outputs are checked.

A cycle is a workload's fixed mix of primary ops for one master seed.  On the
CLI workloads each plan in the mix is one `construct` followed by one `verify`
of the file just written, both through the in-process `kstfree.cli.main`.  On
builder-ext a cycle is one `build_independent_variety` call.

Every op is checked.  For every seed: the CLI exit codes are in the contract
(0 or 2), `verify` exits with the code `construct` did and reports
`matches_report: true`, and a built variety's points are zeros of its forms
under the scalar evaluator.  For master seeds listed in `pins.json` the graph
file's sha256 and edge count (or the variety digest and probe counts) must
equal the pinned values.  Any violation marks the op failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import kstfree.cli
import kstfree.variety
from kstfree.gf import field_for_order
from kstfree.jsonio import dump_doc
from kstfree.polyrand import SeededRng, evaluate
from kstfree.projgeom import ProjPoint


@dataclass(frozen=True)
class CliPlan:
    """One `construct` command line, minus its --seed and --out."""

    label: str
    kind: str
    s: int
    params: tuple             # ((flag, value), ...) plan parameters
    extra: tuple = ()         # flags that are not plan parameters

    def construct_argv(self, seed: int, out: str) -> list:
        argv = ["construct", self.kind, "--s", str(self.s)]
        for flag, value in self.params:
            argv += ["--" + flag, str(value)]
        return argv + list(self.extra) + ["--seed", str(seed), "--out", out]


def _turan_s2(q: int) -> CliPlan:
    return CliPlan("turan-q%d" % q, "turan", 2,
                   (("m", 3), ("r", 1), ("Z", 1), ("c", "1/4"), ("q", q)))


# The builder-ext op: acceptance check 6's configuration at q = 11.
BUILDER_ORDER = 11
BUILDER_CONFIG = dict(b=3, num_forms=1, degree=3, s=3)
BUILDER_LABEL = "build-q%d" % BUILDER_ORDER


@dataclass(frozen=True)
class Workload:
    name: str
    field_orders: tuple       # every field the workload touches
    plans: tuple = ()         # CliPlans; empty on the builder workload


# Why each workload exists is in NOTES.md.  The s=3 turan op needs --trials 1:
# it never certifies, and the default of 10 retries makes it ~190 s.
WORKLOADS = {w.name: w for w in (
    Workload("desk-turan", (7, 11), (_turan_s2(7), _turan_s2(11))),
    Workload("wide-turan", (23, 29, 31),
             (_turan_s2(23), _turan_s2(29), _turan_s2(31))),
    Workload("builder-ext", (BUILDER_ORDER, BUILDER_ORDER ** 2)),
    Workload("s3-frontier", (13, 17), (
        CliPlan("turan-s3-q17", "turan", 3,
                (("m", 3), ("r", 1), ("Z", 1), ("q", 17)), ("--trials", "1")),
        CliPlan("zar-s3-q13", "zarankiewicz", 3,
                (("T", 6), ("r", 2), ("m", 2), ("q", 13))))),
)}


def setup_spec(w: Workload) -> dict:
    """What set-up builds (see setup_probe.py): fields and plans to resolve."""
    return {"fields": list(w.field_orders),
            "plans": [[p.kind, p.s, dict(p.params)] for p in w.plans]}


@dataclass
class OpRecord:
    kind: str                 # construct | verify | build
    label: str
    master_seed: int
    seconds: float
    primary: bool
    certified: bool = False
    seeds_tried: int | None = None
    digest: str | None = None
    pin: dict | None = None   # the values pins.json would hold for this op
    problems: list = field(default_factory=list)
    trace_op: int | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _call_cli(argv, tracer, label):
    """Run one CLI command in process; returns (rc, seconds, stdout, op id)."""
    out, err = io.StringIO(), io.StringIO()
    scope = tracer.op(label) if tracer is not None else contextlib.nullcontext()
    with scope as op_id, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = kstfree.cli.main(argv)
        except Exception as e:  # a traceback breaks the exit-code contract
            rc = "raised %s: %s" % (type(e).__name__, e)
        seconds = time.perf_counter() - start
    return rc, seconds, out.getvalue(), op_id


def _cli_plan_ops(plan: CliPlan, seed: int, outdir: str, pins: dict,
                  tracer) -> list:
    path = os.path.join(outdir, plan.label + ".json")
    rc, secs, stdout, op_id = _call_cli(plan.construct_argv(seed, path),
                                        tracer, "construct " + plan.label)
    con = OpRecord("construct", plan.label, seed, secs, True,
                   certified=rc == 0, trace_op=op_id)
    if rc not in (0, 2):
        con.problems.append("construct exited %r" % (rc,))
        return [con]
    try:
        summary = json.loads(stdout)
    except json.JSONDecodeError:
        # exit 2 with no summary: no trial built a graph, nothing to verify
        if rc != 2:
            con.problems.append("construct printed no summary")
        return [con]
    if summary.get("passed") is not (rc == 0):
        con.problems.append("summary passed=%r but exit %d"
                            % (summary.get("passed"), rc))
    con.seeds_tried = summary.get("seeds_tried")
    con.digest = _sha256_file(path)
    with open(path[:-len(".json")] + ".report.json") as fh:
        n_edges = json.load(fh)["n_edges"]
    pin = pins.get(plan.label, {}).get(str(seed))
    if pin is not None:
        if pin["sha256"] != con.digest:
            con.problems.append("graph sha256 differs from pin")
        if pin["n_edges"] != n_edges:
            con.problems.append("n_edges %d, pinned %d"
                                % (n_edges, pin["n_edges"]))
    con.pin = {"sha256": con.digest, "n_edges": n_edges}

    vrc, vsecs, vout, vop = _call_cli(["verify", "--graph", path], tracer,
                                      "verify " + plan.label)
    ver = OpRecord("verify", plan.label, seed, vsecs, False, trace_op=vop)
    if vrc != rc:
        ver.problems.append("verify exited %r, construct %d" % (vrc, rc))
    try:
        matches = json.loads(vout).get("matches_report")
    except json.JSONDecodeError:
        matches = None
    if matches is not True:
        ver.problems.append("verify matches_report=%r" % (matches,))
    return [con, ver]


def _builder_ops(seed: int, pins: dict, tracer) -> list:
    spec = field_for_order(BUILDER_ORDER)
    cfg = kstfree.variety.BuildConfig(**BUILDER_CONFIG)
    label = BUILDER_LABEL
    scope = tracer.op(label) if tracer is not None else contextlib.nullcontext()
    with scope as op_id:
        start = time.perf_counter()
        try:
            res = kstfree.variety.build_independent_variety(
                spec, cfg, SeededRng(seed))
        except Exception as e:
            res = "raised %s: %s" % (type(e).__name__, e)
        secs = time.perf_counter() - start
    op = OpRecord("build", label, seed, secs, True, trace_op=op_id)
    if isinstance(res, str):
        op.problems.append(res)
        return [op]
    op.certified = res.certified is True
    probe = None if res.probe is None else {
        str(e): c for e, c in res.probe.counts.items()}
    doc = {"certified": res.certified, "attempts": res.attempts,
           "variety": kstfree.variety.variety_to_json(res.variety),
           "points": res.points.tolist(), "probe_counts": probe}
    op.digest = hashlib.sha256(dump_doc(doc).encode()).hexdigest()
    if res.n_points != len(res.points):
        op.problems.append("n_points %d but %d points"
                           % (res.n_points, len(res.points)))
    if res.certified:
        for row in res.points.tolist():
            pt = ProjPoint(spec, tuple(row))
            if any(evaluate(f, pt) != 0 for f in res.variety.forms):
                op.problems.append("point %r is not on the variety" % (row,))
                break
        if probe is not None and probe.get("1") != res.n_points:
            op.problems.append("probe count over F_q %r != %d points"
                               % (probe.get("1"), res.n_points))
    pin = pins.get(label, {}).get(str(seed))
    if pin is not None:
        if pin["sha256"] != op.digest:
            op.problems.append("variety digest differs from pin")
        if pin["probe_counts"] != probe:
            op.problems.append("probe counts %r, pinned %r"
                               % (probe, pin["probe_counts"]))
    op.pin = {"sha256": op.digest, "probe_counts": probe}
    return [op]


def run_cycle(w: Workload, seed: int, outdir: str, pins: dict,
              tracer=None) -> list:
    """Run one cycle at master seed `seed`; returns its OpRecords in order.

    `pins` maps plan label -> master seed (as a string) -> pinned values.
    With a tracer, every op runs inside one trace tree of its own.
    """
    if not w.plans:
        return _builder_ops(seed, pins, tracer)
    ops = []
    for plan in w.plans:
        ops += _cli_plan_ops(plan, seed, outdir, pins, tracer)
    return ops

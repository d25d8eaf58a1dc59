"""Tests of the benchmark itself.

The file name matches no test-file pattern, so a run of the repository's
suite never collects them; name the file to run them:

    python3 -m pytest -q bench/selfcheck.py

The smoke configuration runs every workload for one cycle (--seconds 1),
untraced and traced, about three minutes and a 2.3 GB peak in all.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import kstfree.cli  # noqa: E402
import kstfree.graphs  # noqa: E402
import kstfree.polyrand  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMOKE = ["--seed", "1", "--seconds", "1"]
PRINTED_METRICS = ("setup_s", "op_s.p50", "op_s.tail", "verify_s.p50",
                 "ops_per_s", "certified_share", "failed_share", "peak_rss_mb")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def smoke():
    """workload -> trace flag -> (CompletedProcess, result file document)."""
    out = {}
    for name in workloads.WORKLOADS:
        for trace in ("0", "1"):
            done = _bench("--workload", name, *SMOKE, "--trace", trace)
            tag = "%s-seed1-trace%s" % (name, trace)
            with open(os.path.join(run.OUT, tag + ".result.json")) as fh:
                doc = json.load(fh)
            out.setdefault(name, {})[trace] = (done, doc)
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(smoke, name):
    done, _ = smoke[name]["0"]
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    for metric in PRINTED_METRICS:
        assert any(re.match(r"\s+%s\s+\S+\s+\S+" % re.escape(metric), line)
                   for line in lines), metric
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [n for n, _ in run.END_TO_END]
    for name_, unit in run.END_TO_END:
        assert result["metrics"][name_]["unit"] == unit
        assert result["metrics"][name_]["value"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced_run(smoke, name):
    done, doc = smoke[name]["1"]
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        dict(run.PER_LAYER)
    # every traced op has an untraced twin with the same digest
    plain = {(o["kind"], o["label"], o["master_seed"]): o["digest"]
             for o in doc["ops"] if o["trace_op"] is None}
    twins = [o for o in doc["ops"] if o["trace_op"] is not None]
    assert twins and len(twins) == len(plain)
    for o in twins:
        assert o["digest"] == plain[(o["kind"], o["label"], o["master_seed"])]
    spans = []
    tag = "%s-seed1-trace1" % name
    with open(os.path.join(run.OUT, tag + ".trace.jsonl")) as fh:
        for line in fh:
            s = json.loads(line)
            if "id" in s:
                spans.append((s["op"], s["id"], s["parent"], s["name"],
                              s["start"], s["end"]))
    assert spans
    assert tracing.self_time_violations(spans) == []
    assert 0.9 < result["metrics"]["trace.root_share"]["value"] <= 1.0


def test_builder_time_is_under_the_extension_count(smoke):
    m = json.loads(smoke["builder-ext"]["1"][0].stdout.splitlines()[-1])
    m = {k: v["value"] for k, v in m["metrics"].items()}
    assert m["variety.count_points_ext.s"] > \
        0.8 * m["variety.build_independent_variety.s"]
    assert m["variety.count_points_ext.points"] >= 1_786_324


def test_desk_q7_time_is_under_the_swise_search(tmp_path):
    w = workloads.Workload("q7", (7,), (workloads._turan_s2(7),))
    plain = workloads.run_cycle(w, 2, str(tmp_path), {})
    tr = tracing.Tracer()
    traced = workloads.run_cycle(w, 2, str(tmp_path), {}, tr)
    assert [o.digest for o in plain] == [o.digest for o in traced]
    con = traced[0]
    assert con.kind == "construct" and not con.problems
    root = sum(e - s for op, _, parent, _, s, e in tr.spans
               if op == con.trace_op and parent is None)
    swise = sum(e - s for op, _, _, name, s, e in tr.spans
                if op == con.trace_op
                and name == "independence.s_wise_independent")
    assert tr.stats["independence.s_wise_independent.mode.exhaustive"] == 1
    assert swise > 0.5 * root


def _unwrapped_references():
    """Module attributes still holding an original traced function."""
    misses = []
    for name, modname, path, _ in tracing.TARGETS:
        if "." in path:
            continue
        orig = getattr(sys.modules[modname], path).__wrapped__
        for mod in tracing._kstfree_modules():
            misses += ["%s.%s" % (mod.__name__, key)
                       for key, value in vars(mod).items() if value is orig]
    return misses


def test_wrappers_reach_every_import_site():
    orig = kstfree.polyrand.eval_hom_many
    tr = tracing.Tracer()
    with tr.op("probe"):
        assert _unwrapped_references() == []
        assert kstfree.graphs.eval_hom_many.__wrapped__ is orig
        assert kstfree.variety.s_wise_independent is not \
            kstfree.independence.s_wise_independent.__wrapped__
    assert kstfree.graphs.eval_hom_many is orig
    assert not hasattr(kstfree.independence.s_wise_independent, "__wrapped__")


def _drop_an_edge(path):
    with open(path) as fh:
        doc = json.load(fh)
    doc["edges"] = doc["edges"][1:]
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_tampered_artifact_fails_the_run(monkeypatch, capsys):
    real = kstfree.cli.main

    def tampering_main(argv):
        if argv[0] == "verify":
            _drop_an_edge(argv[argv.index("--graph") + 1])
        return real(argv)

    monkeypatch.setattr(kstfree.cli, "main", tampering_main)
    rc = run.main(["--workload", "desk-turan", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_pinned_digest_mismatch_fails(tmp_path):
    w = workloads.Workload("q11", (11,), (workloads._turan_s2(11),))
    pins = {"turan-q11": {"1": {"sha256": "0" * 64, "n_edges": -1}}}
    ops = workloads.run_cycle(w, 1, str(tmp_path), pins)
    assert "graph sha256 differs from pin" in ops[0].problems
    assert any(p.startswith("n_edges") for p in ops[0].problems)


def test_pins_cover_the_default_seed():
    with open(os.path.join(BENCH, "pins.json")) as fh:
        pins = json.load(fh)
    for name, w in workloads.WORKLOADS.items():
        labels = [p.label for p in w.plans] or [workloads.BUILDER_LABEL]
        for label in labels:
            assert "1" in pins[name][label], (name, label)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "desk-turan", *SMOKE, "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_lists_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    # s3-frontier's one cycle takes 30-40 s, so it stays out of
    # BENCHMARK.json (see NOTES.md)
    assert [w["name"] for w in spec["workloads"]] == \
        [n for n in workloads.WORKLOADS if n != "s3-frontier"]

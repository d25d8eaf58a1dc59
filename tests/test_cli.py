"""CLI contract: dispatch, exit codes, artifacts on disk."""

import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kstfree
import kstfree.cli
from kstfree.cli import main
from kstfree.gf import field_for_order
from kstfree.jsonio import read_doc, report_path_for
from references import enumerate_projective, point_to_str


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_plan_prints_known_threshold(capsys):
    rc, out, _ = run(["plan", "turan", "--s", "2", "--mode", "desk",
                      "--m", "3", "--r", "1", "--Z", "1"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["t_threshold"] == 82
    assert doc["kind"] == "turan"
    assert doc["c"] == "1/4"


def test_plan_zarankiewicz_with_width_override(capsys):
    # a is derived from (s, c, q, T); --a is no longer an option
    zar = ["plan", "zarankiewicz", "--s", "2", "--T", "3", "--r", "1",
           "--m", "2", "--q", "8"]
    rc, out, err = run(zar + ["--a", "7"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("usage error:") and "--a" in err
    rc, out, _ = run(zar, capsys)
    assert rc == 0 and json.loads(out)["a"] != 7


def test_width_override_rejected_for_turan(capsys):
    rc, out, err = run(["plan", "turan", "--s", "2", "--m", "3", "--r", "1",
                        "--Z", "1", "--a", "7"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("usage error:") and "--a" in err


def test_width_and_mode_overrides_are_usage_errors(tmp_path, capsys):
    # a is derived from (s, c, q, T), and only plan resolves theorem plans
    zar = ["zarankiewicz", "--s", "2", "--T", "3", "--r", "1", "--m", "2",
           "--q", "8"]
    out = ["--seed", "1", "--out", str(tmp_path / "g.json")]
    cases = []
    for sub in ("construct", "sweep"):
        cases.append([sub] + zar + out + ["--a", "7"])
        cases.append([sub] + zar + out + ["--mode", "theorem"])
    for argv in cases:
        rc, stdout, err = run(argv, capsys)
        assert rc == 1, argv
        assert err.startswith("usage error:") and argv[-2] in err, argv
        assert stdout == "" and not (tmp_path / "g.json").exists()


def test_usage_errors_exit_one(capsys):
    assert run(["plan", "turan", "--s", "2", "--bogus"], capsys)[0] == 1
    assert run(["construct", "turan", "--s", "2", "--m", "3", "--r", "1",
                "--Z", "1", "--q", "7", "--out", "/tmp/x.json"],
               capsys)[0] == 1  # no --seed
    assert run(["plan", "turan", "--s", "1"], capsys)[0] == 1  # s too small
    assert run(["nonsense"], capsys)[0] == 1


@pytest.mark.parametrize("argv", [
    ["construct", "turan", "--s", "2", "--m", "3", "--r", "1", "--Z", "1",
     "--seed", "1"],
    ["indep", "--points", "pts.txt", "--m", "1"],
    ["plan", "turan", "--s", "2", "--m", "3", "--r", "1", "--Z", "1"],
])
def test_huge_prime_order_is_refused_at_once(argv, tmp_path, capsys):
    # 2^61 - 1 is prime: trial division up to its square root would hang
    out = tmp_path / "g.json"
    rc, stdout, err = run(argv + ["--q", "2305843009213693951",
                                  "--out", str(out)], capsys)
    assert rc == 1
    assert err.startswith("error: field order 2305843009213693951 exceeds cap")
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("q, message", [
    ("6", "6 is not a prime power"),
    ("1", "order must be >= 2"),
    ("0", "order must be >= 2"),
    ("-5", "order must be >= 2"),
])
def test_orders_without_a_field_are_refused(q, message, tmp_path, capsys):
    # the plan resolves --q to a field, so no subcommand starts without one
    out = tmp_path / "g.json"
    seed = ["--seed", "1"]
    for argv in (["plan", "turan", "--s", "2", "--m", "3", "--r", "1",
                  "--Z", "1"],
                 ["plan", "zarankiewicz", "--s", "2", "--T", "3", "--r", "1",
                  "--m", "2"],
                 ["construct", "turan", "--s", "2", "--m", "3", "--r", "1",
                  "--Z", "1"] + seed,
                 ["sweep", "turan", "--s", "2", "--m", "3", "--r", "1",
                  "--Z", "1"] + seed):
        rc, stdout, err = run(argv + ["--q", q, "--out", str(out)], capsys)
        assert rc == 1, argv
        assert err == "error: %s\n" % message, argv
        assert stdout == "" and not out.exists()


def test_zero_truncation_target_is_a_usage_error(tmp_path, capsys):
    # floor(0 * 7^2) = 0 and floor(0 * 8^(3/2)) = 0 for every seed:
    # refused once, before any trial
    out = tmp_path / "g.json"
    turan = ["turan", "--s", "2", "--m", "3", "--r", "1", "--Z", "1",
             "--q", "7", "--c", "0", "--out", str(out)]
    zar = ["zarankiewicz", "--s", "2", "--T", "3", "--r", "1", "--m", "2",
           "--q", "8", "--c", "0", "--out", str(out)]
    for plan, msg in ((turan, "truncation target floor(c * q^s) is zero at "
                              "c = 0, q = 7; both sides would be empty"),
                      (zar, "left width floor(c * q^(T/s)) is zero at "
                            "c = 0, q = 8; the left side would be empty")):
        for argv in (["plan"] + plan,
                     ["construct"] + plan + ["--seed", "1", "--trials", "3"],
                     ["sweep"] + plan + ["--seed", "1", "--trials", "3"]):
            rc, stdout, err = run(argv, capsys)
            assert rc == 1, argv
            assert err == "error: %s\n" % msg, argv
            assert stdout == "" and not out.exists()


def test_a_rejection_that_no_seed_changes_stops_the_seed_loop(tmp_path,
                                                              capsys):
    # with Z = 0 the builder draws no forms, so every seed walks the same W
    # and is rejected alike: one seed is tried, not ten
    out = tmp_path / "g.json"
    rc, stdout, err = run(["construct", "turan", "--s", "4", "--m", "2",
                           "--r", "4", "--Z", "0", "--q", "2", "--seed", "1",
                           "--out", str(out)], capsys)
    assert rc == 2 and stdout == "" and not out.exists()
    head, *rows = err.splitlines()
    assert head == ("no graph built: the plan alone decides seed 1's "
                    "rejection, so no later seed was tried")
    assert rows == ["  seed 1: variety certification failed after 1 "
                    "attempts (rejections: {'count': 0, 'swise': 1, "
                    "'probe': 0})"]


def test_rejections_that_a_seed_can_change_are_retried(tmp_path, capsys,
                                                       monkeypatch):
    # an empty side depends on the seed's cutting forms: every trial runs
    def reject(plan, seed, subset_budget, point_cap):
        raise kstfree.CertificationError("a side came out empty")

    monkeypatch.setattr(kstfree.cli, "_construct_once", reject)
    rc, stdout, err = run(["construct", "turan", "--s", "2", "--m", "3",
                           "--r", "1", "--Z", "1", "--q", "7", "--seed", "4",
                           "--trials", "3", "--out",
                           str(tmp_path / "g.json")], capsys)
    assert rc == 2 and stdout == ""
    assert err.splitlines() == ["no graph built in 3 trials"] + [
        "  seed %d: a side came out empty" % s for s in (4, 5, 6)]


def test_spaces_past_int64_grid_indices_exit_one_at_once(tmp_path, capsys):
    # b = 6,400,000: deriving the plan used to take seconds; q^b >= 2^63
    # is now refused from q's bit length, before anything else is derived
    huge = ["zarankiewicz", "--s", "6400000", "--T", "1", "--r", "0",
            "--m", "1", "--q", "8", "--c", "5/4"]
    out = str(tmp_path / "g.json")
    run(["construct", "turan", "--s", "2", "--m", "3", "--r", "1", "--Z", "1",
         "--q", "7", "--seed", "1", "--out", out], capsys)
    doc = read_doc(out)
    doc["plan"] = {"kind": "zarankiewicz", "s": 6400000, "m": 1, "r": 0,
                   "Z": None, "T": 1, "b": 6400000, "q": 8, "a": 1,
                   "delta": [], "t_threshold": 2, "c": "5/4", "mode": "desk",
                   "headline_log10": None}
    with open(out, "w") as fh:
        json.dump(doc, fh)
    fresh = str(tmp_path / "h.json")
    for argv in (["plan"] + huge,
                 ["construct"] + huge + ["--seed", "1", "--out", fresh],
                 ["verify", "--graph", out]):
        start = time.perf_counter()
        rc, stdout, err = run(argv, capsys)
        assert time.perf_counter() - start < 0.5, argv
        assert rc == 1 and stdout == "", argv
        assert err == ("error: q^b = 8^6400000 is at least 2^63, beyond the "
                       "int64 grid indices that address P^b(F_q)\n"), argv
    assert not os.path.exists(fresh)


def test_oversized_forms_exit_two_before_any_draw(tmp_path, capsys):
    # a degree-48 cutting form (C(57, 9) coefficients) and an a = 40,262
    # adjacency form would not fit in memory; refused for every seed
    out = tmp_path / "g.json"
    turan = ["turan", "--s", "7", "--m", "6", "--r", "2", "--Z", "0",
             "--q", "2"]
    zar = ["zarankiewicz", "--s", "2", "--T", "10", "--r", "3", "--m", "3",
           "--q", "11"]
    for plan in (turan, zar):
        for sub in ("construct", "sweep"):
            argv = [sub] + plan + ["--seed", "1", "--trials", "2",
                                   "--out", str(out)]
            rc, stdout, err = run(argv, capsys)
            assert rc == 2, argv
            assert err.startswith("budget exceeded: the "), argv
            assert err.endswith(" coefficients, over the point budget "
                                "3000000\n"), argv
            assert stdout == "" and not list(tmp_path.iterdir())


@pytest.mark.parametrize("sub,flags", [
    ("construct", ["--trials", "0"]),
    ("construct", ["--trials", "-3"]),
    ("construct", ["--budget-subsets", "-5"]),
    ("construct", ["--budget-points", "-1"]),
    ("sweep", ["--trials", "0"]),
    ("sweep", ["--workers", "2"]),  # sweep runs its seeds in one process
    ("sweep", ["--budget-subsets", "-5"]),
    ("sweep", ["--budget-points", "-1"]),
    # verify judges at the plan's own s, t and orientation, and indep
    # certifies or refuses, so these options are gone
    ("indep", ["--seed", "1"]),
    ("indep", ["--trials", "4"]),
    ("verify", ["--s", "3"]),
    ("verify", ["--t", "82"]),
    ("verify", ["--orientation", "both"]),
    ("indep", ["--m", "-1"]),
    # verify reads the subset budget from the stored report
    ("verify", ["--budget-subsets", "5"]),
])
def test_bad_counts_and_budgets_are_usage_errors(sub, flags, tmp_path,
                                                 capsys):
    out = tmp_path / "g.json"
    head = {"indep": ["--points", str(tmp_path / "pts.txt"), "--q", "5",
                      "--m", "2", "--s", "3"],
            "verify": ["--graph", str(tmp_path / "in.json")]}.get(
        sub, ["turan", "--s", "2", "--m", "3", "--r", "1", "--Z", "1",
              "--q", "11", "--seed", "1"])
    rc, stdout, err = run([sub] + head + ["--out", str(out)] + flags, capsys)
    assert rc == 1
    assert err.startswith("usage error:") and flags[0] in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("trials", ["-2", "0"])
def test_indep_bad_trials_are_usage_errors(trials, tmp_path, capsys):
    # indep has no --trials (nor --seed) to take any value
    pts = tmp_path / "pts.txt"
    pts.write_text("0:1\n1:0\n1:1\n1:2\n1:3\n1:4\n")
    rc, stdout, err = run(["indep", "--points", str(pts), "--q", "5",
                           "--m", "1", "--s", "3", "--seed", "1",
                           "--budget-subsets", "0", "--trials", trials],
                          capsys)
    assert rc == 1
    assert "usage error:" in err and "--trials" in err
    assert stdout == ""


def test_construct_verify_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "g.json")
    rc, stdout, _ = run(["construct", "turan", "--s", "2", "--m", "3",
                         "--r", "1", "--Z", "1", "--q", "7", "--c", "1/4",
                         "--seed", "1", "--trials", "5", "--out", out],
                        capsys)
    assert rc == 0
    summary = json.loads(stdout)
    assert summary["passed"] is True
    doc = read_doc(out)
    assert doc["kind"] == "sided"
    assert doc["plan"]["t_threshold"] == 82
    report = read_doc(report_path_for(out))
    assert report["passed"] is True
    assert report["n_edges"] == len(doc["edges"])

    rc, vout, _ = run(["verify", "--graph", out], capsys)
    assert rc == 0
    vdoc = json.loads(vout)
    assert vdoc["matches_report"] is True
    assert vdoc["mismatched_fields"] == []

    # a stored report without kst mismatches, and kst is listed last
    stored = dict(report, n_edges=report["n_edges"] + 1)
    del stored["kst"]
    with open(report_path_for(out), "w") as fh:
        json.dump(stored, fh)
    rc, vout, _ = run(["verify", "--graph", out], capsys)
    assert rc == 2
    assert json.loads(vout)["mismatched_fields"] == ["n_edges", "kst"]


@pytest.mark.parametrize("c, seed, sizes", [("3/2", "1", (66, 68)),
                                             ("5/4", "2", (55, 54))])
def test_short_sides_fail_construct_and_verify_alike(c, seed, sizes, tmp_path,
                                                     capsys):
    # floor(c * 7^2) is 73 and 61: the slices of these seeds fall short
    out = str(tmp_path / "g.json")
    rc, _, _ = run(["construct", "turan", "--s", "2", "--m", "3", "--r", "1",
                    "--Z", "1", "--q", "7", "--c", c, "--seed", seed,
                    "--trials", "1", "--out", out], capsys)
    assert rc == 2
    report = read_doc(report_path_for(out))
    assert (report["n_left"], report["n_right"]) == sizes
    assert report["sides_full"] is False and report["passed"] is False
    rc, vout, _ = run(["verify", "--graph", out], capsys)
    vdoc = json.loads(vout)
    assert rc == 2
    assert vdoc["sides_full"] is False and vdoc["passed"] is False
    assert vdoc["matches_report"] is True


@pytest.mark.parametrize("key, edit", [
    ("passed", lambda v: not v),
    ("sides_full", lambda v: not v),
    ("t_threshold", lambda v: v + 1),
])
def test_verify_names_an_edited_report_key(key, edit, tmp_path, capsys):
    out = str(tmp_path / "g.json")
    rc, _, _ = run(["construct", "turan", "--s", "2", "--m", "3", "--r", "1",
                    "--Z", "1", "--q", "7", "--seed", "1", "--out", out],
                   capsys)
    assert rc == 0
    report = read_doc(report_path_for(out))
    with open(report_path_for(out), "w") as fh:
        json.dump(dict(report, **{key: edit(report[key])}), fh)
    rc, vout, _ = run(["verify", "--graph", out], capsys)
    vdoc = json.loads(vout)
    assert rc == 2
    assert vdoc["mismatched_fields"] == [key]
    assert vdoc["matches_report"] is False


def test_verify_compares_report_values_as_json(tmp_path, capsys):
    # 1 == True and 1.0 == 1 in Python, but not in the stored document
    out = str(tmp_path / "g.json")
    rc, _, _ = run(["construct", "turan", "--s", "2", "--m", "3", "--r", "1",
                    "--Z", "1", "--q", "7", "--seed", "2", "--out", out],
                   capsys)
    assert rc == 0
    report = read_doc(report_path_for(out))
    assert report["passed"] is True and report["sides_full"] is True
    with open(report_path_for(out), "w") as fh:
        json.dump(dict(report, passed=1, sides_full=1,
                       n_edges=float(report["n_edges"])), fh)
    rc, vout, _ = run(["verify", "--graph", out], capsys)
    vdoc = json.loads(vout)
    assert rc == 2
    assert sorted(vdoc["mismatched_fields"]) == ["n_edges", "passed",
                                                 "sides_full"]
    assert vdoc["matches_report"] is False


@pytest.mark.parametrize("plan", [
    ["turan", "--s", "2", "--m", "3", "--r", "1", "--Z", "1", "--q", "7"],
    ["zarankiewicz", "--s", "2", "--T", "3", "--r", "1", "--m", "2",
     "--q", "8"],
])
def test_verify_reports_every_key_but_the_builder_and_seed(plan, tmp_path,
                                                           capsys):
    # a key added to the report is either checked by verify or named here
    # as one that only construct knows
    out = str(tmp_path / "g.json")
    rc, _, _ = run(["construct"] + plan + ["--seed", "1", "--out", out],
                   capsys)
    assert rc in (0, 2)
    report = read_doc(report_path_for(out))
    vrc, vout, _ = run(["verify", "--graph", out], capsys)
    vdoc = json.loads(vout)
    assert vrc == rc and vdoc["mismatched_fields"] == []
    assert set(vdoc) == (set(report) - {"builder", "seed"}
                         | {"graph", "matches_report", "mismatched_fields"})


def test_construct_is_reproducible(tmp_path, capsys):
    args = ["construct", "turan", "--s", "2", "--m", "3", "--r", "1",
            "--Z", "1", "--q", "7", "--seed", "42", "--trials", "3"]
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run(args + ["--out", a], capsys)
    run(args + ["--out", b], capsys)
    assert open(a, "rb").read() == open(b, "rb").read()
    assert (open(report_path_for(a), "rb").read()
            == open(report_path_for(b), "rb").read())


def test_verify_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "nope"}\n')
    rc, _, err = run(["verify", "--graph", str(bad)], capsys)
    assert rc == 1
    assert "error" in err

    # a valid q = 11 graph (30 vertices a side), then one bad input each
    good = str(tmp_path / "g.json")
    run(["construct", "turan", "--s", "2", "--m", "3", "--r", "1", "--Z", "1",
         "--q", "11", "--seed", "1", "--out", good], capsys)
    doc = read_doc(good)
    assert len(doc["left"]) == len(doc["right"]) == 30
    broken = [dict(doc, edges=doc["edges"] + [edge])
              for edge in ([-1, 0], [30, 0], [0, 30], [0, 1.0], ["0", 0],
                           [True, 0])]
    broken.append(dict(doc, plan=dict(doc["plan"], q=7)))
    # wrongly typed vertex ids and plan, field and seed values
    broken.append(dict(doc, left=[[1, 0, 0, 0]] + doc["left"][1:]))
    broken.append(dict(doc, plan=dict(doc["plan"], s="2")))
    broken.append(dict(doc, field=dict(doc["field"], p="11")))
    broken.append(dict(doc, seed="1"))
    # documents of the wrong shape
    broken.append(dict(doc, edges=5))
    broken.append(dict(doc, field=[11, 1]))
    broken.append(dict(doc, plan=[1]))
    for key, value in (("delta", 3), ("kind", 7), ("mode", 3)):
        broken.append(dict(doc, plan=dict(doc["plan"], **{key: value})))
    # plans and documents that would not be written back as they were read
    for key, value in (("c", "2/8"), ("c", "0.25"), ("c", True),
                       ("extra", 1)):
        broken.append(dict(doc, plan=dict(doc["plan"], **{key: value})))
    broken.append(dict(doc, extra=1))
    broken.append({key: doc[key] for key in doc if key != "seed"})
    # vertex ids that are not canonical points of P^4(F_11)
    for first in ("junk", "2:0:0:0:0", "1:0"):
        broken.append(dict(doc, left=[first] + doc["left"][1:]))
    for i, bad_doc in enumerate(broken):
        bad = tmp_path / ("bad%d.json" % i)
        bad.write_text(json.dumps(bad_doc))
        rc, _, err = run(["verify", "--graph", str(bad)], capsys)
        assert rc == 1, i
        assert err.startswith("error: "), i


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600),
                                         (0o002, 0o664)])
def test_artifacts_take_the_mode_open_would_give(umask, mode, tmp_path,
                                                 capsys):
    out = str(tmp_path / "g.json")
    old = os.umask(umask)
    try:
        rc, _, _ = run(["construct", "turan", "--s", "2", "--m", "3",
                        "--r", "1", "--Z", "1", "--q", "7", "--seed", "1",
                        "--out", out], capsys)
    finally:
        os.umask(old)
    assert rc == 0
    for path in (out, report_path_for(out)):
        assert os.stat(path).st_mode & 0o777 == mode
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".tmp")]


def test_verify_refuses_duplicate_keys_and_constants(tmp_path, capsys):
    out = str(tmp_path / "g.json")
    run(["construct", "turan", "--s", "2", "--m", "3", "--r", "1", "--Z", "1",
         "--q", "7", "--seed", "1", "--out", out], capsys)
    good = open(out).read()
    report = open(report_path_for(out)).read()
    assert good.startswith("{\n") and '"seed": 1\n' in good
    assert '"n_edges": ' in report
    cases = [
        # json.load would keep the last "edges" and load the graph as is
        (good.replace("{\n", '{\n  "edges": [],\n', 1), report,
         "duplicate key 'edges'"),
        (good.replace('"seed": 1\n', '"seed": NaN\n'), report, "NaN"),
        (good, report.replace('"n_edges": ', '"n_edges": -Infinity, "x": ', 1),
         "-Infinity"),
    ]
    for graph_text, report_text, named in cases:
        with open(out, "w") as fh:
            fh.write(graph_text)
        with open(report_path_for(out), "w") as fh:
            fh.write(report_text)
        rc, stdout, err = run(["verify", "--graph", out], capsys)
        assert (rc, stdout) == (1, "")
        assert err.startswith("error: ") and named in err


def test_verify_degree_report_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "z.json")
    rc, _, _ = run(["construct", "zarankiewicz", "--s", "2", "--T", "3",
                    "--r", "1", "--m", "2", "--q", "8", "--c", "1/4",
                    "--seed", "4", "--trials", "1", "--budget-subsets", "5",
                    "--out", out], capsys)
    assert rc == 2
    report = read_doc(report_path_for(out))
    # left_only: only the left side is searched, and over budget it is
    # bounded by its degrees; a bound of t = 9 leaves it undetermined
    assert report["kst"]["sides"] == {"left": {
        "size": 9, "subset": None, "certified": True, "checked": 0,
        "total": 10, "mode": "degree"}}
    assert "max_common" not in report
    assert report["kst"]["free"] is None
    # verify searches at the report's own budget of 5
    assert report["subset_budget"] == 5
    rc, vout, _ = run(["verify", "--graph", out], capsys)
    assert rc == 2
    assert json.loads(vout)["matches_report"] is True
    # the verdicts never read the seed, so a graph without one verifies alike
    doc = dict(read_doc(out), seed=None)
    with open(out, "w") as fh:
        json.dump(doc, fh)
    rc, vout2, _ = run(["verify", "--graph", out], capsys)
    assert (rc, vout2) == (2, vout)
    # a report that still holds the dropped top-level max_common key, as
    # older reports do, verifies alike: only the fresh report's keys count
    with open(report_path_for(out), "w") as fh:
        json.dump(dict(report, max_common=report["kst"]["sides"]), fh)
    rc, vout3, _ = run(["verify", "--graph", out], capsys)
    assert (rc, vout3) == (2, vout)


def test_verify_judges_at_the_stored_subset_budget(tmp_path, capsys):
    out = str(tmp_path / "g.json")
    rc, _, _ = run(["construct", "turan", "--s", "2", "--m", "3", "--r", "1",
                    "--Z", "1", "--q", "23", "--c", "1/4", "--seed", "1",
                    "--budget-subsets", "1000", "--out", out], capsys)
    assert rc == 0
    report = read_doc(report_path_for(out))
    assert report["subset_budget"] == 1000
    assert {v["mode"] for v in report["kst"]["sides"].values()} == {"degree"}
    rc, vout, _ = run(["verify", "--graph", out], capsys)
    assert rc == 0 and json.loads(vout)["mismatched_fields"] == []
    # a report written before the key existed is judged at the default
    # budget, which searches these sides exhaustively
    del report["subset_budget"]
    with open(report_path_for(out), "w") as fh:
        json.dump(report, fh)
    rc, vout, _ = run(["verify", "--graph", out], capsys)
    assert rc == 2
    assert json.loads(vout)["mismatched_fields"] == ["kst"]
    for bad in (-1, "1000", True, 1.5, None):
        with open(report_path_for(out), "w") as fh:
            json.dump(dict(report, subset_budget=bad), fh)
        rc, stdout, err = run(["verify", "--graph", out], capsys)
        assert (rc, stdout) == (1, ""), bad
        assert err.startswith("error: ") and "subset_budget" in err


@pytest.mark.parametrize("stored", ["[]", '"x"', "3"])
def test_verify_refuses_a_report_that_is_not_an_object(stored, tmp_path,
                                                       capsys):
    out = str(tmp_path / "g.json")
    run(["construct", "turan", "--s", "2", "--m", "3", "--r", "1", "--Z", "1",
         "--q", "7", "--seed", "1", "--out", out], capsys)
    with open(report_path_for(out), "w") as fh:
        fh.write(stored + "\n")
    rc, stdout, err = run(["verify", "--graph", out], capsys)
    assert rc == 1
    assert err.startswith("error: ") and "not a JSON object" in err
    assert stdout == ""


def test_plan_with_an_unwritable_threshold_exits_one(tmp_path, capsys):
    out = tmp_path / "plan.json"
    rc, stdout, err = run(["plan", "turan", "--s", "10000", "--mode",
                           "theorem", "--out", str(out)], capsys)
    assert rc == 1 and stdout == "" and not out.exists()
    assert err.startswith("error: ") and "Traceback" not in err
    assert "t_threshold has 10511 decimal digits" in err


def test_verify_missing_file_exits_one(capsys):
    rc, _, _ = run(["verify", "--graph", "/nonexistent/g.json"], capsys)
    assert rc == 1


def test_indep_reports_rank(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("1:0\n0:1\n1:1\n1:2\n")
    rc, out, _ = run(["indep", "--points", str(pts), "--q", "5", "--m", "2"],
                     capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["n_points"] == 4
    assert doc["hilbert_rank"] == 3
    assert doc["dependent"] is True

    rc, out, _ = run(["indep", "--points", str(pts), "--q", "5", "--m", "2",
                      "--s", "2"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["s_wise"]["verdict"] == "independent"
    assert doc["s_wise"]["certified"] is True


def test_indep_budget_paths(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("1:0\n0:1\n1:1\n1:2\n1:3\n")
    # C(5, 3) = 10 subsets over a budget of 2: refused, nothing printed
    rc, out, err = run(["indep", "--points", str(pts), "--q", "5", "--m", "2",
                        "--s", "3", "--budget-subsets", "2"], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("budget exceeded:")
    # within the budget every subset is searched
    rc, out, _ = run(["indep", "--points", str(pts), "--q", "5", "--m", "2",
                      "--s", "3", "--budget-subsets", "10"], capsys)
    assert rc == 0
    sw = json.loads(out)["s_wise"]
    assert (sw["mode"], sw["checked"], sw["certified"]) == (
        "exhaustive", 10, True)


def test_indep_witness_counts_the_subsets_it_searched(tmp_path, capsys):
    # at m = 0 every pair is dependent, so the first pair is the witness
    pts = tmp_path / "pts.txt"
    pts.write_text("1:0\n0:1\n")
    rc, out, _ = run(["indep", "--points", str(pts), "--q", "5", "--m", "0",
                      "--s", "2"], capsys)
    assert rc == 2
    sw = json.loads(out)["s_wise"]
    assert (sw["witness"], sw["checked"], sw["total"]) == ([0, 1], 1, 1)


@pytest.mark.parametrize("m, minimal", [(64, True), (63, False)])
def test_indep_decides_minimality_past_64_points(m, minimal, tmp_path,
                                                 capsys):
    # 66 points of the line over F_67: any m+1 of them are independent, so
    # at m = 64 the kernel is one all-nonzero vector, at m = 63 it is 2-dim
    pts = tmp_path / "pts.txt"
    pts.write_text("".join("%s\n" % point_to_str(pt) for pt in
                           enumerate_projective(field_for_order(67), 1)[:66]))
    rc, out, _ = run(["indep", "--points", str(pts), "--q", "67",
                      "--m", str(m)], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert (doc["dependent"], doc["minimal"]) == (True, minimal)
    assert doc["kernel_dim"] == 66 - (m + 1)


def test_indep_refuses_an_evaluation_matrix_past_the_point_budget(tmp_path,
                                                                  capsys):
    # 2 * C(100003, 3) entries: refused before the matrix is allocated
    pts = tmp_path / "pts.txt"
    pts.write_text("1:0:0:0\n0:1:0:0\n")
    rc, stdout, err = run(["indep", "--points", str(pts), "--q", "5",
                           "--m", "100000"], capsys)
    assert (rc, stdout) == (2, "")
    assert err == ("budget exceeded: the degree-100000 evaluation matrix "
                   "holds 333353333700002 entries, over the point budget "
                   "3000000\n")


def test_indep_refuses_an_elimination_past_the_point_budget(tmp_path,
                                                           capsys):
    # 200 * 200 entries fit the budget, but eliminating them takes about
    # 200^3 = 8,000,000 field operations: refused before any is done
    pts = tmp_path / "pts.txt"
    pts.write_text("".join("1:%d\n" % i for i in range(200)))
    t0 = time.monotonic()
    rc, stdout, err = run(["indep", "--points", str(pts), "--q", "1021",
                           "--m", "199"], capsys)
    assert (rc, stdout) == (2, "")
    assert time.monotonic() - t0 < 1.0
    assert err == ("budget exceeded: eliminating the 200 x 200 evaluation "
                   "matrix takes about 8000000 field operations, over the "
                   "point budget 3000000\n")


def test_out_of_memory_exits_two(tmp_path, capsys, monkeypatch):
    # an allocation every budget admits but the machine cannot hold
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 3.96 GiB")

    monkeypatch.setattr(kstfree.cli, "construct_turan", no_memory)
    rc, stdout, err = run(["construct", "turan", "--s", "2", "--m", "3",
                           "--r", "1", "--Z", "1", "--q", "7", "--seed", "1",
                           "--out", str(tmp_path / "g.json")], capsys)
    assert (rc, stdout) == (2, "")
    assert err == ("budget exceeded: out of memory: "
                   "Unable to allocate 3.96 GiB\n")
    assert not (tmp_path / "g.json").exists()


def test_indep_rejects_garbage_points(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("1:0\nnot-a-point\n")
    rc, _, err = run(["indep", "--points", str(pts), "--q", "5", "--m", "2"],
                     capsys)
    assert rc == 1
    assert "pts.txt:2" in err


def test_indep_names_the_first_point_of_another_space(tmp_path, capsys):
    # the first point sets the space, P^1 here; line numbers count the
    # comment and the blank line
    pts = tmp_path / "pts.txt"
    pts.write_text("# two spaces\n1:0\n\n1:0:0\n")
    rc, stdout, err = run(["indep", "--points", str(pts), "--q", "5",
                           "--m", "2"], capsys)
    assert rc == 1 and stdout == ""
    assert err.startswith("error: %s:4: '1:0:0' is not a canonical point "
                          "of P^1(F_5)" % pts)


@pytest.mark.parametrize("line", ["2:1", "1: 1", "01:1", "1:+1"])
def test_indep_refuses_non_canonical_points(line, tmp_path, capsys):
    # 2:1 is the point 1:3 over F_5, but the file must say so
    pts = tmp_path / "pts.txt"
    pts.write_text("1:0\n%s\n" % line)
    rc, stdout, err = run(["indep", "--points", str(pts), "--q", "5",
                           "--m", "2"], capsys)
    assert rc == 1
    assert err.startswith("error: ") and "pts.txt:2" in err
    assert stdout == ""


FUZZ_ORDERS = (2, 3, 4, 5, 9)
CANONICAL_IDS = {
    (q, dim): [point_to_str(pt)
               for pt in enumerate_projective(field_for_order(q), dim)]
    for q in FUZZ_ORDERS for dim in (1, 2)}
POINT_PARTS = st.one_of(st.integers(-2, 10).map(str),
                        st.sampled_from(["1,0", "0,1", "2,1", "", " 1", "1 "]),
                        st.text(alphabet="0123456789,:-+ #x", max_size=3))
NOISE_LINES = st.one_of(
    st.lists(POINT_PARTS, min_size=1, max_size=5).map(":".join),
    st.text(max_size=6))


@st.composite
def points_files(draw):
    """(q, lines): distinct canonical points of P^1 or P^2, in any order
    with up to two noise lines."""
    q = draw(st.sampled_from(FUZZ_ORDERS))
    ids = CANONICAL_IDS[q, draw(st.sampled_from((1, 2)))]
    lines = (draw(st.lists(st.sampled_from(ids), unique=True, max_size=5))
             + draw(st.lists(NOISE_LINES, max_size=2)))
    return q, draw(st.permutations(lines))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=points_files(), m=st.integers(1, 3),
       s=st.none() | st.integers(1, 3))
def test_indep_loader_fuzz_exits_cleanly(doc, m, s, tmp_path, capsys):
    q, lines = doc
    pts = tmp_path / "pts.txt"
    pts.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["indep", "--points", str(pts), "--q", str(q), "--m", str(m)]
    if s is not None:
        argv += ["--s", str(s)]
    rc, _, err = run(argv, capsys)
    assert rc in (0, 1, 2)
    if rc == 1:
        assert err.startswith("error: ")


def test_sweep_aggregates(tmp_path, capsys):
    out = str(tmp_path / "sweep.json")
    rc, _, _ = run(["sweep", "turan", "--s", "2", "--m", "3", "--r", "1",
                    "--Z", "1", "--q", "7", "--seed", "1", "--trials", "3",
                    "--out", out], capsys)
    doc = read_doc(out)
    assert doc["aggregate"]["trials"] == 3
    assert [r["seed"] for r in doc["rows"]] == [1, 2, 3]
    assert rc == (0 if doc["aggregate"]["passed"] else 2)


def test_selftest_subset(capsys):
    rc, out, _ = run(["selftest", "10", "--seed", "3"], capsys)
    assert rc == 0
    assert "PASS  check 10  arithmetic-ledgers" in out


def test_selftest_unknown_number(capsys):
    rc, _, err = run(["selftest", "99", "--seed", "3"], capsys)
    assert rc == 1
    assert "unknown check" in err


def test_console_script_installed():
    # the child imports the package this suite imports, installed or not
    src = os.path.dirname(os.path.dirname(kstfree.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "kstfree.cli", "plan", "turan", "--s", "2",
         "--m", "3", "--r", "1", "--Z", "1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["t_threshold"] == 82


def test_package_runs_as_a_module():
    # `python -m kstfree` is the same command line as `kstfree.cli`
    src = os.path.dirname(os.path.dirname(kstfree.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "kstfree", "selftest", "10", "--seed", "7000"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "PASS  check 10  arithmetic-ledgers" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "kstfree", "selftest", "99", "--seed", "3"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 1 and "unknown check" in proc.stderr

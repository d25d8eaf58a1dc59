"""CLI contract: dispatch, exit codes, artifacts on disk."""

import json
import subprocess
import sys

from kstfree.cli import main
from kstfree.jsonio import read_doc, report_path_for


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
    rc, out, _ = run(["plan", "zarankiewicz", "--s", "2", "--T", "3",
                      "--r", "1", "--m", "2", "--q", "8", "--a", "7"],
                     capsys)
    assert rc == 0
    assert json.loads(out)["a"] == 7


def test_width_override_rejected_for_turan(capsys):
    rc, _, err = run(["plan", "turan", "--s", "2", "--m", "3", "--r", "1",
                      "--Z", "1", "--a", "7"], capsys)
    assert rc == 1
    assert "zarankiewicz" in err


def test_usage_errors_exit_one(capsys):
    assert run(["plan", "turan", "--s", "2", "--bogus"], capsys)[0] == 1
    assert run(["construct", "turan", "--s", "2", "--m", "3", "--r", "1",
                "--Z", "1", "--q", "7", "--out", "/tmp/x.json"],
               capsys)[0] == 1  # no --seed
    assert run(["plan", "turan", "--s", "1"], capsys)[0] == 1  # s too small
    assert run(["nonsense"], capsys)[0] == 1


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

    # the documented explicit form
    rc, _, _ = run(["verify", "--graph", out, "--s", "2", "--t", "82",
                    "--orientation", "both"], capsys)
    assert rc == 0


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
    for i, bad_doc in enumerate(broken):
        bad = tmp_path / ("bad%d.json" % i)
        bad.write_text(json.dumps(bad_doc))
        rc, _, err = run(["verify", "--graph", str(bad)], capsys)
        assert rc == 1, i
        assert err.startswith("error: "), i


def test_verify_sampled_report_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "z.json")
    rc, _, _ = run(["construct", "zarankiewicz", "--s", "2", "--T", "3",
                    "--r", "1", "--m", "2", "--q", "8", "--c", "1/4",
                    "--seed", "4", "--trials", "1", "--budget-subsets", "5",
                    "--out", out], capsys)
    assert rc == 2
    report = read_doc(report_path_for(out))
    assert [report["max_common"][side]["mode"]
            for side in ("left", "right")] == ["sampled", "sampled"]
    # the K_{s,t} verdict reads the one search of each side
    assert report["kst"]["sides"]["left"] == report["max_common"]["left"]
    rc, vout, _ = run(["verify", "--graph", out, "--budget-subsets", "5"],
                      capsys)
    assert rc == 2
    assert json.loads(vout)["matches_report"] is True


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
    # budget too small, no seed: refuse with exit 2
    rc, _, err = run(["indep", "--points", str(pts), "--q", "5", "--m", "2",
                      "--s", "3", "--budget-subsets", "2"], capsys)
    assert rc == 2
    assert "--seed" in err
    # same budget with a seed: sampled, uncertified, still exit 2
    rc, out, _ = run(["indep", "--points", str(pts), "--q", "5", "--m", "2",
                      "--s", "3", "--budget-subsets", "2", "--seed", "9",
                      "--trials", "4"], capsys)
    assert rc == 2
    assert json.loads(out)["s_wise"]["mode"] == "sampled"


def test_indep_rejects_garbage_points(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("1:0\nnot-a-point\n")
    rc, _, err = run(["indep", "--points", str(pts), "--q", "5", "--m", "2"],
                     capsys)
    assert rc == 1
    assert "pts.txt:2" in err


def test_sweep_aggregates(tmp_path, capsys):
    out = str(tmp_path / "sweep.json")
    rc, _, _ = run(["sweep", "turan", "--s", "2", "--m", "3", "--r", "1",
                    "--Z", "1", "--q", "7", "--seed", "1", "--trials", "3",
                    "--out", out], capsys)
    doc = read_doc(out)
    assert doc["aggregate"]["trials"] == 3
    assert [r["seed"] for r in doc["rows"]] == [1, 2, 3]
    assert rc == (0 if doc["aggregate"]["passed"] else 2)

    # a parallel run must produce the identical document
    out2 = str(tmp_path / "sweep2.json")
    run(["sweep", "turan", "--s", "2", "--m", "3", "--r", "1", "--Z", "1",
         "--q", "7", "--seed", "1", "--trials", "3", "--workers", "2",
         "--out", out2], capsys)
    assert open(out).read() == open(out2).read()


def test_selftest_subset(capsys):
    rc, out, _ = run(["selftest", "10", "--seed", "3"], capsys)
    assert rc == 0
    assert "PASS  check 10  arithmetic-ledgers" in out


def test_selftest_unknown_number(capsys):
    rc, _, err = run(["selftest", "99", "--seed", "3"], capsys)
    assert rc == 1
    assert "unknown check" in err


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "kstfree.cli", "plan", "turan", "--s", "2",
         "--m", "3", "--r", "1", "--Z", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["t_threshold"] == 82

"""Built-in check suite: eleven end-to-end checks over the whole stack.

Each check is a function taking one master seed and returning
(ok, summary, detail).  The registry CHECKS pins their order and names;
run_checks drives them and is what the CLI selftest subcommand and the
acceptance tests call.  Every check re-derives its own randomness from
the seed, so a given seed always reproduces the same verdicts.

Wall-clock limits are part of two checks (field exactness, builder
yield); they are measured with a monotonic clock and included in the
pass condition.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import tempfile
import time
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

from .gf import field_for_order, make_field
from .graphs import (
    CertificationError,
    construct_turan,
    construct_zar,
    joint_uniformity_test,
    plan_construction,
)
from .independence import (
    hilbert_rank,
    independent_set_third,
    disjoint_span_subset,
    m_cap,
    phi_upper_bound,
    power_rank,
    strong_dependence_witness,
    z_condition,
)
from .jsonio import read_doc, report_path_for
from .linalg import is_scalar_multiple, rank
from .polyrand import SeededRng
from .projgeom import ProjPoint, enumerate_projective
from .util import dec12, iroot
from .variety import (
    BuildConfig,
    VarietySpec,
    build_independent_variety,
    concentration_study,
    count_points,
    fq_point_array,
)


def _prime_powers(limit: int):
    primes = [n for n in range(2, limit + 1)
              if all(n % d for d in range(2, int(n**0.5) + 1))]
    out = []
    for p in primes:
        k, pk = 1, p
        while pk <= limit:
            out.append((p, k, pk))
            k += 1
            pk *= p
    return sorted(out, key=lambda t: t[2])


def _axioms_hold(spec) -> bool:
    """Exhaustive field axioms plus additive Frobenius, vectorized.

    The bulk kernels work on base-p coordinate arrays (trailing axis of
    length k), so all elements are decoded once up front.
    """
    q = spec.order
    e = spec.dec_array(np.arange(q, dtype=np.int64))
    idx = np.arange(q)
    pa, pb = e[np.repeat(idx, q)], e[np.tile(idx, q)]
    add_ab = spec.arr_add(pa, pb)
    if not np.array_equal(add_ab, spec.arr_add(pb, pa)):
        return False
    if not np.array_equal(spec.arr_mul(pa, pb), spec.arr_mul(pb, pa)):
        return False
    zero = np.zeros_like(e)
    one = np.zeros_like(e)
    one[..., 0] = 1
    if not np.array_equal(spec.arr_add(e, zero), e):
        return False
    if not np.array_equal(spec.arr_mul(e, one), e):
        return False
    x = e[np.repeat(idx, q * q)]
    y = e[np.tile(np.repeat(idx, q), q)]
    w = e[np.tile(idx, q * q)]
    if not np.array_equal(spec.arr_add(spec.arr_add(x, y), w),
                          spec.arr_add(x, spec.arr_add(y, w))):
        return False
    if not np.array_equal(spec.arr_mul(spec.arr_mul(x, y), w),
                          spec.arr_mul(x, spec.arr_mul(y, w))):
        return False
    if not np.array_equal(spec.arr_mul(x, spec.arr_add(y, w)),
                          spec.arr_add(spec.arr_mul(x, y),
                                       spec.arr_mul(x, w))):
        return False
    if any(spec.add(v, spec.neg(v)) != 0 for v in range(q)):
        return False
    if any(spec.mul(v, spec.inv(v)) != 1 for v in range(1, q)):
        return False
    frob = spec.arr_pow(add_ab, spec.p)
    return np.array_equal(
        frob, spec.arr_add(spec.arr_pow(pa, spec.p), spec.arr_pow(pb, spec.p)))


def check_field_exactness(seed: int):
    """All field axioms for every prime power order <= 64, and exact
    projective point counts (q^(b+1)-1)/(q-1) for q up to 11, b up to 4.
    Must finish in under ten seconds."""
    t0 = time.monotonic()
    bad_fields = [q for p, k, q in _prime_powers(64)
                  if not _axioms_hold(make_field(p, k))]
    bad_counts = []
    for q in (2, 3, 4, 5, 7, 8, 9, 11):
        spec = field_for_order(q)
        for b in range(1, 5):
            want = (q ** (b + 1) - 1) // (q - 1)
            if count_points(VarietySpec(spec, b, ())) != want:
                bad_counts.append((q, b))
    elapsed = time.monotonic() - t0
    ok = not bad_fields and not bad_counts and elapsed < 10.0
    return ok, "27 fields, 32 projective counts, %.1fs" % elapsed, {
        "bad_fields": bad_fields,
        "bad_counts": bad_counts,
        "elapsed": dec12(elapsed),
    }


def check_interpolation_floor(seed: int):
    """No point set of size <= m+1 is degree-m dependent: exhaustive over
    the projective line over F_5 and the plane over F_3, m in {2, 3}.
    Must finish in under a minute."""
    t0 = time.monotonic()
    checked = 0
    dependent = 0
    for b, q in ((1, 5), (2, 3)):
        pts = enumerate_projective(field_for_order(q), b)
        for m in (2, 3):
            for size in range(1, m + 2):
                for sub in itertools.combinations(pts, size):
                    checked += 1
                    if hilbert_rank(list(sub), m) != size:
                        dependent += 1
    elapsed = time.monotonic() - t0
    ok = dependent == 0 and elapsed < 60.0
    return ok, "%d subsets, %d dependent, %.1fs" % (
        checked, dependent, elapsed), {
        "checked": checked,
        "dependent": dependent,
        "elapsed": dec12(elapsed),
    }


def check_rank_agreement(seed: int):
    """Monomial-evaluation rank equals power-form rank on 200 random point
    sets per configuration: plane over F_7 and line over F_11, m in {2, 3}."""
    rng = SeededRng(seed)
    total = 0
    mismatches = 0
    for b, q in ((2, 7), (1, 11)):
        pts = enumerate_projective(field_for_order(q), b)
        n = len(pts)
        for m in (2, 3):
            for _ in range(200):
                size = 2 + rng.randbelow(7)
                sub = [pts[i] for i in rng.sample_subset(n, size)]
                total += 1
                if hilbert_rank(sub, m) != power_rank(sub, m):
                    mismatches += 1
    ok = mismatches == 0 and total == 800
    return ok, "%d sets, %d rank mismatches" % (total, mismatches), {
        "total": total,
        "mismatches": mismatches,
    }


def check_specialization_uniformity(seed: int):
    """Specializing a random bilinear-pattern form at independent anchors is
    jointly uniform: exactly so over all 16 forms at q=2 (1x1, degree 1,1),
    chi-square clean at q=5 (2x2, degree 2,2) with 10^4 draws at the 1e-6
    quantile, and a dependent anchor triple must fail the exhaustive test."""
    f2 = make_field(2)
    anchors2 = [ProjPoint(f2, (1, 0)), ProjPoint(f2, (0, 1))]
    exact = joint_uniformity_test(1, 1, 1, 1, anchors2, mode="exhaustive")
    f5 = make_field(5)
    anchors5 = [ProjPoint(f5, (1, 0, 0)), ProjPoint(f5, (0, 1, 0))]
    sampled = joint_uniformity_test(2, 2, 2, 2, anchors5, mode="sampled",
                                    rng=SeededRng(seed), draws=10_000,
                                    quantile=1e-6)
    negative = joint_uniformity_test(
        1, 1, 1, 1, anchors2 + [ProjPoint(f2, (1, 1))],
        mode="exhaustive", require_independent=False)
    ok = (exact.ok and exact.total == 16 and exact.cells == 16
          and sampled.ok and not negative.ok)
    return ok, "exact %s, sampled %s, negative control %s" % (
        exact.ok, sampled.ok, not negative.ok), {
        "exhaustive": {"ok": exact.ok, "total": exact.total,
                       "cells": exact.cells},
        "sampled": {"ok": sampled.ok, "detail": sampled.detail},
        "negative_control_failed": not negative.ok,
    }


def check_slice_concentration(seed: int):
    """Cutting the 400 points of three-space over F_7 by one random quadric
    concentrates: over 500 trials the mean survivor count sits within four
    standard errors of 400/7 and at most 7% of trials drop to half the
    expectation or below (the a-priori bound 4q/|Y| is exactly 0.07)."""
    spec = field_for_order(7)
    pts = fq_point_array(VarietySpec(spec, 3, ()))
    rep = concentration_study(spec, pts, 1, 2, SeededRng(seed), 500)
    counts = np.asarray(rep.counts, dtype=np.float64)
    se = float(np.std(counts, ddof=1)) / math.sqrt(rep.trials)
    deviation = abs(rep.mean - float(rep.expected))
    mean_ok = deviation <= 4.0 * se
    freq_ok = rep.failures * 100 <= 7 * rep.trials
    ok = (mean_ok and freq_ok and rep.expected == Fraction(400, 7)
          and rep.failure_bound == Fraction(7, 100))
    return ok, "mean %.2f vs 400/7=%.2f (4se=%.2f), failures %d/%d" % (
        rep.mean, float(rep.expected), 4 * se, rep.failures, rep.trials), {
        "mean": dec12(rep.mean),
        "expected": str(rep.expected),
        "four_se": dec12(4 * se),
        "failures": rep.failures,
        "trials": rep.trials,
    }


def check_builder_yield(seed: int):
    """The certified-variety builder (cubic surface in 3-space over F_11,
    one cut, pairwise target 3-wise 3-independence) certifies at least 90
    of 100 master seeds within 10 attempts each, in under ten minutes."""
    spec = field_for_order(11)
    cfg = BuildConfig(b=3, num_forms=1, degree=3, s=3)
    t0 = time.monotonic()
    certified = 0
    attempts = []
    for i in range(100):
        res = build_independent_variety(spec, cfg, SeededRng(seed + i))
        if res.certified:
            certified += 1
            attempts.append(res.attempts)
    elapsed = time.monotonic() - t0
    ok = certified >= 90 and elapsed < 600.0
    return ok, "%d/100 certified, %.0fs" % (certified, elapsed), {
        "certified": certified,
        "first_try": sum(1 for a in attempts if a == 1),
        "elapsed": dec12(elapsed),
    }


def _side_mode(entry) -> str:
    return entry["mode"] if isinstance(entry, dict) else entry.mode


def check_turan_pipeline(seed: int):
    """Dense two-sided pipeline at s=2, m=3, r=1, one cut, c=1/4: for each
    of q=7 and q=11, among 20 master seeds at least one graph passes both
    the edge floor 2|E| >= c^2 q^3 and the exhaustive pair/82-common-
    neighbor freeness check on both sides."""
    per_q = {}
    ok = True
    for q in (7, 11):
        plan = plan_construction("turan", 2, m=3, r=1, Z=1,
                                 c=Fraction(1, 4), q=q)
        if plan.t_threshold != 82:
            return False, "unexpected t threshold %d" % plan.t_threshold, {}
        hits = built = 0
        for i in range(20):
            try:
                _, rep = construct_turan(plan, seed + i)
            except CertificationError:
                continue
            built += 1
            exhaustive = all(_side_mode(v) == "exhaustive"
                             for v in rep.kst.sides.values())
            if (rep.kst.free is True and rep.kst.certified and exhaustive
                    and rep.density.turan_ok):
                hits += 1
        per_q[str(q)] = {"built": built, "hits": hits}
        ok = ok and hits >= 1
    return ok, ", ".join("q=%s: %d/20 full passes" % (q, v["hits"])
                         for q, v in per_q.items()), per_q


def check_zarankiewicz_pipeline(seed: int):
    """Left-anchored pipeline at s=2, T=3, r=1, m=2, c=1/4: for each of
    q=8 and q=11, among 20 master seeds at least one graph is left-(2,9)-
    free by exhaustive search and meets the edge floor
    (4|E|)^2 >= q^(T+2) / c^2-scaled equivalent."""
    per_q = {}
    ok = True
    for q, want_a in ((8, 5), (11, 9)):
        plan = plan_construction("zarankiewicz", 2, T=3, r=1, m=2,
                                 c=Fraction(1, 4), q=q)
        if plan.t_threshold != 9 or plan.a != want_a:
            return False, "unexpected plan at q=%d" % q, {}
        hits = built = 0
        for i in range(20):
            try:
                _, rep = construct_zar(plan, seed + i)
            except CertificationError:
                continue
            built += 1
            if (rep.kst.free is True and rep.kst.certified
                    and rep.density.zar_ok):
                hits += 1
        per_q[str(q)] = {"built": built, "hits": hits}
        ok = ok and hits >= 1
    return ok, ", ".join("q=%s: %d/20 full passes" % (q, v["hits"])
                         for q, v in per_q.items()), per_q


def _random_basis(spec, n: int, rng: SeededRng):
    while True:
        rows = [tuple(rng.residue(spec.order) for _ in range(n))
                for _ in range(n)]
        if rank([list(r) for r in rows], spec) == n:
            return rows


def check_constructive_floors(seed: int):
    """Three constructive floors: no spanning subset of the F_5 projective
    line with fewer than 4 points has a strong degree-2 dependence witness;
    the greedy independent set meets ceil(n/3) on 100 random sparse graphs;
    the two-basis span-avoiding subset meets ceil(n/3) and misses every
    target vector on 100 random basis pairs over F_5."""
    spec = field_for_order(5)
    pts = enumerate_projective(spec, 1)
    witnesses = 0
    spanning = 0
    for size in (2, 3):
        for sub in itertools.combinations(pts, size):
            if rank([list(p.coords) for p in sub], spec) < 2:
                continue
            spanning += 1
            if strong_dependence_witness(list(sub), 2) is not None:
                witnesses += 1

    rng_g = SeededRng(seed).derive(1)
    bad_greedy = 0
    for _ in range(100):
        n = 1 + rng_g.randbelow(12)
        edges = set()
        if n >= 2:
            for _ in range(rng_g.randbelow(n + 1)):
                u = rng_g.randbelow(n)
                v = rng_g.randbelow(n)
                while v == u:
                    v = rng_g.randbelow(n)
                edges.add((min(u, v), max(u, v)))
        chosen = independent_set_third(n, sorted(edges))
        inside = set(chosen)
        independent = all(not (u in inside and v in inside)
                          for u, v in edges)
        if len(chosen) < -(-n // 3) or not independent:
            bad_greedy += 1

    rng_b = SeededRng(seed).derive(2)
    bad_span = 0
    for _ in range(100):
        n = 2 + rng_b.randbelow(7)
        basis_a = _random_basis(spec, n, rng_b)
        while True:
            basis_b = _random_basis(spec, n, rng_b)
            if not any(is_scalar_multiple(u, v, spec)
                       for u in basis_b for v in basis_a):
                break
        chosen = disjoint_span_subset(spec, basis_a, basis_b)
        sub = [list(basis_a[i]) for i in chosen]
        misses_all = all(rank(sub + [list(u)], spec) == len(sub) + 1
                         for u in basis_b)
        if len(chosen) < -(-n // 3) or not misses_all:
            bad_span += 1

    ok = witnesses == 0 and bad_greedy == 0 and bad_span == 0
    return ok, ("%d spanning subsets witness-free, greedy bad %d/100, "
                "two-basis bad %d/100" % (spanning, bad_greedy, bad_span)), {
        "spanning_checked": spanning,
        "strong_witnesses": witnesses,
        "bad_greedy": bad_greedy,
        "bad_span": bad_span,
    }


def check_arithmetic_ledgers(seed: int):
    """Degree-cap arithmetic on the grid r <= 8, T <= 50: each cap obeys
    M_k(T) <= floor(k T^(1/k)) and the product over k <= r stays below
    T^(1+ln r) r!; the frozen bound and threshold examples hold; headline
    plans at s=100 and s=200 produce the frozen parameter triple."""
    grid_bad = []
    for r in range(1, 9):
        for t_budget in range(1, 51):
            prod = 1
            for k in range(1, r + 1):
                cap = m_cap(k, t_budget)
                if cap > iroot(t_budget * k**k, k):
                    grid_bad.append(("cap", r, t_budget, k))
                prod *= cap
            rhs = float(t_budget) ** (1.0 + math.log(r)) * math.factorial(r)
            if prod > rhs:
                grid_bad.append(("prod", r, t_budget))
    phi = phi_upper_bound(5, 10, 3)
    frozen_ok = (phi.kind == "bound" and phi.value == Fraction(164, 7)
                 and phi_upper_bound(3, 10, 3).kind == "empty"
                 and z_condition(10, 3, 5, 5).verdict == "false"
                 and z_condition(10, 3, 6, 5).verdict == "true")
    plans_ok = True
    for s, want_r, want_z in ((100, 39, 142), (200, 62, 265)):
        plan = plan_construction("turan", s, mode="theorem")
        plans_ok = plans_ok and (plan.m, plan.r, plan.Z) == (3, want_r, want_z)
        plans_ok = plans_ok and plan.r == iroot(6 * s * s, 3)
        plans_ok = plans_ok and plan.headline_log10 is not None
    ok = not grid_bad and frozen_ok and plans_ok
    return ok, "grid violations %d, frozen %s, headline plans %s" % (
        len(grid_bad), frozen_ok, plans_ok), {
        "grid_violations": grid_bad[:10],
        "frozen_examples": frozen_ok,
        "headline_plans": plans_ok,
    }


def check_reproducibility(seed: int):
    """The construct command with a fixed plan and seed emits byte-identical
    graph and report files across two runs, and the verify command on the
    emitted file reproduces every stored verdict."""
    from .cli import main as cli_main

    with tempfile.TemporaryDirectory(prefix="kstfree-check-") as tmp:
        p1 = os.path.join(tmp, "run1.json")
        p2 = os.path.join(tmp, "run2.json")
        argv = ["construct", "turan", "--s", "2", "--m", "3", "--r", "1",
                "--Z", "1", "--q", "7", "--c", "1/4",
                "--seed", str(seed), "--trials", "5"]
        sink = io.StringIO()
        with redirect_stdout(sink):
            rc1 = cli_main(argv + ["--out", p1])
            rc2 = cli_main(argv + ["--out", p2])
        with open(p1, "rb") as fh:
            graph_bytes = fh.read()
        with open(p2, "rb") as fh:
            identical = graph_bytes == fh.read()
        with open(report_path_for(p1), "rb") as fh:
            rep_bytes = fh.read()
        with open(report_path_for(p2), "rb") as fh:
            identical = identical and rep_bytes == fh.read()
        vout = os.path.join(tmp, "verify.json")
        with redirect_stdout(sink):
            rcv = cli_main(["verify", "--graph", p1, "--out", vout])
        vdoc = read_doc(vout)
    ok = (identical and rc1 == rc2 and rcv == rc1
          and vdoc.get("matches_report") is True
          and not vdoc.get("mismatched_fields"))
    return ok, "files identical %s, verify matches %s" % (
        identical, vdoc.get("matches_report")), {
        "identical": identical,
        "construct_rc": rc1,
        "verify_rc": rcv,
        "mismatched_fields": vdoc.get("mismatched_fields", []),
    }


CHECKS = (
    (1, "field-exactness", check_field_exactness),
    (2, "interpolation-floor", check_interpolation_floor),
    (3, "rank-agreement", check_rank_agreement),
    (4, "specialization-uniformity", check_specialization_uniformity),
    (5, "slice-concentration", check_slice_concentration),
    (6, "builder-yield", check_builder_yield),
    (7, "turan-pipeline", check_turan_pipeline),
    (8, "zarankiewicz-pipeline", check_zarankiewicz_pipeline),
    (9, "constructive-floors", check_constructive_floors),
    (10, "arithmetic-ledgers", check_arithmetic_ledgers),
    (11, "reproducibility", check_reproducibility),
)


def run_checks(seed: int, which=None):
    known = {num for num, _, _ in CHECKS}
    if which:
        unknown = set(which) - known
        if unknown:
            raise ValueError("unknown check numbers: %s" % sorted(unknown))
    results = []
    for num, name, fn in CHECKS:
        if which and num not in which:
            continue
        ok, summary, detail = fn(seed)
        results.append({"number": num, "name": name, "ok": bool(ok),
                        "summary": summary, "detail": detail})
    return results

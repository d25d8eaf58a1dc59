"""Built-in check suite: eleven end-to-end checks over the whole stack.

Each check is a function taking one master seed and returning
(ok, summary, detail).  The registry CHECKS pins their order and names;
run_checks drives them and is what the CLI selftest subcommand and the
acceptance tests call.  Every check re-derives its own randomness from
the seed, so a given seed always reproduces the same verdicts.

Wall-clock limits are part of two checks (field exactness, builder
yield); they are measured with a monotonic clock and included in the
pass condition.

The lemma experiments that only these checks run live here, each just
above the check that reads it: power-form rows (check 3), joint
uniformity of anchored specializations (check 4), slice moments
(check 5), and strong witnesses with the greedy and two-basis
selections (check 9).  They call the pipeline's primitives but are not
part of it, so `graphs`, `variety` and `independence` hold only what
the construct, verify, sweep and indep commands run.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf import FieldSpec, field_for_order, make_field
from .graphs import (
    CertificationError,
    construct_turan,
    construct_zar,
    plan_construction,
)
from .independence import (
    evaluation_rows,
    hilbert_rank,
    m_cap,
    phi_upper_bound,
    z_condition,
)
from .jsonio import read_doc, report_path_for
from .linalg import left_kernel, rank
from .polyrand import HomPoly, SeededRng
from .projgeom import multiindex_table, projective_array
from .util import BudgetExceeded, dec12, iroot
from .variety import (
    BuildConfig,
    VarietySpec,
    build_independent_variety,
    count_points,
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
        spec = field_for_order(q)
        pts = projective_array(spec, b)
        for m in (2, 3):
            for size in range(1, m + 2):
                for sub in itertools.combinations(range(len(pts)), size):
                    checked += 1
                    if hilbert_rank(spec, pts[list(sub)], m) != size:
                        dependent += 1
    elapsed = time.monotonic() - t0
    ok = dependent == 0 and elapsed < 60.0
    return ok, "%d subsets, %d dependent, %.1fs" % (
        checked, dependent, elapsed), {
        "checked": checked,
        "dependent": dependent,
        "elapsed": dec12(elapsed),
    }


def _power_scales(p: int, b: int, m: int) -> np.ndarray:
    """The multinomials m!/beta! mod p over the degree-m multiindex table."""
    return np.array([math.factorial(m) // math.prod(map(math.factorial, beta))
                     % p for beta in multiindex_table(b, m).tolist()],
                    dtype=np.int64)


def power_rows(spec: FieldSpec, rows, m: int) -> np.ndarray:
    """Coefficient rows of the m-th powers of the points' linear forms:
    the evaluation rows, column beta scaled digitwise by m!/beta! in F_p.

    Valid only when the characteristic strictly exceeds m; otherwise some
    multinomial coefficient may vanish mod p and the expansion
    misrepresents the forms, so we refuse.
    """
    if spec.p <= m:
        raise ValueError(
            "power form needs characteristic > m (p = %d, m = %d)" % (spec.p, m)
        )
    ev = evaluation_rows(spec, rows, m)
    scales = _power_scales(spec.p, np.shape(rows)[1] - 1, m)
    return spec.enc_array(spec.dec_array(ev) * scales[:, None] % spec.p)


def check_rank_agreement(seed: int):
    """Evaluation rank equals power-form rank on every point set, p > m.

    Theorem.  power_rows(S, m) = E_S.D, with E_S the evaluation rows of S
    and D = diag(m!/beta! mod p) over the multiindex table.  For p > m,
    m! has no factor p, so D has no zero entry, is invertible, and
    rank(E_S.D) = rank(E_S) for every S.  Confirmed on the plane over F_7
    and the line over F_11, m in {2, 3}: D has no zero entry and the
    ranks agree on all points.  Negative control: F_2 at m = 2 has the
    entry 2!/(1!.1!) = 0, and power_rows refuses it.  Nothing is drawn.
    """
    configs = []
    for b, q in ((2, 7), (1, 11)):
        spec = field_for_order(q)
        pts = projective_array(spec, b)
        configs += [(0 not in _power_scales(spec.p, b, m),
                     hilbert_rank(spec, pts, m)
                     == rank(power_rows(spec, pts, m), spec))
                    for m in (2, 3)]
    control = 0 in _power_scales(2, 1, 2)
    try:
        power_rows(make_field(2), [(1, 0), (0, 1)], 2)
        control = False
    except ValueError:
        pass
    invertible = sum(d for d, _ in configs)
    agree = sum(r for _, r in configs)
    ok = len(configs) == invertible == agree == 4 and control
    return ok, ("D invertible in %d of %d configurations, ranks agree in %d; "
                "F_2 m=2 control refused %s" % (
                    invertible, len(configs), agree, control)), {
        "d_invertible": invertible, "ranks_agree": agree,
        "control_refused": control}


UNIFORMITY_EXHAUSTIVE_CAP = 1 << 20   # coefficient grids enumerated at most


@dataclass
class JointUniformityResult:
    ok: bool
    total: int                # coefficient grids enumerated
    cells: int                # size of the joint space, q^(s*ny)
    detail: dict


def joint_uniformity_test(spec: FieldSpec, anchors, b: int, m: int,
                          mp: int) -> JointUniformityResult:
    """Are the anchored specializations of a random form jointly uniform?

    A form of bidegree (m, mp) on P^a x P^b is an nx x ny coefficient
    grid C, and its specializations at s anchors, the rows of an (s, a+1)
    point set, are the rows of E.C, where E is the anchors' s x nx
    degree-m evaluation matrix.  This enumerates every grid, at most
    UNIFORMITY_EXHAUSTIVE_CAP of them (else BudgetExceeded), and is ok iff
    each of the q^(s*ny) values of E.C occurs equally often; with more
    values than grids it is not ok, and nothing is tallied.  By the
    theorem of check 4, dependent anchors are not ok, and
    detail["independent_anchors"] says whether they were.
    """
    e = evaluation_rows(spec, anchors, m)
    s, nx = e.shape
    independent = rank(e, spec) == s
    q = spec.order
    ny = math.comb(b + mp, mp)
    ncoef = nx * ny
    total = q**ncoef
    if total > UNIFORMITY_EXHAUSTIVE_CAP:
        raise BudgetExceeded(
            "q^(nx*ny) = %d exceeds exhaustive cap %d"
            % (total, UNIFORMITY_EXHAUSTIVE_CAP)
        )
    cells = q ** (s * ny)
    per = total // cells
    counts = np.zeros(cells if per else 0, dtype=np.int64)
    if per:
        e_t = spec.dec_array(e.T)
        grid_place = q ** np.arange(ncoef, dtype=np.int64)
        code_place = q ** np.arange(s * ny, dtype=np.int64)
        chunk = 1 << 15
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
            # each index spells one grid, read directly as its transpose
            grids = (idx[:, None] // grid_place % q).reshape(-1, ny, nx)
            anchored = spec.arr_dot(spec.dec_array(grids), e_t)  # (N, ny, s, k)
            codes = spec.enc_array(anchored).reshape(len(idx), -1) @ code_place
            counts += np.bincount(codes, minlength=cells)
    return JointUniformityResult(
        per > 0 and bool((counts == per).all()), total, cells,
        {"distinct": int(np.count_nonzero(counts)),
         "expected_multiplicity": per, "independent_anchors": independent},
    )


def check_specialization_uniformity(seed: int):
    """Specializing a random form at independent anchors is jointly uniform.

    Theorem.  Let C be a uniform nx x ny coefficient grid over F_q (a form
    of bidegree (m, m') on P^a x P^b) and E the s x nx degree-m evaluation
    matrix of anchors x_1..x_s.  Specializing at the anchors is the
    F_q-linear map C -> E.C, so E.C is uniform on the image of that map,
    and each value of the image has q^(nx*ny)/|image| preimages.  The image
    is {E.C} = (column space of E)^ny, all of F_q^(s x ny) iff rank E = s.
    So the s specializations are jointly uniform, slot by slot and as whole
    forms, iff hilbert_rank(anchors, m) == s.

    The q=5 half is that rank, for two anchors of P^2 at degree 2.  The
    q=2 half enumerates all 16 forms of bidegree (1, 1) on P^1 x P^1 and
    confirms the tally is exactly uniform at two independent anchors; the
    negative control, a dependent anchor triple, must fail it.  Nothing
    is drawn, so the verdict does not depend on the seed.
    """
    f2 = make_field(2)
    anchors2 = [(1, 0), (0, 1)]
    exact = joint_uniformity_test(f2, anchors2, 1, 1, 1)
    anchors5 = [(1, 0, 0), (0, 1, 0)]
    rank5 = hilbert_rank(make_field(5), anchors5, 2)
    negative = joint_uniformity_test(f2, anchors2 + [(1, 1)], 1, 1, 1)
    ok = (exact.ok and exact.total == 16 and exact.cells == 16
          and rank5 == len(anchors5) and not negative.ok)
    return ok, "exact %s, q=5 anchor rank %d of %d, negative control %s" % (
        exact.ok, rank5, len(anchors5), not negative.ok), {
        "exhaustive": {"ok": exact.ok, "total": exact.total,
                       "cells": exact.cells},
        "rank": {"q": 5, "degree": 2, "anchors": len(anchors5),
                 "rank": rank5},
        "negative_control_failed": not negative.ok,
    }


def slice_moments(var: VarietySpec, degree: int):
    """(|Y|, mean, variance) of the points of Y left by a cut f, Y the
    zero set of var, as exact Fractions over all q^C(b+d, d) forms f of
    degree d; more than UNIFORMITY_EXHAUSTIVE_CAP raise BudgetExceeded."""
    spec, b = var.spec, var.b
    ncoef = math.comb(b + degree, degree)
    total = spec.order**ncoef
    if total > UNIFORMITY_EXHAUSTIVE_CAP:
        raise BudgetExceeded("q^C(b+d, d) = %d forms exceed exhaustive cap %d"
                             % (total, UNIFORMITY_EXHAUSTIVE_CAP))
    counts = [count_points(VarietySpec(
        spec, b, var.forms + (HomPoly(spec, b, degree, coeffs),)))
        for coeffs in itertools.product(range(spec.order), repeat=ncoef)]
    mean = Fraction(sum(counts), total)
    variance = Fraction(sum(c * c for c in counts), total) - mean * mean
    return count_points(var), mean, variance


def check_slice_concentration(seed: int):
    """A slice of Y by a random form holds about |Y|/q of its points.

    Theorem.  For Y a set of distinct points and f a uniform form of
    degree d >= 1, each f(x) is uniform (x's evaluation row is nonzero),
    and for x != y the two rows are independent (check 2), so (f(x), f(y))
    is uniform on F_q^2.  So the zeros in Y are pairwise independent
    events of probability 1/q, and their count N has E N = |Y|/q and
    Var N = |Y|(1/q)(1-1/q) exactly; by Chebyshev, P(N <= E N / 2) <=
    4(q-1)/|Y| <= 4q/|Y|.  Each side of the construction is such a slice.

    Confirmed on all 729 quadrics of the plane over F_3: mean 13/3 and
    variance 26/9.  Negative control: at degree 0 pairs are dependent and
    the variance, 338/9, misses the formula.  At three-space over F_7,
    |Y| = 400 and the bound is 7/100.  Nothing is drawn.
    """
    plane = VarietySpec(field_for_order(3), 2, ())
    size, mean, variance = slice_moments(plane, 2)
    formula = Fraction(size * (3 - 1), 3 * 3)
    control = slice_moments(plane, 0)[2]
    points7 = count_points(VarietySpec(field_for_order(7), 3, ()))
    bound = Fraction(4 * 7, points7)
    ok = (size == 13 and mean == Fraction(size, 3) and variance == formula
          and control != formula and bound == Fraction(7, 100))
    return ok, ("%d quadrics on P^2(F_3): mean %s, variance %s (formula %s); "
                "degree-0 control variance %s; P^3(F_7): |Y| = %d, "
                "P(count <= mean/2) <= %s" % (
                    3 ** math.comb(2 + 2, 2), mean, variance, formula,
                    control, points7, bound)), {
        "mean": str(mean), "variance": str(variance),
        "control_variance": str(control), "points": points7,
        "failure_bound": str(bound),
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


def _pipeline_passes(plans, seed: int):
    """(ok, summary, detail) of 20 master seeds from seed for each plan.

    A seed passes when its graph is built, its report passes (full sides,
    certified free, dense), and every side was searched exhaustively; ok
    iff each plan has a pass.
    """
    per_q = {}
    for plan in plans:
        construct = construct_turan if plan.kind == "turan" else construct_zar
        hits = built = 0
        for i in range(20):
            try:
                _, rep = construct(plan, seed + i)
            except CertificationError:
                continue
            built += 1
            if rep.passed and all(v.mode == "exhaustive"
                                  for v in rep.kst.sides.values()):
                hits += 1
        per_q[str(plan.q)] = {"built": built, "hits": hits}
    return (all(v["hits"] for v in per_q.values()),
            ", ".join("q=%s: %d/20 full passes" % (q, v["hits"])
                      for q, v in per_q.items()), per_q)


def check_turan_pipeline(seed: int):
    """Dense two-sided pipeline at s=2, m=3, r=1, one cut, c=1/4: for each
    of q=7 and q=11, among 20 master seeds at least one graph passes both
    the edge floor 2|E| >= c^2 q^3 and the exhaustive pair/82-common-
    neighbor freeness check on both sides."""
    plans = [plan_construction("turan", 2, m=3, r=1, Z=1, c=Fraction(1, 4),
                               q=q) for q in (7, 11)]
    for plan in plans:
        if plan.t_threshold != 82:
            return False, "unexpected t threshold %d" % plan.t_threshold, {}
    return _pipeline_passes(plans, seed)


def check_zarankiewicz_pipeline(seed: int):
    """Left-anchored pipeline at s=2, T=3, r=1, m=2, c=1/4: for each of
    q=8 and q=11, among 20 master seeds at least one graph is left-(2,9)-
    free by exhaustive search and meets the edge floor
    (4|E|)^2 >= q^(T+2) / c^2-scaled equivalent.  The left side has at
    most 9 vertices, so its C(9, 2) pairs are always searched in full."""
    plans = []
    for q, want_a in ((8, 5), (11, 9)):
        plan = plan_construction("zarankiewicz", 2, T=3, r=1, m=2,
                                 c=Fraction(1, 4), q=q)
        if plan.t_threshold != 9 or plan.a != want_a:
            return False, "unexpected plan at q=%d" % q, {}
        plans.append(plan)
    return _pipeline_passes(plans, seed)


KERNEL_CAP = 4     # largest kernel dimension the strong witness searches


def strong_dependence_witness(spec: FieldSpec, rows, m: int):
    """All-nonzero left-kernel vector of the evaluation matrix, or None.

    The first, as a (t,) int64 array, of the basis combinations whose
    coefficients run over `projective_array(spec, d-1)` in order.  Such a
    vector certifies a product relation among the attached linear
    forms in any characteristic; when char > m it is equally a kernel
    vector of the power matrix (the two differ by nonzero column scalings).
    Preconditions: the points span the ambient space, and the kernel
    dimension stays within KERNEL_CAP (the search is projective over F_q;
    else BudgetExceeded).
    """
    ev = evaluation_rows(spec, rows, m)
    if rank(rows, spec) != np.shape(rows)[1]:
        raise ValueError("points do not span the ambient space")
    kern = left_kernel(ev, spec)
    d = len(kern)
    if d == 0:
        return None
    if d > KERNEL_CAP:
        raise BudgetExceeded("kernel dimension %d exceeds cap %d" % (d, KERNEL_CAP))
    lams = spec.dec_array(projective_array(spec, d - 1))
    cands = spec.enc_array(spec.arr_dot(lams, spec.dec_array(kern)))
    hits = np.flatnonzero(cands.all(axis=1))
    return cands[hits[0]] if hits.size else None


def independent_set_third(n: int, edges) -> list:
    """Independent set of size >= ceil(n/3) in a graph with <= n edges.

    Greedy minimum degree (ties to the lowest index): removing a minimum
    degree vertex and its closed neighborhood costs at most 1 from the
    sum of 1/(deg+1), so the greedy set reaches that sum, which is at
    least n/3 when the average degree is at most 2.
    """
    dedup = set()
    for (u, v) in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("edge endpoint out of range")
        if u == v:
            raise ValueError("self-loops are not allowed")
        dedup.add((min(u, v), max(u, v)))
    if len(dedup) > n:
        raise ValueError("too many edges: %d > %d vertices" % (len(dedup), n))
    adj = {v: set() for v in range(n)}
    for (u, v) in dedup:
        adj[u].add(v)
        adj[v].add(u)
    alive = set(range(n))
    chosen = []
    while alive:
        v = min(alive, key=lambda x: (len(adj[x] & alive), x))
        chosen.append(v)
        dead = (adj[v] & alive) | {v}
        alive -= dead
    chosen.sort()
    assert len(chosen) >= -(-n // 3)
    assert all(
        (min(u, v), max(u, v)) not in dedup
        for u, v in itertools.combinations(chosen, 2)
    )
    return chosen


def disjoint_span_subset(spec: FieldSpec, basis_a, basis_b) -> list:
    """Indices C into basis_a, |C| >= ceil(n/3), with span(C) missing basis_b.

    Both arguments must be bases of F_q^n with no vector of one a scalar
    multiple of a vector of the other.  Each basis_b vector's support in
    basis_a coordinates has size >= 2; shrinking every support to its
    first two indices leaves at most n edges, and an independent set of
    that graph spans nothing of basis_b (every support keeps a coordinate
    outside C).
    """
    n = len(basis_a)
    if len(basis_b) != n or n < 2:
        raise ValueError("need two bases of the same dimension n >= 2")
    if any(len(v) != n for v in basis_a) or any(len(v) != n for v in basis_b):
        raise ValueError("vectors must have length n")
    if rank(basis_a, spec) != n:
        raise ValueError("first family is not a basis")
    if rank(basis_b, spec) != n:
        raise ValueError("second family is not a basis")
    if any(rank([u, v], spec) == 1 for u in basis_b for v in basis_a):
        raise ValueError("bases share a direction (scalar multiple)")
    edges = set()
    for u in basis_b:
        # (basis_a; u) has a one-dimensional left kernel c, and u is
        # -sum(c_i a_i) / c_u: its support in basis_a is that of c[:n]
        (c,) = left_kernel(list(basis_a) + [u], spec)
        support = [i for i in range(n) if c[i]]
        if len(support) < 2:
            raise RuntimeError("support collapsed despite multiple-freeness")
        edges.add((support[0], support[1]))
    chosen = independent_set_third(n, sorted(edges))
    sub = [basis_a[i] for i in chosen]
    for u in basis_b:
        if rank(sub + [u], spec) != len(sub) + 1:
            raise RuntimeError("span verification failed")
    return chosen


def _bases(spec, n: int, ordered: bool) -> list:
    """Every basis of F_q^n, ordered or unordered, in encoding order."""
    vecs = [v for v in itertools.product(range(spec.order), repeat=n)
            if any(v)]
    pick = itertools.permutations if ordered else itertools.combinations
    return [b for b in pick(vecs, n) if rank(b, spec) == n]


def check_constructive_floors(seed: int):
    """Three constructive floors, each on every case of its size, so the
    seed draws nothing: no spanning subset of the F_5 projective line with
    fewer than 4 points has a strong degree-2 dependence witness; the
    greedy independent set meets ceil(n/3) on every graph of n <= 6
    vertices and at most n edges; the two-basis span-avoiding subset meets
    ceil(n/3) and misses every target vector for every ordered basis
    against every unordered basis with no vector a multiple of one of its
    vectors, over F_2 at n=3 and F_3 at n=2 (F_2 at n=2 has no such pair).
    The order of the second basis cannot matter: its edges are sorted."""
    spec = field_for_order(5)
    pts = projective_array(spec, 1).tolist()
    witnesses = 0
    spanning = 0
    for size in (2, 3):
        for sub in itertools.combinations(pts, size):
            if rank(sub, spec) < 2:
                continue
            spanning += 1
            if strong_dependence_witness(spec, sub, 2) is not None:
                witnesses += 1

    graphs = bad_greedy = 0
    for n in range(7):
        pairs = list(itertools.combinations(range(n), 2))
        for size in range(n + 1):
            for edges in itertools.combinations(pairs, size):
                graphs += 1
                chosen = independent_set_third(n, list(edges))
                inside = set(chosen)
                independent = all(not (u in inside and v in inside)
                                  for u, v in edges)
                if len(chosen) < -(-n // 3) or not independent:
                    bad_greedy += 1

    basis_pairs = bad_span = 0
    for q, n in ((2, 3), (3, 2)):
        field = field_for_order(q)
        targets = _bases(field, n, ordered=False)
        for basis_a in _bases(field, n, ordered=True):
            for basis_b in targets:
                if any(rank([u, v], field) == 1
                       for u in basis_b for v in basis_a):
                    continue
                basis_pairs += 1
                chosen = disjoint_span_subset(field, basis_a, basis_b)
                sub = [basis_a[i] for i in chosen]
                misses_all = all(rank(sub + [u], field) == len(sub) + 1
                                 for u in basis_b)
                if len(chosen) < -(-n // 3) or not misses_all:
                    bad_span += 1

    ok = witnesses == 0 and bad_greedy == 0 and bad_span == 0
    return ok, ("%d spanning subsets witness-free, greedy bad %d/%d, "
                "two-basis bad %d/%d" % (spanning, bad_greedy, graphs,
                                         bad_span, basis_pairs)), {
        "spanning_checked": spanning,
        "strong_witnesses": witnesses,
        "graphs": graphs,
        "bad_greedy": bad_greedy,
        "basis_pairs": basis_pairs,
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

import itertools
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

import kstfree.independence
from kstfree.acceptance import (
    disjoint_span_subset,
    independent_set_third,
    power_rows,
    strong_dependence_witness,
)
from kstfree.gf import field_for_order, make_field
from kstfree.independence import (
    DependenceReport,
    dependence_classify,
    evaluation_rows,
    hilbert_rank,
    m_cap,
    phi_upper_bound,
    s_wise_independent,
    z_condition,
)
from kstfree.linalg import rank
from kstfree.polyrand import SeededRng
from kstfree.projgeom import projective_array
from kstfree.util import BudgetExceeded
from references import minimal_by_subsets, strong_witness_scalar


def pts(*coords):
    return np.array(coords, dtype=np.int64)


# --- hilbert rank and classification ---------------------------------------

# Oracle for the pinned 4-point example on the line over F_7, m = 2.
# Rows are (a^2, ab, b^2); solving v * M = 0 by hand gives the one
# dimensional kernel spanned by (1, 5, 5, 1).
F7 = make_field(7, 1)
FOUR_PTS = pts((1, 0), (0, 1), (1, 1), (1, 2))
KNOWN_KERNEL = (1, 5, 5, 1)


def test_four_points_on_line_rank():
    assert hilbert_rank(F7, FOUR_PTS, 2) == 3


def test_four_points_classification():
    rep = dependence_classify(F7, FOUR_PTS, 2)
    assert isinstance(rep, DependenceReport)
    assert rep.t == 4 and rep.m == 2
    assert rep.hilbert_rank == 3
    assert rep.dependent is True
    assert rep.minimal is True
    assert len(rep.kernel_basis) == 1
    v = rep.kernel_basis[0]
    # kernel vector must be proportional to the hand-solved one
    ratio = None
    for a, b in zip(v, KNOWN_KERNEL):
        r = F7.mul(a, F7.inv(b))
        if ratio is None:
            ratio = r
        assert r == ratio
    assert ratio != 0


def test_kernel_annihilates_rows():
    rep = dependence_classify(F7, FOUR_PTS, 2)
    rows = evaluation_rows(F7, FOUR_PTS, 2)
    for v in rep.kernel_basis:
        for j in range(len(rows[0])):
            acc = 0
            for i in range(len(rows)):
                acc = F7.add(acc, F7.mul(v[i], rows[i][j]))
            assert acc == 0


def test_independent_triple_not_minimal():
    rep = dependence_classify(F7, FOUR_PTS[:3], 2)
    assert rep.dependent is False
    assert rep.minimal is False
    assert rep.kernel_basis.shape == (0, 3)


SPACES = [(2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (7, 1), (8, 1),
          (9, 1)]


def test_kernel_rule_matches_the_subset_search():
    # minimality read off the kernel agrees with t more ranks, on random
    # sets that reach every branch of the rule
    rng = random.Random(2718)
    tally = {"independent": 0, "minimal": 0, "zero_entry": 0, "wide": 0}
    for q, b in SPACES:
        spec = field_for_order(q)
        points = projective_array(spec, b)
        n = len(points)
        for m in (1, 2, 3):
            for _ in range(20):
                sel = points[rng.sample(range(n), rng.randint(2, min(10, n)))]
                rep = dependence_classify(spec, sel, m)
                assert rep.minimal is minimal_by_subsets(spec, sel, m)
                assert rep.hilbert_rank == hilbert_rank(spec, sel, m)
                if not rep.dependent:
                    tally["independent"] += 1
                elif len(rep.kernel_basis) > 1:
                    tally["wide"] += 1
                else:
                    tally["minimal" if rep.minimal else "zero_entry"] += 1
    assert min(tally.values()) > 0, tally


def test_duplicates_rejected():
    with pytest.raises(ValueError, match="duplicate points"):
        hilbert_rank(F7, pts((1, 0), (1, 0)), 2)
    # s_wise_independent refuses them too, before its vacuous case
    with pytest.raises(ValueError, match="duplicate points"):
        s_wise_independent(F7, pts((1, 0), (1, 0)), 3, 2)


def test_mixed_spaces_rejected():
    # a point of P^1(F_7) is no point of P^1(F_5)
    with pytest.raises(ValueError, match="row 1 is not a canonical point"):
        hilbert_rank(make_field(5, 1), pts((1, 0), (1, 6)), 2)


@pytest.mark.parametrize("row", [(0, 0), (2, 1), (0, 3), (1, -1), (1, 7)])
def test_non_canonical_rows_rejected(row):
    # what ProjPoint refuses: a zero row, a first nonzero entry other
    # than 1, an entry outside [0, q)
    for call in (lambda r: evaluation_rows(F7, r, 2),
                 lambda r: dependence_classify(F7, r, 2),
                 lambda r: s_wise_independent(F7, r, 2, 2)):
        with pytest.raises(ValueError, match="row 1 is not a canonical"):
            call(pts((1, 0), row))


def test_empty_set_rejected():
    with pytest.raises(ValueError, match="need at least one point"):
        dependence_classify(F7, np.zeros((0, 2), dtype=np.int64), 2)


def test_evaluation_matrix_over_the_point_budget_is_refused(monkeypatch):
    # n * C(b+m, m) entries are counted before anything is built
    monkeypatch.setattr(kstfree.independence, "DEFAULT_POINT_BUDGET", 12)
    four = projective_array(make_field(3, 1), 2)[:4]
    assert len(evaluation_rows(F7, four, 1)) == 4  # 4 * C(3, 1) = 12
    with pytest.raises(BudgetExceeded, match="the degree-12 evaluation "
                       "matrix holds 13 entries, over the point budget 12"):
        evaluation_rows(F7, pts((1, 0)), 12)  # 1 * C(13, 12) = 13
    with pytest.raises(BudgetExceeded):
        s_wise_independent(F7, four[:3], 3, 2)  # 3 * C(4, 2) = 18


def test_elimination_over_the_point_budget_is_refused(monkeypatch):
    # t * C * min(t, C) field operations are counted before eliminating:
    # four points of P^2 at m = 1 take 4 * 3 * 3 = 36
    four = pts((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
    monkeypatch.setattr(kstfree.independence, "DEFAULT_POINT_BUDGET", 36)
    assert dependence_classify(F7, four, 1).hilbert_rank == 3
    monkeypatch.setattr(kstfree.independence, "DEFAULT_POINT_BUDGET", 35)
    with pytest.raises(BudgetExceeded, match="eliminating the 4 x 3 "
                       "evaluation matrix takes about 36 field operations, "
                       "over the point budget 35"):
        dependence_classify(F7, four, 1)


@pytest.mark.parametrize("p,b,m", [(5, 1, 2), (5, 1, 3), (3, 2, 2), (3, 2, 3)])
def test_small_sets_always_independent(p, b, m):
    # no set of at most m+1 distinct points is ever degree-m dependent
    spec = make_field(p, 1)
    points = projective_array(spec, b)
    for size in range(1, m + 2):
        for combo in itertools.combinations(range(len(points)), size):
            assert hilbert_rank(spec, points[list(combo)], m) == size


def test_rank_monotone_under_supersets():
    # a dependent set stays dependent when points are added
    spec = make_field(7, 1)
    points = projective_array(spec, 1)
    base = FOUR_PTS
    assert hilbert_rank(spec, base, 2) < 4
    extra = [pt for pt in points.tolist() if pt not in base.tolist()]
    bigger = np.concatenate([base, extra[:2]])
    assert hilbert_rank(spec, bigger, 2) < len(bigger)


# --- s-wise checks ----------------------------------------------------------


def test_s_wise_vacuous():
    res = s_wise_independent(F7, FOUR_PTS[:2], 3, 2)
    assert res.certified and res.mode == "vacuous"
    assert res.verdict == "independent"
    assert res.total == 0


def test_s_wise_exhaustive_witness():
    # on the line every 4-subset is 2-dependent; first combo wins
    spec = make_field(7, 1)
    points = projective_array(spec, 1)[:5]
    res = s_wise_independent(spec, points, 4, 2)
    assert res.mode == "exhaustive"
    assert not res.certified
    assert res.witness == (0, 1, 2, 3)
    assert res.checked == 1
    assert res.verdict == "dependent"


def test_s_wise_exhaustive_clean():
    spec = make_field(7, 1)
    points = projective_array(spec, 1)[:5]
    res = s_wise_independent(spec, points, 3, 2)
    assert res.certified
    assert res.checked == res.total == comb(5, 3)
    assert res.verdict == "independent"


def test_s_wise_budget_no_rng_raises():
    spec = make_field(7, 1)
    points = projective_array(spec, 1)[:6]
    with pytest.raises(BudgetExceeded):
        s_wise_independent(spec, points, 3, 2, budget=3)


# --- power form cross-check -------------------------------------------------


def test_power_rank_matches_hilbert_rank():
    # every 5-subset of the first nine points of the plane over F_7
    spec = make_field(7, 1)
    points = projective_array(spec, 2)[:9]
    for m in (2, 3):
        for sel in itertools.combinations(range(9), 5):
            sel = points[list(sel)]
            assert (rank(power_rows(spec, sel, m), spec)
                    == hilbert_rank(spec, sel, m))


def test_power_rows_are_column_scaled_evaluations():
    spec = make_field(7, 1)
    sel = pts((1, 0, 2), (0, 1, 3), (1, 1, 1))
    ev = evaluation_rows(spec, sel, 2).tolist()
    pw = power_rows(spec, sel, 2).tolist()
    ncols = len(ev[0])
    for j in range(ncols):
        ratio = None
        for i in range(len(sel)):
            if ev[i][j] == 0:
                assert pw[i][j] == 0
                continue
            r = spec.mul(pw[i][j], spec.inv(ev[i][j]))
            if ratio is None:
                ratio = r
            assert r == ratio


def test_power_rows_need_large_characteristic():
    spec = make_field(2, 1)
    with pytest.raises(ValueError):
        power_rows(spec, pts((1, 0), (0, 1)), 2)
    spec3 = make_field(3, 1)
    with pytest.raises(ValueError):
        power_rows(spec3, pts((1, 0), (0, 1)), 3)
    # char 3 > m = 2 is fine
    assert rank(power_rows(spec3, pts((1, 0), (0, 1)), 2), spec3) == 2


# --- strong witnesses -------------------------------------------------------


def test_strong_witness_on_minimal_set():
    w = strong_dependence_witness(F7, FOUR_PTS, 2)
    assert w is not None
    assert all(w)
    rows = evaluation_rows(F7, FOUR_PTS, 2)
    for j in range(len(rows[0])):
        acc = 0
        for i in range(len(rows)):
            acc = F7.add(acc, F7.mul(w[i], rows[i][j]))
        assert acc == 0


def test_strong_witness_none_for_independent():
    spec = make_field(5, 1)
    sel = pts((1, 0), (0, 1), (1, 1))
    assert strong_dependence_witness(spec, sel, 2) is None


def test_strong_witness_requires_spanning():
    spec = make_field(5, 1)
    sel = pts((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0))
    with pytest.raises(ValueError):
        strong_dependence_witness(spec, sel, 2)


def test_strong_witness_char2():
    # characteristic 2, all seven points of the plane, m = 2: the
    # evaluation matrix has 6 columns, kernel dimension 1
    spec = make_field(2, 1)
    sel = projective_array(spec, 2)
    rep = dependence_classify(spec, sel, 2)
    assert rep.dependent
    d = len(rep.kernel_basis)
    assert d >= 1
    if d <= 4:
        w = strong_dependence_witness(spec, sel, 2)
        if w is not None:
            rows = evaluation_rows(spec, sel, 2)
            assert all(w)
            for j in range(len(rows[0])):
                acc = 0
                for i in range(len(rows)):
                    acc = spec.add(acc, spec.mul(w[i], rows[i][j]))
                assert acc == 0


def test_strong_witness_matches_the_scalar_search():
    # every spanning 2- and 3-subset of P^1(F_5) at m = 2 (none has a
    # witness), and every dependent set of 4 or more points of P^1(F_4)
    # and P^1(F_5), whose kernels reach dimension 1 to 3
    found = 0
    for q, sizes in ((5, (2, 3, 4, 5, 6)), (4, (4, 5))):
        spec = field_for_order(q)
        line = projective_array(spec, 1)
        for size in sizes:
            for sub in itertools.combinations(range(len(line)), size):
                sel = line[list(sub)]
                if rank(sel, spec) < 2:
                    continue
                w = strong_dependence_witness(spec, sel, 2)
                ref = strong_witness_scalar(spec, sel, 2)
                if ref is None:
                    assert w is None
                else:
                    assert w.dtype == np.int64 and tuple(w.tolist()) == ref
                    found += 1
    assert found > 0


def test_strong_witness_kernel_cap():
    spec = make_field(3, 1)
    sel = projective_array(spec, 2)  # 13 points, m = 1: kernel dim 10
    with pytest.raises(BudgetExceeded):
        strong_dependence_witness(spec, sel, 1)  # above KERNEL_CAP = 4


# --- caps, bounds, conditions ----------------------------------------------


def test_m_cap_frozen():
    assert m_cap(1, 4) == 3
    assert m_cap(2, 6) == 2
    for k in range(1, 6):
        assert m_cap(k, 1) == 0
    assert m_cap(1, 10**10) == 10**10 - 1  # 10^10 steps of a linear search


def test_m_cap_definition():
    grid = [(k, T) for k in range(1, 5) for T in range(1, 60)]
    for k, T in grid + [(2, 10**12), (3, 10**9), (7, 10**30)]:
        m = m_cap(k, T)
        assert comb(m + k, k) >= T
        if m > 0:
            assert comb(m - 1 + k, k) < T


def test_m_cap_validation():
    with pytest.raises(ValueError):
        m_cap(0, 3)
    with pytest.raises(ValueError):
        m_cap(2, 0)


def test_phi_empty():
    for m in (1, 2, 3, 5):
        for t in range(2, m + 2):
            assert phi_upper_bound(t, 10, m).kind == "empty"


def test_phi_frozen_value():
    pb = phi_upper_bound(5, 10, 3)
    assert pb.kind == "bound"
    assert pb.value == Fraction(164, 7)


def test_phi_not_covered():
    assert phi_upper_bound(5, 10, 2).kind == "not_covered"   # m < 3
    assert phi_upper_bound(5, 4, 3).kind == "not_covered"    # t > b


def test_phi_validation():
    with pytest.raises(ValueError):
        phi_upper_bound(1, 10, 3)
    with pytest.raises(ValueError):
        phi_upper_bound(5, 0, 3)


def test_z_condition_frozen():
    rep = z_condition(10, 3, 5, 5)
    assert rep.verdict == "false"
    assert not rep.ok
    row = [r for r in rep.rows if r["t"] == 5][0]
    assert row["bound"] == Fraction(164, 7)
    assert row["required"] == Fraction(164, 28)
    ok = z_condition(10, 3, 6, 5)
    assert ok.verdict == "true" and ok.ok


def test_z_condition_empty_windows_satisfied():
    rep = z_condition(10, 3, 0, 4)  # every t in 2..4 is <= m+1
    assert rep.verdict == "true"
    assert all(r["kind"] == "empty" for r in rep.rows)


def test_z_condition_undetermined():
    rep = z_condition(10, 2, 100, 4)
    assert rep.verdict == "undetermined"
    assert rep.offending == [4]


# --- greedy independent sets ------------------------------------------------


def test_greedy_triangle():
    out = independent_set_third(3, [(0, 1), (1, 2), (0, 2)])
    assert out == [0]


def test_greedy_six_cycle():
    out = independent_set_third(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                                    (5, 0)])
    assert out == [0, 2, 4]


def test_greedy_disjoint_triangles():
    k = 5
    edges = []
    for i in range(k):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b), (b, c), (a, c)]
    out = independent_set_third(3 * k, edges)
    assert len(out) == k


def test_greedy_empty_graph():
    assert independent_set_third(4, []) == [0, 1, 2, 3]
    assert independent_set_third(0, []) == []


def test_greedy_random_graphs_meet_bound():
    rng = SeededRng(909)
    for _ in range(60):
        n = 3 + rng.randbelow(10)
        edges = set()
        target = rng.randbelow(n + 1)
        while len(edges) < target:
            u = rng.randbelow(n)
            v = rng.randbelow(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        out = independent_set_third(n, sorted(edges))
        assert len(out) >= -(-n // 3)
        chosen = set(out)
        for (u, v) in edges:
            assert not (u in chosen and v in chosen)


def test_greedy_validation():
    with pytest.raises(ValueError):
        independent_set_third(3, [(0, 0)])
    with pytest.raises(ValueError):
        independent_set_third(3, [(0, 5)])
    with pytest.raises(ValueError):
        independent_set_third(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


# --- disjoint span selection ------------------------------------------------


def _random_invertible(spec, n, rng, avoid_unit_rows=False):
    while True:
        mat = [[rng.randbelow(spec.order) for _ in range(n)] for _ in range(n)]
        if rank(mat, spec) != n:
            continue
        if avoid_unit_rows and any(
            sum(1 for c in row if c) < 2 for row in mat
        ):
            continue
        return [tuple(r) for r in mat]


def test_disjoint_span_standard_basis():
    spec = make_field(5, 1)
    rng = SeededRng(31337)
    n = 6
    std = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    for _ in range(25):
        other = _random_invertible(spec, n, rng, avoid_unit_rows=True)
        chosen = disjoint_span_subset(spec, std, other)
        assert len(chosen) >= -(-n // 3)
        idx = set(chosen)
        # span of chosen standard vectors is a coordinate subspace, so
        # avoiding it means keeping support outside the index set
        for u in other:
            assert any(c and (i not in idx) for i, c in enumerate(u))


def test_disjoint_span_random_pairs():
    spec = make_field(5, 1)
    rng = SeededRng(271828)
    for _ in range(15):
        n = 3 + rng.randbelow(5)
        a = _random_invertible(spec, n, rng)
        while True:
            b = _random_invertible(spec, n, rng)
            if not any(rank([u, v], spec) == 1 for u in b for v in a):
                break
        chosen = disjoint_span_subset(spec, a, b)
        assert len(chosen) >= -(-n // 3)
        sub = [list(a[i]) for i in chosen]
        for u in b:
            assert rank(sub + [list(u)], spec) == len(sub) + 1


def test_disjoint_span_rejects_shared_direction():
    spec = make_field(5, 1)
    a = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    b = [(2, 0, 0), (1, 1, 1), (1, 2, 3)]
    with pytest.raises(ValueError):
        disjoint_span_subset(spec, a, b)


def test_disjoint_span_rejects_singular():
    spec = make_field(5, 1)
    a = [(1, 0), (2, 0)]
    b = [(1, 1), (1, 2)]
    with pytest.raises(ValueError):
        disjoint_span_subset(spec, a, b)

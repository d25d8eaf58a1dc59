"""Projective enumeration, canonicalization, point ids, multiindex and
monomial tests."""
import itertools
import random
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstfree.gf import FieldSpec, make_field
from kstfree.projgeom import (
    CHUNK,
    ProjPoint,
    _level_links,
    monomial_eval,
    monomial_matrix,
    multiindex_table,
    parse_ids,
    point_ids,
    projective_array,
    projective_count,
)
from kstfree.util import BudgetExceeded
from references import (canonicalize, enumerate_multiindices,
                        enumerate_projective, point_from_str, point_to_str)


def oracle_projective_points(spec, b):
    """Independent enumeration: dedupe all nonzero vectors by scalar orbit."""
    q = spec.order
    seen = set()
    pts = []
    for raw in itertools.product(range(q), repeat=b + 1):
        if not any(raw):
            continue
        orbit = frozenset(
            tuple(spec.mul(c, x) for x in raw) for c in range(1, q)
        )
        if orbit in seen:
            continue
        seen.add(orbit)
        pts.append(canonicalize(spec, raw).coords)
    return sorted(pts)


@pytest.mark.parametrize("p,k,b", [(2, 1, 1), (3, 1, 2), (5, 1, 1), (2, 2, 1), (2, 2, 2)])
def test_enumeration_matches_orbit_oracle(p, k, b):
    spec = make_field(p, k)
    coords = list(map(tuple, projective_array(spec, b).tolist()))
    assert len(coords) == projective_count(spec.order, b)
    assert coords == sorted(coords)  # lexicographic canonical order
    assert len(set(coords)) == len(coords)
    assert sorted(coords) == oracle_projective_points(spec, b)


def test_enumeration_order_f2_line():
    spec = make_field(2)
    assert projective_array(spec, 1).tolist() == [[0, 1], [1, 0], [1, 1]]


def test_canonicalize_examples():
    f5 = make_field(5)
    assert canonicalize(f5, (2, 4)).coords == (1, 2)
    f7 = make_field(7)
    assert canonicalize(f7, (0, 3, 6)).coords == (0, 1, 2)
    with pytest.raises(ValueError):
        canonicalize(f5, (0, 0))


def test_canonicalize_scale_invariant():
    spec = make_field(3, 2)
    rng = random.Random(2)
    for _ in range(200):
        raw = [rng.randrange(spec.order) for _ in range(4)]
        if not any(raw):
            continue
        c = rng.randrange(1, spec.order)
        scaled = [spec.mul(c, x) for x in raw]
        assert canonicalize(spec, raw) == canonicalize(spec, scaled)
        pt = canonicalize(spec, raw)
        assert canonicalize(spec, pt.coords) == pt  # idempotent


def test_projpoint_rejects_non_canonical():
    f5 = make_field(5)
    with pytest.raises(ValueError):
        ProjPoint(f5, (2, 1))
    with pytest.raises(ValueError):
        ProjPoint(f5, (0, 0))


def test_multiindex_order_examples():
    assert enumerate_multiindices(1, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert enumerate_multiindices(2, 2) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]
    assert enumerate_multiindices(3, 0) == [(0, 0, 0, 0)]


@pytest.mark.parametrize("b,m", [(1, 5), (2, 3), (3, 4), (4, 2)])
def test_multiindex_count_and_degrees(b, m):
    mis = enumerate_multiindices(b, m)
    assert len(mis) == comb(b + m, m)
    assert len(set(mis)) == len(mis)
    assert all(sum(mi) == m and len(mi) == b + 1 for mi in mis)


def test_multiindices_are_a_fresh_list_each_call():
    first = enumerate_multiindices(2, 2)
    first.reverse()
    first.append((9, 9, 9))
    second = enumerate_multiindices(2, 2)
    assert second is not first
    assert second == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]


def reference_table(b, m):
    """Exponent rows from sorted multisets of m variables, in lex order."""
    rows = list(itertools.combinations_with_replacement(range(b + 1), m))
    multisets = np.array(rows, dtype=np.int64).reshape(len(rows), m)
    return (multisets[:, :, None] == np.arange(b + 1)).sum(axis=1)


@pytest.mark.parametrize("b,m", [(b, m) for b in range(8) for m in range(9)]
                         + [(7, 15)])
def test_multiindex_table_matches_sorted_multisets(b, m):
    table = multiindex_table(b, m)
    assert table.dtype == np.int64
    assert np.array_equal(table, reference_table(b, m))


def test_multiindex_table_is_read_only():
    table = multiindex_table(3, 2)
    with pytest.raises(ValueError):
        table[0, 0] = 5
    with pytest.raises(ValueError):
        table[:, 1] += 1
    assert multiindex_table(3, 2)[0].tolist() == [2, 0, 0, 0]


@pytest.mark.parametrize("b,d", [(0, 1), (0, 4), (1, 1), (3, 1), (2, 5),
                                 (4, 3), (6, 2)])
def test_level_links_step_up_one_degree(b, d):
    parent, var = _level_links(b, d)
    table, below = multiindex_table(b, d), multiindex_table(b, d - 1)
    step = np.eye(b + 1, dtype=np.int64)[var]
    assert np.array_equal(table, below[parent] + step)
    # var is each row's first positive exponent
    assert np.array_equal(var, (table > 0).argmax(axis=1))


def test_monomial_eval():
    f7 = make_field(7)
    pt = canonicalize(f7, (1, 3, 2))
    assert monomial_eval(pt, (2, 1, 0)) == 3
    assert monomial_eval(pt, (0, 0, 0)) == 1  # 0**0 convention never bites: all exps 0
    pt0 = canonicalize(f7, (0, 1, 4))
    assert monomial_eval(pt0, (0, 2, 1)) == 4
    assert monomial_eval(pt0, (1, 0, 2)) == 0


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2), (2, 5)])
def test_point_serialization_roundtrip(p, k):
    # every point of P^2 over the fields of order <= 9, of P^1 over GF(32)
    spec = make_field(p, k)
    b = 2 if spec.order <= 9 else 1
    pts = enumerate_projective(spec, b)
    rows = np.array([pt.coords for pt in pts], dtype=np.int64)
    ids = point_ids(spec, rows)
    assert ids == [point_to_str(pt) for pt in pts]
    back, n = parse_ids(spec, ids, b)
    assert n == len(ids) and back.tolist() == rows.tolist()
    zero, one = ",".join("0" * k), ",".join("1" + "0" * (k - 1))
    assert ids[0] == ":".join([zero] * b + [one])


def test_point_serialization_examples():
    f5 = make_field(5)
    assert point_ids(f5, np.array([[1, 2, 0]])) == ["1:2:0"]
    assert repr(canonicalize(f5, (2, 4, 0))) == "ProjPoint(1:2:0)"
    f4 = make_field(2, 2)
    # the second coordinate is the basis root x
    assert point_ids(f4, np.array([[1, 2]])) == ["1,0:0,1"]
    rows, n = parse_ids(f4, ["1,0:0,1"], 1)
    assert (rows.tolist(), n) == ([[1, 2]], 1)
    assert point_from_str(f4, "1,0:0,1") == canonicalize(f4, (1, 2))
    # an element's text is its one-coordinate id
    assert point_ids(f4, np.array([[0], [3]])) == ["0,0", "1,1"]


@pytest.mark.parametrize("k,text", [
    (1, "2:1"), (1, "0:3:0"), (2, "0,1:1,0"), (2, "1,0: 0,1"),
    (2, "1,0:0,01"),
])
def test_point_from_str_refuses_non_canonical_text(k, text):
    # parse_ids refuses each text in every space, as the reference does
    spec = make_field(5, k)
    with pytest.raises(ValueError):
        point_from_str(spec, text)
    for dim in range(3):
        rows, n = parse_ids(spec, [text], dim)
        assert (n, len(rows)) == (0, 0)


ID_FIELDS = [make_field(p, k) for p, k in
             [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2)]]
CANONICAL_IDS = {(spec, dim): [point_to_str(pt) for pt in
                               enumerate_projective(spec, dim)]
                 for spec in ID_FIELDS for dim in range(3)}
ID_CHARS = "0123456789,:-+ _x\u0663"


@st.composite
def mutated_ids(draw):
    """(spec, dim, text): a canonical id of P^dim with up to three
    characters inserted, deleted or replaced."""
    spec = draw(st.sampled_from(ID_FIELDS))
    dim = draw(st.integers(0, 2))
    text = draw(st.sampled_from(CANONICAL_IDS[spec, dim]))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        how = draw(st.sampled_from(["insert", "delete", "replace"]))
        ch = draw(st.sampled_from(ID_CHARS))
        cut = at + 1 if how != "insert" else at
        text = text[:at] + ("" if how == "delete" else ch) + text[cut:]
    return spec, draw(st.integers(max(0, dim - 1), dim + 1)), text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=mutated_ids())
def test_parse_ids_refuses_what_the_reference_refuses(case):
    spec, dim, text = case
    try:
        ref_ok = point_from_str(spec, text).dim == dim
    except ValueError:
        ref_ok = False
    rows, n = parse_ids(spec, [text], dim)
    assert n == int(ref_ok)
    if ref_ok:
        assert rows.tolist() == [list(point_from_str(spec, text).coords)]


def test_zero_set_invariant_under_rescaling():
    spec = make_field(7)
    rng = random.Random(4)
    mis = enumerate_multiindices(2, 3)
    for _ in range(100):
        raw = [rng.randrange(7) for _ in range(3)]
        if not any(raw):
            continue
        c = rng.randrange(1, 7)
        scaled = [spec.mul(c, x) for x in raw]
        a = canonicalize(spec, raw)
        bpt = canonicalize(spec, scaled)
        for beta in mis:
            assert (monomial_eval(a, beta) == 0) == (monomial_eval(bpt, beta) == 0)


@pytest.mark.parametrize("p,k,b,m", [(7, 1, 2, 3), (2, 2, 1, 2), (3, 2, 2, 2)])
def test_monomial_matrix_matches_scalar(p, k, b, m):
    spec = make_field(p, k)
    pts = enumerate_projective(spec, b)
    enc = np.array([pt.coords for pt in pts], dtype=np.int64)
    mis = enumerate_multiindices(b, m)
    mat = monomial_matrix(spec, enc, m)
    assert mat.shape == (len(pts), len(mis), spec.k)
    got = spec.enc_array(mat)
    rng = random.Random(0)
    for _ in range(200):
        i = rng.randrange(len(pts))
        j = rng.randrange(len(mis))
        assert got[i, j] == monomial_eval(pts[i], mis[j])


def random_points(spec, b, n, seed):
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        raw = [rng.randrange(spec.order) for _ in range(b + 1)]
        if any(raw):
            pts.append(canonicalize(spec, raw))
    return pts


def scalar_matrix(pts, mis):
    return [[monomial_eval(pt, beta) for beta in mis] for pt in pts]


@pytest.mark.parametrize("p,k", [(7, 1), (2, 2), (3, 2), (2, 16)])
def test_monomial_matrix_on_random_points_matches_scalar(p, k):
    spec = make_field(p, k)
    for b, m in [(1, 4), (2, 3), (4, 2), (3, 0)]:
        pts = random_points(spec, b, 40, 100 * p + k)
        mis = enumerate_multiindices(b, m)
        enc = np.array([pt.coords for pt in pts], dtype=np.int64)
        got = spec.enc_array(monomial_matrix(spec, enc, m))
        assert got.tolist() == scalar_matrix(pts, mis)


def test_monomial_matrix_blocks_stay_within_chunk():
    # GF(2^16) has 256 digit products per cell, so 4 cubic monomials on
    # P^1 allow 128 rows a block: 300 points take three blocks
    spec = make_field(2, 16)
    pts = random_points(spec, 1, 300, 5)
    mis = enumerate_multiindices(1, 3)
    enc = np.array([pt.coords for pt in pts], dtype=np.int64)
    real = FieldSpec.arr_mul
    outer = []

    def spy(self, a, b):
        outer.append(np.broadcast(a[..., :, None], b[..., None, :]).size)
        return real(self, a, b)

    with mock.patch.object(FieldSpec, "arr_mul", spy):
        got = spec.enc_array(monomial_matrix(spec, enc, 3))
    assert len(outer) == 3 * 3
    assert max(outer) <= CHUNK
    assert got.tolist() == scalar_matrix(pts, mis)


def test_projective_budget():
    # |P^4(F_43)| = 3,500,201 is past the default point budget, and the
    # count is refused before anything is allocated
    with pytest.raises(BudgetExceeded):
        projective_array(make_field(43), 4)

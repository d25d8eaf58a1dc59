"""Projective enumeration, canonicalization, multiindex and monomial tests."""
import itertools
import random
from math import comb

import numpy as np
import pytest

from kstfree.gf import make_field
from kstfree.projgeom import (
    ProjPoint,
    canonicalize,
    enumerate_multiindices,
    enumerate_projective,
    monomial_eval,
    monomial_matrix,
    point_from_str,
    point_to_str,
    projective_array,
    projective_count,
)
from kstfree.util import BudgetExceeded


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
    pts = enumerate_projective(spec, b)
    assert len(pts) == projective_count(spec.order, b)
    coords = [pt.coords for pt in pts]
    assert coords == sorted(coords)  # lexicographic canonical order
    assert len(set(coords)) == len(coords)
    assert sorted(coords) == oracle_projective_points(spec, b)


def test_enumeration_order_f2_line():
    spec = make_field(2)
    pts = enumerate_projective(spec, 1)
    assert [pt.coords for pt in pts] == [(0, 1), (1, 0), (1, 1)]


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


def test_multiindex_cap():
    with pytest.raises(BudgetExceeded):
        enumerate_multiindices(10, 10, cap=5)


def test_monomial_eval():
    f7 = make_field(7)
    pt = canonicalize(f7, (1, 3, 2))
    assert monomial_eval(pt, (2, 1, 0)) == 3
    assert monomial_eval(pt, (0, 0, 0)) == 1  # 0**0 convention never bites: all exps 0
    pt0 = canonicalize(f7, (0, 1, 4))
    assert monomial_eval(pt0, (0, 2, 1)) == 4
    assert monomial_eval(pt0, (1, 0, 2)) == 0


@pytest.mark.parametrize("p,k", [(5, 1), (2, 2)])
def test_point_serialization_roundtrip(p, k):
    spec = make_field(p, k)
    for pt in enumerate_projective(spec, 2):
        s = point_to_str(pt)
        assert point_from_str(spec, s) == pt
    if k == 1:
        assert point_to_str(enumerate_projective(spec, 2)[0]) == "0:0:1"
    else:
        # extension coordinates serialize their basis vectors
        assert "," in point_to_str(enumerate_projective(spec, 2)[-1]) or spec.k == 1


def test_point_serialization_examples():
    f5 = make_field(5)
    pt = canonicalize(f5, (1, 2, 0))
    assert point_to_str(pt) == "1:2:0"
    f4 = make_field(2, 2)
    pt = canonicalize(f4, (1, 2))  # second coord is the basis root x
    assert point_to_str(pt) == "1,0:0,1"
    assert point_from_str(f4, "1,0:0,1") == pt


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
    mat = monomial_matrix(spec, enc, mis)
    assert mat.shape == (len(pts), len(mis), spec.k)
    got = spec.enc_array(mat)
    rng = random.Random(0)
    for _ in range(200):
        i = rng.randrange(len(pts))
        j = rng.randrange(len(mis))
        assert got[i, j] == monomial_eval(pts[i], mis[j])


def test_projective_budget():
    spec = make_field(11)
    with pytest.raises(BudgetExceeded):
        projective_array(spec, 4, cap=100)

"""Seeded sampling determinism, uniformity frequencies, and evaluation algebra."""
import random

import numpy as np
import pytest

from kstfree.gf import make_field
from kstfree.polyrand import (
    BiHomPoly,
    HomPoly,
    SeededRng,
    eval_bihom_grid,
    eval_hom_many,
    evaluate,
    evaluate_bi,
    hom_from_json,
    hom_to_json,
    random_bihom,
    random_hom,
    specialize,
)
from kstfree.projgeom import canonicalize, enumerate_projective


def test_rng_determinism_and_vector_agreement():
    a = SeededRng(12345)
    b = SeededRng(12345)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]
    c = SeededRng(12345)
    scalar = [c.residue(7) for _ in range(50)]
    d = SeededRng(12345)
    assert d.residues(50, 7).tolist() == scalar
    # mixed consumption stays aligned
    e = SeededRng(99)
    first = [e.residue(5) for _ in range(3)]
    rest = e.residues(4, 5).tolist()
    f = SeededRng(99)
    assert f.residues(7, 5).tolist() == first + rest


def test_derive_depends_only_on_seed():
    a = SeededRng(7)
    a.next_u64()
    a.next_u64()
    b = SeededRng(7)
    assert a.derive(3).seed == b.derive(3).seed
    assert a.derive(3).seed != b.derive(4).seed
    assert a.derive(0).seed != SeededRng(8).derive(0).seed


def test_same_seed_same_polynomial():
    spec = make_field(11)
    f1 = random_hom(spec, 3, 3, SeededRng(42))
    f2 = random_hom(spec, 3, 3, SeededRng(42))
    f3 = random_hom(spec, 3, 3, SeededRng(43))
    assert f1 == f2
    assert f1 != f3
    g1 = random_bihom(spec, 2, 2, 2, 2, SeededRng(5))
    g2 = random_bihom(spec, 2, 2, 2, 2, SeededRng(5))
    assert g1 == g2


def test_hom_frequency_q2():
    # 4 polynomials of bidegree-free shape (b=1, m=1) over F_2; 10^4 draws;
    # binomial sd is sqrt(10^4 * (1/4)(3/4)) = 43.3, bound is 3 sigma
    spec = make_field(2)
    rng = SeededRng(2024)
    counts = {}
    for _ in range(10_000):
        f = random_hom(spec, 1, 1, rng)
        counts[f.coeffs] = counts.get(f.coeffs, 0) + 1
    assert len(counts) == 4
    for c in counts.values():
        assert abs(c - 2500) <= 130


def test_bihom_frequency_q2():
    spec = make_field(2)
    rng = SeededRng(77)
    counts = {}
    for _ in range(10_000):
        g = random_bihom(spec, 1, 1, 1, 1, rng)
        counts[g.coeffs] = counts.get(g.coeffs, 0) + 1
    assert len(counts) == 16
    for c in counts.values():
        assert abs(c - 625) <= 73


def test_seed_sweep_surjective_tiny():
    spec = make_field(2)
    seen = set()
    for seed in range(64):
        seen.add(random_hom(spec, 1, 1, SeededRng(seed)).coeffs)
    assert len(seen) == 4
    seen_bi = set()
    for seed in range(512):
        seen_bi.add(random_bihom(spec, 1, 1, 1, 1, SeededRng(seed)).coeffs)
    assert len(seen_bi) == 16


@pytest.mark.parametrize("p,k", [(5, 1), (2, 2)])
def test_specialize_commutes_with_evaluation(p, k):
    spec = make_field(p, k)
    pts1 = enumerate_projective(spec, 2)
    pts2 = enumerate_projective(spec, 2)
    rng = SeededRng(p * 1000 + k)
    pick = random.Random(31)
    for _ in range(1000):
        g = random_bihom(spec, 2, 2, 2, 1, rng)
        v = pick.choice(pts1)
        w = pick.choice(pts2)
        assert evaluate(specialize(g, v), w) == evaluate_bi(g, v, w)


def test_zero_and_unit_polynomials():
    spec = make_field(3)
    z = HomPoly(spec, 2, 2, (0,) * 6)
    assert z.is_zero
    pt = canonicalize(spec, (1, 2, 0))
    assert evaluate(z, pt) == 0
    const = HomPoly(spec, 2, 0, (2,))
    assert evaluate(const, pt) == 2


@pytest.mark.parametrize("p,k", [(7, 1), (2, 3)])
def test_bulk_eval_matches_scalar(p, k):
    spec = make_field(p, k)
    pts = enumerate_projective(spec, 2)
    enc = np.array([pt.coords for pt in pts], dtype=np.int64)
    rng = SeededRng(6)
    f2 = random_hom(spec, 2, 2, rng)
    f3 = random_hom(spec, 2, 3, rng)
    out = eval_hom_many([f2, f3], enc, chunk=7)
    for i, pt in enumerate(pts):
        assert out[i, 0] == evaluate(f2, pt)
        assert out[i, 1] == evaluate(f3, pt)


@pytest.mark.parametrize("p,k", [(5, 1), (2, 2)])
def test_bihom_grid_matches_scalar(p, k):
    spec = make_field(p, k)
    left = enumerate_projective(spec, 1)
    right = enumerate_projective(spec, 2)
    le = np.array([pt.coords for pt in left], dtype=np.int64)
    re = np.array([pt.coords for pt in right], dtype=np.int64)
    g = random_bihom(spec, 1, 2, 2, 2, SeededRng(17))
    grid = eval_bihom_grid(g, le, re)
    for i, v in enumerate(left):
        for j, w in enumerate(right):
            assert grid[i, j] == evaluate_bi(g, v, w)


def test_poly_serialization_roundtrip():
    spec = make_field(3, 2)
    rng = SeededRng(4)
    f = random_hom(spec, 2, 3, rng)
    assert hom_from_json(spec, hom_to_json(f)) == f
    z = HomPoly(spec, 1, 2, (0, 0, 0))
    doc = hom_to_json(z)
    assert doc["coeffs"] == []
    assert hom_from_json(spec, doc) == z


def test_coeff_count_validation():
    spec = make_field(5)
    with pytest.raises(ValueError):
        HomPoly(spec, 2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        BiHomPoly(spec, 1, 1, 1, 1, ((1, 2),))

"""Seeded sampling determinism, uniformity frequencies, and evaluation algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstfree.gf import make_field
from kstfree.polyrand import (
    BiHomPoly,
    HomPoly,
    SeededRng,
    eval_bihom_grid,
    eval_hom_many,
    evaluate,
    hom_to_json,
    random_bihom,
    random_hom,
)
from kstfree.variety import VarietySpec, extend_variety
from references import (canonicalize, elem_parse, enumerate_multiindices,
                        enumerate_projective, evaluate_bi)


def test_rng_determinism_and_vector_agreement():
    a = SeededRng(12345)
    b = SeededRng(12345)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]
    c = SeededRng(12345)
    scalar = [c.randbelow(7) for _ in range(50)]
    d = SeededRng(12345)
    assert d.residues(50, 7).tolist() == scalar
    # mixed consumption stays aligned
    e = SeededRng(99)
    first = [e.randbelow(5) for _ in range(3)]
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
    # forms compare by identity, so their coefficient arrays are compared
    assert f1 != f2
    assert np.array_equal(f1.coeffs, f2.coeffs)
    assert not np.array_equal(f1.coeffs, f3.coeffs)
    g1 = random_bihom(spec, 2, 2, 2, 2, SeededRng(5))
    g2 = random_bihom(spec, 2, 2, 2, 2, SeededRng(5))
    assert np.array_equal(g1.coeffs, g2.coeffs)


def test_hom_frequency_q2():
    # 4 polynomials of bidegree-free shape (b=1, m=1) over F_2; 10^4 draws;
    # binomial sd is sqrt(10^4 * (1/4)(3/4)) = 43.3, bound is 3 sigma
    spec = make_field(2)
    rng = SeededRng(2024)
    counts = {}
    for _ in range(10_000):
        f = random_hom(spec, 1, 1, rng)
        key = tuple(f.coeffs.tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 4
    for c in counts.values():
        assert abs(c - 2500) <= 130


def test_bihom_frequency_q2():
    spec = make_field(2)
    rng = SeededRng(77)
    counts = {}
    for _ in range(10_000):
        g = random_bihom(spec, 1, 1, 1, 1, rng)
        key = g.coeffs.tobytes()
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 16
    for c in counts.values():
        assert abs(c - 625) <= 73


def test_seed_sweep_surjective_tiny():
    spec = make_field(2)
    seen = set()
    for seed in range(64):
        seen.add(random_hom(spec, 1, 1, SeededRng(seed)).coeffs.tobytes())
    assert len(seen) == 4
    seen_bi = set()
    for seed in range(512):
        seen_bi.add(random_bihom(spec, 1, 1, 1, 1,
                                 SeededRng(seed)).coeffs.tobytes())
    assert len(seen_bi) == 16


def test_zero_and_unit_polynomials():
    spec = make_field(3)
    z = HomPoly(spec, 2, 2, (0,) * 6)
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
    out = eval_hom_many([f2, f3], enc)
    for i, pt in enumerate(pts):
        assert out[i, 0] == evaluate(f2, pt)
        assert out[i, 1] == evaluate(f3, pt)


EXTENSION_FIELDS = [(2, 2), (2, 3), (3, 2), (3, 3), (11, 2), (2, 10)]


@st.composite
def extension_eval_cases(draw):
    spec = make_field(*draw(st.sampled_from(EXTENSION_FIELDS)))
    b = draw(st.integers(1, 3))
    degrees = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    seed = draw(st.integers(0, 1 << 32))
    coord = st.one_of(st.just(0), st.integers(0, spec.order - 1))
    raw_points = draw(st.lists(st.lists(coord, min_size=b + 1,
                                        max_size=b + 1),
                               min_size=1, max_size=12))
    rng = SeededRng(seed)
    forms = [random_hom(spec, b, m, rng) for m in degrees]
    return spec, forms, raw_points


@settings(max_examples=80, deadline=None, derandomize=True)
@given(extension_eval_cases())
def test_extension_eval_matches_scalar(case):
    spec, forms, raw_points = case
    pts = []
    for raw in raw_points:
        if not any(raw):
            raw = [1] + list(raw[1:])
        pts.append(canonicalize(spec, raw))
    enc = np.array([pt.coords for pt in pts], dtype=np.int64)
    out = eval_hom_many(forms, enc)
    for j, f in enumerate(forms):
        for i, pt in enumerate(pts):
            assert out[i, j] == evaluate(f, pt)


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
    # the document lists each nonzero coefficient once, with its multiindex
    spec = make_field(3, 2)
    rng = SeededRng(4)
    f = random_hom(spec, 2, 3, rng)
    doc = hom_to_json(f)
    assert (doc["kind"], doc["b"], doc["m"]) == ("hom", 2, 3)
    listed = {tuple(beta): elem_parse(spec, c) for beta, c in doc["coeffs"]}
    assert len(listed) == len(doc["coeffs"])
    assert ([listed.get(beta, 0) for beta in enumerate_multiindices(2, 3)]
            == f.coeffs.tolist())
    assert hom_to_json(HomPoly(spec, 1, 2, (0, 0, 0)))["coeffs"] == []


def test_coeff_count_validation():
    spec = make_field(5)
    with pytest.raises(ValueError):
        HomPoly(spec, 2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        BiHomPoly(spec, 1, 1, 1, 1, ((1, 2),))


def test_coefficients_are_read_only_int64_arrays():
    spec = make_field(3)
    rng = SeededRng(8)
    f = random_hom(spec, 2, 2, rng)
    g = random_bihom(spec, 1, 2, 1, 2, rng)
    lifted = extend_variety(VarietySpec(spec, 2, (f,)), make_field(3, 2))
    cases = [(f, (6,)), (g, (2, 6)), (lifted.forms[0], (6,))]
    for form, shape in cases:
        c = form.coeffs
        assert isinstance(c, np.ndarray)
        assert (c.dtype, c.shape, c.flags.writeable) == (np.int64, shape, False)
        with pytest.raises(ValueError):
            c[0] = 1
    # a form holds its own copy of what it was given
    given = np.zeros(6, dtype=np.int64)
    h = HomPoly(spec, 2, 2, given)
    given[0] = 2
    assert h.coeffs[0] == 0

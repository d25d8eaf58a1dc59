"""Field arithmetic tests.

The expected modulus values are frozen from independent oracles written
before the implementation: brute-force irreducibility by root search for
degree 2 (a monic quadratic is reducible over GF(p) iff it has a root).
"""
import random

import numpy as np
import pytest

from kstfree.gf import (
    field_for_order,
    is_prime,
    make_field,
    smallest_irreducible,
)
from kstfree.util import floor_scaled_power, iroot
from fractions import Fraction


def oracle_smallest_irreducible_quadratic(p):
    """Enumerate all p^2 monic quadratics in low-degree-first lex order,
    reject those with a root.  Valid only for degree 2."""
    for c0 in range(p):
        for c1 in range(p):
            if all((x * x + c1 * x + c0) % p for x in range(p)):
                return (c0, c1, 1)
    raise AssertionError("no irreducible quadratic over GF(%d)" % p)


def test_modulus_gf9_matches_enumeration_oracle():
    assert oracle_smallest_irreducible_quadratic(3) == (1, 0, 1)  # x^2 + 1
    assert smallest_irreducible(3, 2) == (1, 0, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)


def test_modulus_gf4():
    # x^2 + x + 1 is the only monic irreducible quadratic over GF(2)
    assert oracle_smallest_irreducible_quadratic(2) == (1, 1, 1)
    assert make_field(2, 2).modulus == (1, 1, 1)


@pytest.mark.parametrize("p,k", [(2, 3), (2, 4), (3, 3), (5, 2), (7, 2), (11, 2)])
def test_modulus_is_irreducible_and_lex_minimal(p, k):
    from kstfree.gf import _is_irreducible, _monic_polys

    mod = make_field(p, k).modulus
    assert len(mod) == k + 1 and mod[-1] == 1
    assert _is_irreducible(mod, p)
    for cand in _monic_polys(p, k):
        if cand == mod:
            break
        assert not _is_irreducible(cand, p)


def test_prime_field_has_empty_modulus():
    assert make_field(7).modulus == ()
    assert make_field(7).k == 1


def test_mul_examples():
    f5 = make_field(5)
    assert f5.mul(3, 4) == 2
    f4 = make_field(2, 2)
    x = f4.encode((0, 1))
    x1 = f4.encode((1, 1))
    assert f4.mul(x, x1) == f4.one  # x * (x + 1) = x^2 + x = 1 mod x^2+x+1
    f7 = make_field(7)
    assert f7.inv(3) == 5


def all_prime_powers(limit):
    out = []
    for p in range(2, limit + 1):
        if not is_prime(p):
            continue
        q, k = p, 1
        while q <= limit:
            out.append((p, k, q))
            q *= p
            k += 1
    return sorted(out, key=lambda t: t[2])


@pytest.mark.parametrize("p,k,q", [t for t in all_prime_powers(27)])
def test_axioms_exhaustive_small(p, k, q):
    fs = make_field(p, k)
    els = list(fs.elements())
    for a in els:
        assert fs.add(a, 0) == a and fs.mul(a, 1) == a
        assert fs.add(a, fs.neg(a)) == 0
        if a:
            assert fs.mul(a, fs.inv(a)) == 1
        assert fs.pow(a, q) == a  # Frobenius fixes the whole field
    for a in els:
        for b in els:
            assert fs.add(a, b) == fs.add(b, a)
            assert fs.mul(a, b) == fs.mul(b, a)
    rng = random.Random(7)
    for _ in range(400):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert fs.add(fs.add(a, b), c) == fs.add(a, fs.add(b, c))
        assert fs.mul(fs.mul(a, b), c) == fs.mul(a, fs.mul(b, c))
        assert fs.mul(a, fs.add(b, c)) == fs.add(fs.mul(a, b), fs.mul(a, c))


def test_encode_decode_roundtrip():
    fs = make_field(3, 3)
    for e in fs.elements():
        assert fs.encode(fs.decode(e)) == e
    assert fs.decode(5) == (2, 1, 0)


@pytest.mark.parametrize("p,k", [(5, 1), (2, 3), (3, 2), (11, 2)])
def test_bulk_matches_scalar(p, k):
    fs = make_field(p, k)
    rng = random.Random(11)
    n = 200
    a = np.array([rng.randrange(fs.order) for _ in range(n)], dtype=np.int64)
    b = np.array([rng.randrange(fs.order) for _ in range(n)], dtype=np.int64)
    ca, cb = fs.dec_array(a), fs.dec_array(b)
    got_add = fs.enc_array(fs.arr_add(ca, cb))
    got_mul = fs.enc_array(fs.arr_mul(ca, cb))
    for i in range(n):
        assert got_add[i] == fs.add(int(a[i]), int(b[i]))
        assert got_mul[i] == fs.mul(int(a[i]), int(b[i]))
    got_pow = fs.enc_array(fs.arr_pow(ca, 5))
    for i in range(n):
        assert got_pow[i] == fs.pow(int(a[i]), 5)


@pytest.mark.parametrize("p,k", [(7, 1), (2, 2), (3, 2)])
def test_arr_dot_matches_scalar(p, k):
    fs = make_field(p, k)
    rng = random.Random(3)
    n, m, r = 4, 5, 3
    A = np.array([[rng.randrange(fs.order) for _ in range(m)] for _ in range(n)])
    B = np.array([[rng.randrange(fs.order) for _ in range(r)] for _ in range(m)])
    got = fs.enc_array(fs.arr_dot(fs.dec_array(A), fs.dec_array(B)))
    for i in range(n):
        for j in range(r):
            acc = 0
            for t in range(m):
                acc = fs.add(acc, fs.mul(int(A[i, t]), int(B[t, j])))
            assert got[i, j] == acc


@pytest.mark.parametrize("src,dst", [((3, 1), (3, 2)), ((2, 2), (2, 4)), ((5, 1), (5, 2))])
def test_embedding_is_a_field_homomorphism(src, dst):
    base = make_field(*src)
    ext = make_field(*dst)
    t = base.embed_table(ext)
    assert t[0] == 0 and t[1] == 1
    for a in base.elements():
        for b in base.elements():
            assert t[base.add(a, b)] == ext.add(int(t[a]), int(t[b]))
            assert t[base.mul(a, b)] == ext.mul(int(t[a]), int(t[b]))
    assert len(set(int(x) for x in t)) == base.order  # injective


def test_field_for_order():
    assert field_for_order(8) is make_field(2, 3)
    assert field_for_order(121) is make_field(11, 2)
    assert field_for_order(7) is make_field(7)
    with pytest.raises(ValueError):
        field_for_order(12)


def test_make_field_validation():
    with pytest.raises(ValueError):
        make_field(6)
    with pytest.raises(ValueError):
        make_field(2, 1, order_cap=1)


def test_iroot_and_scaled_power():
    assert iroot(0, 3) == 0
    assert iroot(26, 3) == 2
    assert iroot(27, 3) == 3
    for n in range(0, 500):
        r = iroot(n, 2)
        assert r * r <= n < (r + 1) * (r + 1)
    # floor((1/4) * 11**(3/2)) = floor(9.12...) = 9
    assert floor_scaled_power(Fraction(1, 4), 11, 3, 2) == 9
    assert floor_scaled_power(Fraction(1, 4), 8, 3, 2) == 5
    assert floor_scaled_power(Fraction(1, 4), 7, 2, 1) == 12
    assert floor_scaled_power(Fraction(1, 4), 11, 2, 1) == 30

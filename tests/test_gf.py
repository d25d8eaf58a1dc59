"""Field arithmetic tests.

The expected modulus values are frozen from independent oracles written
before the implementation: brute-force irreducibility by root search for
degree 2 (a monic quadratic is reducible over GF(p) iff it has a root).
"""
import random

import numpy as np
import pytest

import kstfree.gf
from kstfree.gf import (
    _MOD_BLOCK,
    _mod,
    _poly_mod,
    _unsigned,
    _zero_mask,
    field_for_order,
    is_prime,
    make_field,
    smallest_irreducible,
)
from kstfree.util import floor_scaled_power, iroot
from fractions import Fraction

from references import embed_table_scalar, floor_scaled_power_bisect


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
    els = range(q)
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
    for e in range(fs.order):
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


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (3, 3), (11, 2), (2, 10)])
def test_log_tables(p, k):
    fs = make_field(p, k)
    q = fs.order
    exp, log = fs.log_tables()
    assert exp.shape == log.shape == (q,)
    nonzero = np.arange(1, q)
    assert (exp[log[nonzero]] == nonzero).all()
    assert log[0] == q - 1 and exp[q - 1] == 0  # the zero sentinel
    # exp[1] is the smallest encoding of order q - 1, on the coordinate path
    if q <= 121:
        for a in range(1, int(exp[1]) + 1):
            x = fs.dec_array(np.int64(a))
            cur, order = x, 1
            while fs.enc_array(cur) != 1:
                cur, order = fs.arr_mul(cur, x), order + 1
            assert (order == q - 1) == (a == exp[1])


def oracle_mul(fs, x, y):
    """x * y without the field's table: convolve the digits, then reduce
    modulo the field's polynomial."""
    conv = [0] * (2 * fs.k - 1)
    for i, a in enumerate(fs.decode(x)):
        for j, b in enumerate(fs.decode(y)):
            conv[i + j] += a * b
    return fs.encode(_poly_mod(tuple(c % fs.p for c in conv), fs.modulus, fs.p))


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (3, 3), (11, 2),
                                 (2, 10), (2, 16)])
def test_products_match_convolution_oracle(p, k):
    # the log tables, arr_dot and the zero-set power matrices all read the
    # one multiplication table; this oracle does not
    fs = make_field(p, k)
    rng = random.Random(5)
    xs = np.array([rng.randrange(fs.order) for _ in range(300)])
    ys = np.array([rng.randrange(fs.order) for _ in range(300)])
    want = [oracle_mul(fs, int(x), int(y)) for x, y in zip(xs, ys)]
    cx, cy = fs.dec_array(xs), fs.dec_array(ys)
    assert fs.enc_array(fs.arr_mul(cx, cy)).tolist() == want
    by_matrix = (cy[:, None, :] @ fs.mul_matrix(cx))[:, 0, :] % p
    assert fs.enc_array(by_matrix).tolist() == want
    assert [fs.mul(int(x), int(y)) for x, y in zip(xs, ys)] == want


def scalar_dot(fs, A, B):
    """Row-by-column sums of scalar products of encodings."""
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = 0
            for t in range(A.shape[1]):
                acc = fs.add(acc, fs.mul(int(A[i, t]), int(B[t, j])))
            out[i, j] = acc
    return out


@pytest.mark.parametrize("p,k", [(7, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_arr_dot_matches_scalar(p, k):
    fs = make_field(p, k)
    rng = random.Random(3)
    n, m, r = 4, 5, 3
    A = np.array([[rng.randrange(fs.order) for _ in range(m)] for _ in range(n)])
    B = np.array([[rng.randrange(fs.order) for _ in range(r)] for _ in range(m)])
    got = fs.enc_array(fs.arr_dot(fs.dec_array(A), fs.dec_array(B)))
    assert (got == scalar_dot(fs, A, B)).all()


@pytest.mark.parametrize("p,k", [(5, 1), (2, 3), (3, 2)])
def test_arr_dot_batches_leading_axes(p, k):
    # acceptance.joint_uniformity_test: (N, ny, nx, k) transposed grids
    # times the (nx, s, k) transposed evaluation matrix
    fs = make_field(p, k)
    rng = random.Random(4)
    N, ny, nx, s = 3, 4, 6, 2
    A = np.array([rng.randrange(fs.order) for _ in range(N * ny * nx)])
    A = A.reshape(N, ny, nx)
    v = np.array([rng.randrange(fs.order) for _ in range(nx * s)]).reshape(nx, s)
    got = fs.enc_array(fs.arr_dot(fs.dec_array(A), fs.dec_array(v)))
    assert got.shape == (N, ny, s)
    for i in range(N):
        assert (got[i] == scalar_dot(fs, A[i], v)).all()


def test_arr_dot_refuses_inexact_sums(monkeypatch):
    p = next(n for n in range((1 << 26) + 1, 1 << 27) if is_prime(n))
    monkeypatch.setattr(kstfree.gf, "DEFAULT_ORDER_CAP", p)
    fs = make_field(p, 1)
    assert 2 * (p - 1) ** 2 + p > 1 << 53 >= (p - 1) ** 2 + p
    top = np.full((1, 2, 1), p - 1)
    with pytest.raises(ValueError, match="overflow"):
        fs.arr_dot(top, top.reshape(2, 1, 1))
    # (p-1)^2 = 1 mod p, and one such product is still exact
    assert fs.arr_dot(top[:, :1], top[:, :1]).tolist() == [[[1]]]


@pytest.mark.parametrize("p", [2, 3, 2897, 4093])
def test_float32_mod_matches_integer_mod_up_to_its_bound(p):
    # the float32 bound is 2^24 - p; check the 2^20 values just below it
    top = (1 << 24) - p
    t = np.arange(top - (1 << 20), top + 1, dtype=np.int64)
    got = _mod(t.astype(np.float32), p)
    assert got.dtype == np.float32
    assert (got.astype(np.int64) == t % p).all()


def _check_zero_mask(t, p, sums, width):
    # t's values as sums in the float dtype `sums`, as two digits whose
    # cell is zero only when both are, and as one digit
    digits = np.stack([t, t[::-1]])
    work = digits.astype(sums)
    assert (work == digits).all()
    out = np.empty(t.size, dtype=bool)
    got = _zero_mask(work, p, np.empty(work.shape, width), out)
    assert got is out
    assert (got == (digits % p == 0).all(axis=0)).all()
    one = _zero_mask(t[None].astype(sums), p, np.empty((1, t.size), width),
                     out)
    assert one is out
    assert (one == (t % p == 0)).all()


def test_zero_mask_is_exact_at_16_bits_for_every_prime_below_256():
    # every value a uint16 test can see, for every small prime
    t = np.arange(1 << 16, dtype=np.int64)
    assert _unsigned((1 << 16) - 1) is np.uint16
    for p in filter(is_prime, range(256)):
        _check_zero_mask(t, p, np.float32, np.uint16)


@pytest.mark.parametrize("p, dtype, top", [
    (2, np.float32, (1 << 24) - 2),
    (3, np.float32, (1 << 24) - 3),
    (2897, np.float32, (1 << 24) - 2897),
    (4093, np.float32, (1 << 24) - 4093),
    ((1 << 26) + 15, np.float64, (1 << 53) - (1 << 26) - 15),
])
def test_zero_mask_matches_integer_divisibility_up_to_its_bound(p, dtype, top):
    # the 2^20 values just below each float dtype's bound, in the width
    # that holds them: 32 bits for float32 sums, 64 for float64
    width = _unsigned(top)
    assert width is (np.uint32 if dtype is np.float32 else np.uint64)
    t = np.arange(top - (1 << 20), top + 1, dtype=np.int64)
    _check_zero_mask(t, p, dtype, width)


def test_blockwise_mod_matches_the_single_pass():
    # above _MOD_BLOCK cells a contiguous array is reduced block by block,
    # in place; a strided view keeps the single pass
    rng = np.random.default_rng(5)
    t = rng.integers(0, (1 << 24) - 7, size=(3, _MOD_BLOCK + 5))
    for view in (lambda a: a, lambda a: a.T):
        work = view(t.astype(np.float32))
        got = _mod(work, 7)
        assert got is work
        assert (got.astype(np.int64) == view(t) % 7).all()


def test_dtype_rule_keeps_every_benchmark_field_in_float32(monkeypatch):
    # degree-3 zero sets sum 4*k terms; arr_mul sums _mul_terms, and
    # eval_hom_many's arr_dot on P^4 sums one term per monomial
    for q in (7, 11, 23, 29, 31, 121):
        fs = field_for_order(q)
        for terms in (fs.k, 4 * fs.k, fs._mul_terms, 35 * fs.k):
            assert fs._dtype(terms, "test") is np.float32, (q, terms)
    fs = make_field(2, 16)
    for terms in (16, 4 * 16, fs._mul_terms):
        assert fs._dtype(terms, "test") is np.float32
    monkeypatch.setattr(kstfree.gf, "DEFAULT_ORDER_CAP", 1 << 27)
    fs = make_field((1 << 26) + 15, 1)
    assert fs._dtype(1, "test") is np.float64


@pytest.mark.parametrize("src,dst", [((3, 1), (3, 2)), ((2, 2), (2, 4)), ((5, 1), (5, 2))])
def test_embedding_is_a_field_homomorphism(src, dst):
    base = make_field(*src)
    ext = make_field(*dst)
    t = base.embed_table(ext)
    assert t[0] == 0 and t[1] == 1
    for a in range(base.order):
        for b in range(base.order):
            assert t[base.add(a, b)] == ext.add(int(t[a]), int(t[b]))
            assert t[base.mul(a, b)] == ext.mul(int(t[a]), int(t[b]))
    assert len(set(int(x) for x in t)) == base.order  # injective


@pytest.mark.parametrize("src,dst", [((2, 2), (2, 4)), ((2, 2), (2, 6)),
                                     ((2, 3), (2, 6)), ((2, 4), (2, 8)),
                                     ((3, 2), (3, 4)), ((5, 2), (5, 4)),
                                     ((3, 1), (3, 3))])
def test_embed_table_matches_the_scalar_search(src, dst):
    base, ext = make_field(*src), make_field(*dst)
    assert base.embed_table(ext).tolist() == \
        embed_table_scalar(base, ext).tolist()


def test_field_for_order(monkeypatch):
    assert field_for_order(8) is make_field(2, 3)
    assert field_for_order(121) is make_field(11, 2)
    assert field_for_order(7) is make_field(7)
    with pytest.raises(ValueError):
        field_for_order(12)
    # the cap is checked before the trial division, which would hang here
    with pytest.raises(ValueError, match="exceeds cap"):
        field_for_order((1 << 61) - 1)
    monkeypatch.setattr(kstfree.gf, "DEFAULT_ORDER_CAP", 127)
    with pytest.raises(ValueError, match="exceeds cap"):
        field_for_order(128)


def test_make_field_validation(monkeypatch):
    with pytest.raises(ValueError):
        make_field(6)
    monkeypatch.setattr(kstfree.gf, "DEFAULT_ORDER_CAP", 1)
    with pytest.raises(ValueError):
        make_field(2, 1)


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


def test_scaled_power_agrees_with_a_bisection():
    cs = {Fraction(n, d) for n in range(12) for d in range(1, 9)}
    for c in sorted(cs):
        for q in (1, 2, 3, 7, 8, 11, 64, 121, 1021):
            for num in range(6):
                for den in range(1, 5):
                    assert (floor_scaled_power(c, q, num, den)
                            == floor_scaled_power_bisect(c, q, num, den)), \
                        (c, q, num, den)
    for bad in ((Fraction(-1), 2, 1, 1), (Fraction(1), 0, 1, 1),
                (Fraction(1), 2, 1, 0), (Fraction(1), 2, -1, 1)):
        with pytest.raises(ValueError):
            floor_scaled_power(*bad)

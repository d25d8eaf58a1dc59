"""Exact arithmetic in GF(p) and GF(p^k).

Extension fields use the polynomial basis modulo the lexicographically
smallest monic irreducible polynomial of degree k (coefficients compared
low-degree first), so a field is pinned by (p, k) alone and every run
agrees on element encodings.  Elements are encoded as integers in
[0, p^k): the base-p digits of the encoding are the coefficients of the
basis polynomial, constant term first.

Two arithmetic paths exist and must agree bit for bit:

* scalar ops on encodings (extended Euclid inversion, square-and-multiply
  powers), optionally backed by lazily built add/mul tables for small
  orders; and
* bulk numpy ops on coordinate arrays of shape (..., k), used by the
  enumeration and evaluation kernels.

Tables are an optimization only; results are identical by construction.
"""
from __future__ import annotations

import numpy as np

DEFAULT_ORDER_CAP = 1 << 20
_TABLE_CAP = 2048  # build scalar add/mul tables when p^k is at most this

_FIELD_CACHE: dict = {}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# dense polynomial helpers over GF(p); coefficient tuples, constant term first


def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


def _poly_divmod(num, den, p):
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    qlen = max(len(num) - dd, 0)
    quot = [0] * qlen
    for i in reversed(range(qlen)):
        c = (num[i + dd] * inv_lead) % p
        if c:
            quot[i] = c
            for j, dj in enumerate(den):
                num[i + j] = (num[i + j] - c * dj) % p
    return tuple(quot), _poly_trim(tuple(num))


def _poly_mod(a, modulus, p):
    _, r = _poly_divmod(a, modulus, p)
    return r


def _monic_polys(p, deg):
    """All monic polynomials of exact degree deg, constant term varying fastest."""
    total = p**deg
    for idx in range(total):
        coeffs = []
        v = idx
        for _ in range(deg):
            coeffs.append(v % p)
            v //= p
        yield tuple(coeffs) + (1,)


def _is_irreducible(poly, p) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for div in _monic_polys(p, d):
            _, r = _poly_divmod(poly, div, p)
            if not r:
                return False
    return True


def smallest_irreducible(p: int, k: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree k over GF(p).

    Candidates are ordered by their coefficient tuple read constant term
    first, which is exactly the enumeration order of _monic_polys.
    """
    for cand in _monic_polys(p, k):
        if _is_irreducible(cand, p):
            return cand
    raise RuntimeError("no irreducible of degree %d over GF(%d)" % (k, p))


# ---------------------------------------------------------------------------


class FieldSpec:
    """A concrete finite field GF(p^k) with deterministic representation.

    Construct via make_field(); instances are cached per (p, k) so equal
    fields are identical objects.
    """

    __slots__ = (
        "p", "k", "order", "modulus",
        "_red", "_ppow", "_add_t", "_mul_t",
    )

    def __init__(self, p: int, k: int, modulus: tuple):
        self.p = p
        self.k = k
        self.order = p**k
        self.modulus = modulus  # () for k == 1
        self._ppow = np.array([p**i for i in range(k)], dtype=np.int64)
        if k > 1:
            # reduction rows: x^(k+i) mod modulus, i = 0..k-2
            rows = []
            cur = _poly_mod(tuple([0] * k + [1]), modulus, p)
            for _ in range(k - 1):
                rows.append(tuple(cur) + (0,) * (k - len(cur)))
                cur = _poly_mod(tuple((0,) + tuple(cur)), modulus, p)
            self._red = np.array(rows, dtype=np.int64)
        else:
            self._red = None
        self._add_t = None
        self._mul_t = None

    # -- identity ----------------------------------------------------------

    def __repr__(self):
        if self.k == 1:
            return "GF(%d)" % self.p
        return "GF(%d^%d)" % (self.p, self.k)

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    # -- encode / decode ----------------------------------------------------

    def encode(self, coords) -> int:
        e = 0
        for c in reversed(tuple(coords)):
            e = e * self.p + (c % self.p)
        return e

    def decode(self, e: int) -> tuple:
        out = []
        for _ in range(self.k):
            out.append(e % self.p)
            e //= self.p
        return tuple(out)

    def elements(self):
        return range(self.order)

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    # -- scalar arithmetic on encodings --------------------------------------

    def _tables(self):
        if self._mul_t is None:
            q, k = self.order, self.k
            enc = np.arange(q, dtype=np.int64)
            co = self.dec_array(enc)
            a = co[:, None, :]
            b = co[None, :, :]
            self._add_t = self.enc_array((a + b) % self.p).astype(np.int32)
            self._mul_t = self.enc_array(self.arr_mul(a, b)).astype(np.int32)
        return self._add_t, self._mul_t

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.order <= _TABLE_CAP:
            return int(self._tables()[0][a, b])
        return self.encode(
            (x + y) % self.p for x, y in zip(self.decode(a), self.decode(b))
        )

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return self.encode((-x) % self.p for x in self.decode(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        if self.order <= _TABLE_CAP:
            return int(self._tables()[1][a, b])
        prod = _poly_mul(_poly_trim(self.decode(a)), _poly_trim(self.decode(b)), self.p)
        red = _poly_mod(prod, self.modulus, self.p)
        return self.encode(red + (0,) * (self.k - len(red)))

    def inv(self, a: int) -> int:
        """Multiplicative inverse: Fermat for k=1, extended Euclid otherwise."""
        if a == 0:
            raise ZeroDivisionError("inversion of zero in %r" % self)
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        # extended Euclid on the polynomial basis
        p = self.p
        r0, r1 = self.modulus, _poly_trim(self.decode(a))
        s0, s1 = (), (1,)
        while r1:
            q, r = _poly_divmod(r0, r1, p)
            r0, r1 = r1, r
            qs = _poly_mul(q, s1, p)
            ln = max(len(s0), len(qs))
            s0, s1 = s1, _poly_trim(tuple(
                ((s0[i] if i < len(s0) else 0) - (qs[i] if i < len(qs) else 0)) % p
                for i in range(ln)
            ))
        # r0 is a nonzero constant gcd; scale s0 by its inverse
        c = pow(r0[0], p - 2, p)
        res = tuple((c * x) % p for x in s0)
        return self.encode(res + (0,) * (self.k - len(res)))

    def pow(self, a: int, e: int) -> int:
        """Square-and-multiply; negative exponents go through inv."""
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.k == 1:
            return pow(a, e, self.p)
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # -- bulk numpy arithmetic on coordinate arrays (..., k) -----------------

    def dec_array(self, enc: np.ndarray) -> np.ndarray:
        enc = np.asarray(enc, dtype=np.int64)
        out = np.empty(enc.shape + (self.k,), dtype=np.int64)
        v = enc
        for i in range(self.k):
            out[..., i] = v % self.p
            v = v // self.p
        return out

    def enc_array(self, coords: np.ndarray) -> np.ndarray:
        return np.asarray(coords, dtype=np.int64) @ self._ppow

    def arr_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self.p

    def arr_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.k == 1:
            return (a * b) % self.p
        k = self.k
        shape = np.broadcast_shapes(a.shape, b.shape)
        prod = np.zeros(shape[:-1] + (2 * k - 1,), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                prod[..., i + j] += a[..., i] * b[..., j]
        out = prod[..., :k]
        for i in range(k - 1):
            out = out + prod[..., k + i, None] * self._red[i]
        return out % self.p

    def arr_pow(self, a: np.ndarray, e: int) -> np.ndarray:
        if e < 0:
            raise ValueError("bulk pow wants e >= 0")
        ones = np.zeros(a.shape, dtype=np.int64)
        ones[..., 0] = 1
        result, base = ones, a
        while e:
            if e & 1:
                result = self.arr_mul(result, base)
            base = self.arr_mul(base, base)
            e >>= 1
        return result

    def arr_dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product over the field: (N, M, k) x (M, R, k) -> (N, R, k).

        Inner sums stay below 2^62 for desk-scale M and p, checked here.
        """
        m = a.shape[-2]
        if m * self.p**3 * self.k >= (1 << 60):
            raise ValueError("arr_dot inner dimension too large for int64")
        if self.k == 1:
            return (a[..., 0] @ b[..., 0] % self.p)[..., None]
        k = self.k
        pieces = []
        for t in range(2 * k - 1):
            acc = None
            for i in range(max(0, t - k + 1), min(k, t + 1)):
                term = a[..., i] @ b[..., t - i]
                acc = term if acc is None else acc + term
            pieces.append(acc)
        out = np.stack(pieces[:k], axis=-1)
        for i in range(k - 1):
            out = out + pieces[k + i][..., None] * self._red[i]
        return out % self.p

    # -- embeddings -----------------------------------------------------------

    def embed_table(self, ext: "FieldSpec") -> np.ndarray:
        """Encoding table for the unique-up-to-conjugacy embedding into ext.

        Deterministic choice: the image of the basis root is the root of this
        field's modulus with the smallest encoding in ext.  For k == 1 the
        embedding is the constant one.
        """
        if ext.p != self.p or ext.k % self.k != 0:
            raise ValueError("no embedding of %r into %r" % (self, ext))
        if self.k == 1:
            return np.arange(self.p, dtype=np.int64)
        root = None
        for cand in range(ext.order):
            acc = 0
            for c in reversed(self.modulus):
                acc = ext.add(ext.mul(acc, cand), c % ext.p)
            if acc == 0:
                root = cand
                break
        if root is None:
            raise RuntimeError("modulus has no root in %r" % ext)
        table = np.zeros(self.order, dtype=np.int64)
        powers = [1]
        for _ in range(self.k - 1):
            powers.append(ext.mul(powers[-1], root))
        for e in range(self.order):
            acc = 0
            for c, z in zip(self.decode(e), powers):
                acc = ext.add(acc, ext.mul(c, z))
            table[e] = acc
        return table


def elem_str(spec: FieldSpec, enc: int) -> str:
    """Residue for prime fields, comma-joined basis vector otherwise."""
    if spec.k == 1:
        return str(enc)
    return ",".join(str(d) for d in spec.decode(enc))


def elem_parse(spec: FieldSpec, s: str) -> int:
    if spec.k == 1:
        v = int(s)
    else:
        digits = [int(d) for d in s.split(",")]
        if len(digits) != spec.k or any(not 0 <= d < spec.p for d in digits):
            raise ValueError("bad element %r for %r" % (s, spec))
        v = spec.encode(digits)
    if not 0 <= v < spec.order:
        raise ValueError("element %r out of range for %r" % (s, spec))
    return v


def make_field(p: int, k: int = 1, order_cap: int = DEFAULT_ORDER_CAP) -> FieldSpec:
    """Construct (or fetch) GF(p^k) with the deterministic modulus choice."""
    if not is_prime(p):
        raise ValueError("p = %r is not prime" % (p,))
    if k < 1:
        raise ValueError("k must be >= 1")
    if p**k > order_cap:
        raise ValueError("field order %d exceeds cap %d" % (p**k, order_cap))
    key = (p, k)
    spec = _FIELD_CACHE.get(key)
    if spec is None:
        modulus = smallest_irreducible(p, k) if k > 1 else ()
        spec = FieldSpec(p, k, modulus)
        _FIELD_CACHE[key] = spec
    return spec


def field_for_order(q: int, order_cap: int = DEFAULT_ORDER_CAP) -> FieldSpec:
    """GF(q) for a prime power q, factoring q deterministically."""
    if q < 2:
        raise ValueError("order must be >= 2")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    k = 0
    v = q
    while v % p == 0:
        v //= p
        k += 1
    if v != 1:
        raise ValueError("%d is not a prime power" % q)
    return make_field(p, k, order_cap)

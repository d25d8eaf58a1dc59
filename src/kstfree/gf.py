"""Exact arithmetic in GF(p) and GF(p^k).

Extension fields use the polynomial basis modulo the lexicographically
smallest monic irreducible polynomial of degree k (coefficients compared
low-degree first), so a field is pinned by (p, k) alone and every run
agrees on element encodings.  Elements are encoded as integers in
[0, p^k): the base-p digits of the encoding are the coefficients of the
basis polynomial, constant term first.

Two arithmetic paths exist and must agree bit for bit:

* bulk numpy ops on coordinate arrays of shape (..., k), which define
  multiplication by the regular representation: M_x, the k x k GF(p)
  matrix of y -> y*x (`mul_matrix`), read off one table of the digits of
  t^(i+j), t the basis root.  Every bulk product, zero sets included,
  reads that table in floats, in the dtype that one rule
  (`FieldSpec._dtype`) gives for the width of its sums: float32 while
  they stay within 2^24, float64 within 2^53, refused beyond.  Sums
  whose remainders are used are reduced by an exact `_mod`; where a zero
  set only asks which sums are 0, `_zero_mask` tests them by one exact
  unsigned divisibility check, in the narrowest of 16, 32 and 64 bits
  that holds them (`_unsigned`).
  The zero sets' power matrix over the whole field is built once per
  exponent count and held read-only (`FieldSpec.power_matrix`); and
* scalar ops on encodings through two O(q) tables per extension field,
  built lazily from the bulk path: antilogs and logs over the primitive
  element with the smallest encoding.  Scalar mul/inv/pow read them,
  and so do `embed_table` (the subfield's nonzero elements are powers
  of the primitive element) and `variety._frobenius_orbits` (x -> x^q
  is multiplication of logs by q); prime fields use plain residues.

The log tables change no encoding: every value they give is the one the
bulk path gives.
"""
from __future__ import annotations

import numpy as np

DEFAULT_ORDER_CAP = 1 << 20

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


_MOD_BLOCK = 1 << 15  # cells per block of one `_mod` pass over a large array


def _mod(t: np.ndarray, p: int) -> np.ndarray:
    """t % p, in place, for integers 0 <= t <= 2^P - p held in floats of
    P-bit significand: float32 (P = 24) or float64 (P = 53).

    With t = u*p + r and 0 < r < p, t / p lies 1/p or more below u + 1,
    and (u + 1) * p <= t + p - 1 < 2^P keeps its rounding error below
    (u + 1) / 2^P < 1/p, so the floor of the rounded quotient is the exact
    u (r = 0 divides exactly).  numpy's float % takes several times longer.
    A contiguous t of more than _MOD_BLOCK cells is reduced block by block
    through one scratch block, which stays in cache where a full-size
    quotient would not.
    """
    if t.size <= _MOD_BLOCK or not t.flags.c_contiguous:
        r = t / p
        np.floor(r, out=r)
        r *= p
        t -= r
        return t
    flat = t.reshape(-1)
    scratch = np.empty(_MOD_BLOCK, dtype=t.dtype)
    for i in range(0, flat.size, _MOD_BLOCK):
        block = flat[i:i + _MOD_BLOCK]
        r = scratch[:block.size]
        np.divide(block, p, out=r)
        np.floor(r, out=r)
        r *= p
        block -= r
    return t


_UNSIGNED = ((16, np.uint16), (32, np.uint32), (64, np.uint64))


def _unsigned(top: int):
    """The narrowest of uint16, uint32 and uint64 that holds 0..top, for
    top <= 2^53 (`FieldSpec._dtype`): the width of `_zero_mask`'s test on
    sums of at most top."""
    return next(dt for w, dt in _UNSIGNED if top >> w == 0)


def _zero_mask(t: np.ndarray, p: int, work: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """out = (t % p == 0).all(axis=0), for t (k, ...) of integers
    0 <= t < 2^w held exactly (floats or integers), w the width of the
    unsigned buffer work of t's shape (`_unsigned`), which is overwritten.

    The test is exact divisibility by one wrapping product (Granlund and
    Montgomery, 1994).  For odd p, c = p^-1 mod 2^w, and v -> v*c mod 2^w
    is a bijection of Z/2^w that sends each multiple p*j of 0..2^w-1 to j,
    so to 0..lim, lim = floor((2^w-1)/p).  Those lim + 1 multiples fill
    0..lim, so no other v lands there, and p | v iff v*c mod 2^w <= lim.
    For p = 2, c = 2^(w-1) sends v to 0 when v is even and to 2^(w-1)
    when it is odd, and lim = 0.  Every digit is at most lim exactly when
    the largest is, so the digits' images are folded by max into the
    first and compared once, straight into out.
    """
    w = 8 * work.itemsize
    c, lim = (1 << (w - 1), 0) if p == 2 else (pow(p, -1, 1 << w),
                                                ((1 << w) - 1) // p)
    work[...] = t
    work *= c
    for d in range(1, len(work)):
        np.maximum(work[0], work[d], out=work[0])
    return np.less_equal(work[0], lim, out=out)


def _power_matrix(spec: "FieldSpec", a: int, xs: np.ndarray) -> np.ndarray:
    """(a*k, k*len(xs)) matrix of c_0..c_{a-1} -> sum_e c_e x^e at xs.

    Each x acts on coordinates as `FieldSpec.mul_matrix` M_x, and
    M_{x^e} = M_{x^(e-1)} M_x.  Rows are (exponent, input digit), columns
    (output digit, point), so a product puts its digits just before the
    new point axis, beside the exponent axis that is contracted next.
    The matrix feeds a*k-term sums, and comes in their dtype.
    """
    k, p = spec.k, spec.p
    dt = spec._dtype(a * k, "zero set")
    mx = spec.mul_matrix(spec.dec_array(xs)).astype(dt, copy=False)
    by = [np.broadcast_to(np.eye(k, dtype=dt), mx.shape)]
    for _ in range(1, a):
        by.append(_mod(by[-1] @ mx, p))
    by = np.stack(by).transpose(0, 2, 3, 1)  # (e, j, l, x)
    return by.reshape(a * k, k * len(xs))


class FieldSpec:
    """A concrete finite field GF(p^k) with deterministic representation.

    Construct via make_field(); instances are cached per (p, k) so equal
    fields are identical objects.
    """

    __slots__ = (
        "p", "k", "order", "modulus",
        "_table", "_mul_terms", "_exp", "_log", "_powers",
    )

    def __init__(self, p: int, k: int, modulus: tuple):
        self.p = p
        self.k = k
        self.order = p**k
        self.modulus = modulus  # () for k == 1
        # row k*i + j holds the digits of t^(i+j), t the basis root
        pows = [(1,) + (0,) * (k - 1)]
        for _ in range(2 * k - 2):
            nxt = _poly_mod((0,) + pows[-1], modulus, p)
            pows.append(nxt + (0,) * (k - len(nxt)))
        self._table = np.array([pows[i + j] for i in range(k) for j in range(k)],
                               dtype=np.float64)
        # arr_mul's widest sum, in digit products of at most (p-1)^2
        self._mul_terms = int(self._table.sum(axis=0).max())
        self._exp = self._log = None
        self._powers = {}  # a -> power_matrix(a)

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

    @property
    def one(self) -> int:
        return 1

    # -- scalar arithmetic on encodings --------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        p, out, place = self.p, 0, 1
        while a or b:
            out += (a % p + b % p) % p * place
            a //= p
            b //= p
            place *= p
        return out

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return self.encode((-x) % self.p for x in self.decode(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        exp, log = self.log_tables()
        return int(exp[(int(log[a]) + int(log[b])) % (self.order - 1)])

    def inv(self, a: int) -> int:
        """Multiplicative inverse: Fermat for k=1, antilog of -log(a) otherwise."""
        if a == 0:
            raise ZeroDivisionError("inversion of zero in %r" % self)
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        exp, log = self.log_tables()
        return int(exp[-int(log[a]) % (self.order - 1)])

    def pow(self, a: int, e: int) -> int:
        """a^e with 0^0 == 1; negative exponents go through inv."""
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.k == 1:
            return pow(a, e, self.p)
        if a == 0:
            return 1 if e == 0 else 0
        exp, log = self.log_tables()
        return int(exp[int(log[a]) * e % (self.order - 1)])

    # -- log/antilog tables for k > 1 ------------------------------------------

    def _primitive(self) -> int:
        """The smallest encoding of multiplicative order q - 1.

        Candidates are tested in blocks on the bulk path: a has full
        order iff a^((q-1)/r) != 1 for every prime r dividing q - 1.
        """
        n = self.order - 1
        primes, v, r = [], n, 2
        while r * r <= v:
            if v % r == 0:
                primes.append(r)
                while v % r == 0:
                    v //= r
            r += 1
        if v > 1:
            primes.append(v)
        for start in range(1, self.order, 16):
            cand = np.arange(start, min(start + 16, self.order), dtype=np.int64)
            co = self.dec_array(cand)
            full = np.ones(len(cand), dtype=bool)
            for r in primes:
                full &= self.enc_array(self.arr_pow(co, n // r)) != 1
            if full.any():
                return int(cand[np.argmax(full)])
        raise RuntimeError("%r has no primitive element" % self)

    def log_tables(self):
        """(exp, log) for k > 1, built once from the multiplication table.

        With g the primitive element of smallest encoding and q the order:
        exp[i] = g^i for i < q-1 and exp[q-1] = 0; log inverts exp, so
        log[0] = q-1 is the zero sentinel and exp[log[a]] == a for every a.
        The scalar mul, inv and pow read them, and so do `embed_table` and
        `variety._frobenius_orbits`.
        """
        if self.k == 1:
            raise ValueError("log tables are for extension fields")
        if self._exp is None:
            q, k = self.order, self.k
            step = self.dec_array(np.int64(self._primitive()))
            # pw holds g^0 .. g^(n-1) and step is g^n; each round doubles n
            # with one product by M_step, whose rows are t^j * step.
            pw = np.eye(k, dtype=self._dtype(k, "log_tables"))[:1]
            while len(pw) < q - 1:
                pw = np.concatenate([pw, _mod(pw @ self.mul_matrix(step), self.p)])
                step = self.arr_mul(step, step)
            pw = np.concatenate([pw[:q - 1], np.zeros((1, k))])
            exp = self.enc_array(pw)
            log = np.empty(q, dtype=np.int64)
            log[exp] = np.arange(q, dtype=np.int64)
            self._exp, self._log = exp, log
        return self._exp, self._log

    def power_matrix(self, a: int) -> np.ndarray:
        """`_power_matrix` at every element of the field, in encoding
        order: (a*k, k*q), built once per a and read-only.

        Zero sets read it (`variety`): the walk contracts chart tensors
        against it and gathers its columns at the x_1 values it walks, and
        the side cut gathers them at the points it reads.
        """
        pm = self._powers.get(a)
        if pm is None:
            pm = _power_matrix(self, a, np.arange(self.order))
            pm.flags.writeable = False
            self._powers[a] = pm
        return pm

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
        """sum_i coords[..., i] p^i, by Horner's rule over the digit axis."""
        coords = np.asarray(coords, dtype=np.int64)
        out = coords[..., -1].copy()
        for i in range(self.k - 2, -1, -1):
            out *= self.p
            out += coords[..., i]
        return out

    def arr_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self.p

    def _dtype(self, terms, what: str):
        """The float dtype for sums of `terms` digit products, each at most
        (p-1)^2: the narrowest one whose `_mod` stays exact on them, float32
        while terms*(p-1)^2 + p <= 2^24 and float64 while it is <= 2^53.
        Wider sums are refused (ValueError)."""
        top = terms * (self.p - 1) ** 2 + self.p
        if top <= 1 << 24:
            return np.float32
        if top <= 1 << 53:
            return np.float64
        raise ValueError("%s: %d-term sums overflow float64 in %r"
                         % (what, terms, self))

    def mul_matrix(self, x: np.ndarray) -> np.ndarray:
        """M_x for coordinate arrays x (..., k): floats (..., k, k), in the
        dtype of k-term sums.

        Multiplying by x is GF(p)-linear on coordinates; row j of M_x holds
        the digits of t^j * x, so y @ M_x (mod p) is y * x.
        """
        k = self.k
        dt = self._dtype(k, "mul_matrix")
        x = np.asarray(x, dtype=dt)
        table = self._table.reshape(k, k * k).astype(dt, copy=False)
        out = _mod(x @ table, self.p)
        return out.reshape(x.shape[:-1] + (k, k))

    def arr_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a * b over broadcast leading axes: a times M_b, as one product of
        the digit products a_i b_j with the table rows t^(i+j)."""
        k = self.k
        dt = self._dtype(self._mul_terms, "arr_mul")
        ab = np.multiply(a[..., :, None], b[..., None, :], dtype=dt)
        ab = ab.reshape(ab.shape[:-2] + (k * k,))
        table = self._table.astype(dt, copy=False)
        return _mod(ab @ table, self.p).astype(np.int64)

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
        """Matrix product over the field: (..., M, k) x (M, R, k) -> (..., R, k).

        One matmul of a's digits against the (M*k, R*k) matrix of blocks
        M_{b[m, r]}, in the dtype of M*k-term sums: float32 while
        M*k*(p-1)^2 + p <= 2^24, float64 while it is <= 2^53, else
        ValueError.
        """
        m, r, k = b.shape
        dt = self._dtype(m * k, "arr_dot")
        blocks = self.mul_matrix(b).astype(dt, copy=False)
        blocks = blocks.transpose(0, 2, 1, 3).reshape(m * k, r * k)
        lead = a.shape[:-2]
        out = _mod(a.reshape(lead + (m * k,)).astype(dt) @ blocks, self.p)
        return out.reshape(lead + (r, k)).astype(np.int64)

    # -- embeddings -----------------------------------------------------------

    def embed_table(self, ext: "FieldSpec") -> np.ndarray:
        """Encoding table for the unique-up-to-conjugacy embedding into ext.

        Deterministic choice: the image of the basis root is the root of this
        field's modulus with the smallest encoding in ext.  For k == 1 the
        embedding is the constant one.  The roots lie in the subfield of
        order q = p^k, whose nonzero elements are g^(j (Q-1)/(q-1)) for g
        ext's primitive element and Q its order, so only those q - 1
        candidates are evaluated, at once, by Horner's rule on the bulk
        path.  The embedding is GF(p)-linear, so the table is each element's
        digits times the digits of the root's powers.
        """
        if ext.p != self.p or ext.k % self.k != 0:
            raise ValueError("no embedding of %r into %r" % (self, ext))
        if self.k == 1:
            return np.arange(self.p, dtype=np.int64)
        exp, _ = ext.log_tables()
        cand = ext.dec_array(exp[:-1:(ext.order - 1) // (self.order - 1)])
        acc = np.zeros_like(cand)
        for c in reversed(self.modulus):
            acc = ext.arr_mul(acc, cand)
            acc[:, 0] = (acc[:, 0] + c) % self.p
        root = ext.dec_array(ext.enc_array(cand[~acc.any(axis=1)]).min())
        powers = [ext.dec_array(np.int64(1))]
        for _ in range(self.k - 1):
            powers.append(ext.arr_mul(powers[-1], root))
        digits = self.dec_array(np.arange(self.order, dtype=np.int64))
        return ext.enc_array(digits @ np.stack(powers) % self.p)


def make_field(p: int, k: int = 1) -> FieldSpec:
    """Construct (or fetch) GF(p^k) with the deterministic modulus choice;
    its order must be at most DEFAULT_ORDER_CAP."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # the cap goes first: p^k >= 2^k, and is_prime divides up to sqrt(p)
    cap = DEFAULT_ORDER_CAP
    if k >= cap.bit_length() or p**k > cap:
        raise ValueError("field order %d^%d exceeds cap %d" % (p, k, cap))
    if not is_prime(p):
        raise ValueError("p = %r is not prime" % (p,))
    key = (p, k)
    spec = _FIELD_CACHE.get(key)
    if spec is None:
        modulus = smallest_irreducible(p, k) if k > 1 else ()
        spec = FieldSpec(p, k, modulus)
        _FIELD_CACHE[key] = spec
    return spec


def field_for_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q, factoring q deterministically."""
    if q < 2:
        raise ValueError("order must be >= 2")
    # the cap goes first: the trial division below runs up to sqrt(q)
    if q > DEFAULT_ORDER_CAP:
        raise ValueError("field order %d exceeds cap %d"
                         % (q, DEFAULT_ORDER_CAP))
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
    return make_field(p, k)

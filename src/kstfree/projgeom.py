"""Projective spaces over finite fields: canonical points and monomials.

Canonical representatives scale the first nonzero coordinate to 1.  The
enumeration order is lexicographic on the canonical coordinate vector,
coordinates compared by their integer encodings; every downstream notion
of "first points" or "initial segment" refers to this order.  Degree-m
multiindices are listed in graded-lex order with the first exponent
descending, and every coefficient vector in the package is aligned to
that listing.
"""
from __future__ import annotations

from math import comb

import numpy as np

from .gf import FieldSpec, elem_parse, elem_str
from .util import DEFAULT_POINT_BUDGET, BudgetExceeded


class ProjPoint:
    """Canonical projective point; coords are integer encodings."""

    __slots__ = ("spec", "coords")

    def __init__(self, spec: FieldSpec, coords):
        self.spec = spec
        self.coords = tuple(int(c) for c in coords)
        if not any(self.coords):
            raise ValueError("the zero vector is not projective")
        lead = next(c for c in self.coords if c != 0)
        if lead != spec.one:
            raise ValueError("coords are not canonical; use canonicalize()")

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def __eq__(self, other):
        return (
            isinstance(other, ProjPoint)
            and other.spec == self.spec
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash((self.spec.p, self.spec.k, self.coords))

    def __lt__(self, other):
        return self.coords < other.coords

    def __repr__(self):
        return "ProjPoint(%s)" % point_to_str(self)


def canonicalize(spec: FieldSpec, raw) -> ProjPoint:
    """Scale a nonzero coordinate vector so its first nonzero entry is 1."""
    raw = [int(c) for c in raw]
    lead = next((c for c in raw if c != 0), None)
    if lead is None:
        raise ValueError("cannot canonicalize the zero vector")
    inv = spec.inv(lead)
    return ProjPoint(spec, [spec.mul(inv, c) for c in raw])


def projective_count(q: int, b: int) -> int:
    """|P^b(F_q)| = (q^(b+1) - 1) / (q - 1)."""
    return (q ** (b + 1) - 1) // (q - 1)


def projective_chunks(spec: FieldSpec, b: int, cap: int = DEFAULT_POINT_BUDGET,
                      chunk: int = 1 << 17):
    """Yield (rows, b+1) encoding arrays covering P^b(F_q) in canonical order."""
    q = spec.order
    total = projective_count(q, b)
    if total > cap:
        raise BudgetExceeded(
            "|P^%d(F_%d)| = %d exceeds point budget %d" % (b, q, total, cap)
        )
    for lead in range(b, -1, -1):
        tail = b - lead
        cnt = q**tail
        for start in range(0, cnt, chunk):
            stop = min(start + chunk, cnt)
            idx = np.arange(start, stop, dtype=np.int64)
            block = np.zeros((stop - start, b + 1), dtype=np.int64)
            block[:, lead] = 1
            for t in range(tail):
                block[:, lead + 1 + t] = (idx // (q ** (tail - 1 - t))) % q
            yield block


def projective_array(spec: FieldSpec, b: int, cap: int = DEFAULT_POINT_BUDGET) -> np.ndarray:
    return np.concatenate(list(projective_chunks(spec, b, cap)))


def enumerate_projective(spec: FieldSpec, b: int, cap: int = DEFAULT_POINT_BUDGET):
    """All points of P^b(F_q) as ProjPoint objects, canonical order."""
    arr = projective_array(spec, b, cap)
    return [ProjPoint(spec, row) for row in arr.tolist()]


def enumerate_multiindices(b: int, m: int, cap: int | None = None):
    """Exponent vectors of degree m in b+1 variables, graded-lex order.

    The first exponent descends fastest: (m,0,...), then (m-1,1,0,...), ...
    """
    if b < 0 or m < 0:
        raise ValueError("need b >= 0 and m >= 0")
    total = comb(b + m, m)
    if cap is not None and total > cap:
        raise BudgetExceeded("C(%d,%d) = %d multiindices exceed cap %d"
                             % (b + m, m, total, cap))

    def rec(nvars, deg):
        if nvars == 1:
            yield (deg,)
            return
        for first in range(deg, -1, -1):
            for rest in rec(nvars - 1, deg - first):
                yield (first,) + rest

    return list(rec(b + 1, m))


def monomial_eval(point: ProjPoint, beta) -> int:
    """Value of x^beta at the canonical representative (0**0 == 1)."""
    spec = point.spec
    acc = spec.one
    for c, e in zip(point.coords, beta):
        if e:
            acc = spec.mul(acc, spec.pow(c, e))
    return acc


# ---------------------------------------------------------------------------
# serialization: "1:2:0" for prime fields, "1,0:0,1" for extension fields


def point_to_str(point: ProjPoint) -> str:
    return ":".join(elem_str(point.spec, c) for c in point.coords)


def point_from_str(spec: FieldSpec, s: str) -> ProjPoint:
    coords = [elem_parse(spec, part) for part in s.split(":")]
    return canonicalize(spec, coords)


# ---------------------------------------------------------------------------
# bulk monomial matrices


def monomial_matrix(spec: FieldSpec, pts_enc: np.ndarray, mindices) -> np.ndarray:
    """Values of every monomial at every point: (N, M, k) coordinate array.

    Each degree-d monomial is one field multiplication on top of its
    degree-(d-1) parent (first positive exponent decremented), so the whole
    matrix costs about one multiplication per cell.
    """
    pts_enc = np.asarray(pts_enc, dtype=np.int64)
    n = pts_enc.shape[0]
    coords = spec.dec_array(pts_enc)  # (N, b+1, k)
    mindices = list(mindices)
    if not mindices:
        return np.zeros((n, 0, spec.k), dtype=np.int64)
    m = sum(mindices[0])
    ones = np.zeros((n, spec.k), dtype=np.int64)
    ones[:, 0] = 1
    nvars = len(mindices[0])
    zero_mi = (0,) * nvars
    level = {zero_mi: ones}
    for d in range(1, m + 1):
        nxt = {}
        for beta in enumerate_multiindices(nvars - 1, d):
            j = next(i for i, e in enumerate(beta) if e > 0)
            parent = beta[:j] + (beta[j] - 1,) + beta[j + 1:]
            nxt[beta] = spec.arr_mul(level[parent], coords[:, j, :])
        level = nxt
    return np.stack([level[tuple(beta)] for beta in mindices], axis=1)

"""Projective spaces over finite fields: canonical points and monomials.

Canonical representatives scale the first nonzero coordinate to 1.  A
point set is an (n, b+1) int64 array of their encodings, one row per
point; `ProjPoint` is one point for the scalar evaluators.  The
enumeration order is lexicographic on the canonical coordinate vector,
coordinates compared by their integer encodings; every downstream notion
of "first points" or "initial segment" refers to this order.  Degree-m
multiindices are the rows of one read-only array per (b, m),
`multiindex_table`, in graded-lex order with the first exponent
descending; every coefficient vector and every monomial matrix column
in the package is aligned to it.  A point's id, its text in every
artifact and points file, is written by `point_ids` and read by
`parse_ids` alone.
"""
from __future__ import annotations

import functools
from math import comb

import numpy as np

from .gf import FieldSpec
from .util import DEFAULT_POINT_BUDGET, BudgetExceeded


class ProjPoint:
    """One canonical point for the scalar evaluators; coords are encodings."""

    __slots__ = ("spec", "coords")

    def __init__(self, spec: FieldSpec, coords):
        self.spec = spec
        self.coords = tuple(int(c) for c in coords)
        if not any(self.coords):
            raise ValueError("the zero vector is not projective")
        lead = next(c for c in self.coords if c != 0)
        if lead != spec.one:
            raise ValueError("coords are not canonical")

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

    def __repr__(self):
        (text,) = point_ids(self.spec, np.array([self.coords]))
        return "ProjPoint(%s)" % text


def projective_count(q: int, b: int) -> int:
    """|P^b(F_q)| = (q^(b+1) - 1) / (q - 1)."""
    return (q ** (b + 1) - 1) // (q - 1)


def checked_count(q: int, b: int, cap: int) -> int:
    """|P^b(F_q)|, or BudgetExceeded when it is above cap."""
    total = projective_count(q, b)
    if total > cap:
        raise BudgetExceeded(
            "|P^%d(F_%d)| = %d exceeds point budget %d" % (b, q, total, cap)
        )
    return total


def chart_leads(b: int):
    """Leads L of the affine charts {x_0..x_{L-1} = 0, x_L = 1}, canonical order.

    Chart L is the grid F_q^(b-L) of its free coordinates x_{L+1..b}; read
    in C order (x_{L+1} slowest) it lists its points in canonical order,
    and the charts follow one another in the order given here.
    """
    return range(b, -1, -1)


def chart_rows(q: int, b: int, lead: int, idx: np.ndarray) -> np.ndarray:
    """Encodings of the points at grid indices idx of chart `lead`: (len, b+1)."""
    tail = b - lead
    block = np.zeros((len(idx), b + 1), dtype=np.int64)
    block[:, lead] = 1
    for t in range(tail):
        block[:, lead + 1 + t] = (idx // q ** (tail - 1 - t)) % q
    return block


CHUNK = 1 << 17  # most points in one projective_chunks block, and most
                 # digit products in one monomial_matrix arr_mul


def projective_chunks(spec: FieldSpec, b: int):
    """Yield (rows, b+1) encoding arrays covering P^b(F_q) in canonical order.

    Each array holds at most CHUNK points of one chart; a space of more
    than DEFAULT_POINT_BUDGET points is refused.
    """
    q = spec.order
    checked_count(q, b, DEFAULT_POINT_BUDGET)
    for lead in chart_leads(b):
        cnt = q ** (b - lead)
        for start in range(0, cnt, CHUNK):
            idx = np.arange(start, min(start + CHUNK, cnt), dtype=np.int64)
            yield chart_rows(q, b, lead, idx)


def projective_array(spec: FieldSpec, b: int) -> np.ndarray:
    return np.concatenate(list(projective_chunks(spec, b)))


@functools.cache
def multiindex_table(b: int, m: int) -> np.ndarray:
    """Exponent vectors of degree m in b+1 variables: read-only (C(b+m, m), b+1).

    Graded-lex order, the first exponent descending fastest: (m,0,...),
    then (m-1,1,0,...), ...  table(b, m) is x_0 * table(b, m-1), in
    order, followed by table(b-1, m) with a zero x_0 exponent prepended.
    The smaller tables are built on the way, one variable at a time, and
    only this one is kept.
    """
    if b < 0 or m < 0:
        raise ValueError("need b >= 0 and m >= 0")
    # by_deg[d]: the degree-d table in the last c+1 variables
    by_deg = [np.full((1, 1), d, dtype=np.int64) for d in range(m + 1)]
    for c in range(1, b + 1):
        grown = [np.zeros((1, c + 1), dtype=np.int64)]
        for d in range(1, m + 1):
            head, tail = grown[d - 1], by_deg[d]
            t = np.zeros((len(head) + len(tail), c + 1), dtype=np.int64)
            t[:len(head)] = head
            t[:len(head), 0] += 1
            t[len(head):, 1:] = tail
            grown.append(t)
        by_deg = grown
    table = by_deg[m]
    table.flags.writeable = False
    return table


def monomial_eval(point: ProjPoint, beta) -> int:
    """Value of x^beta at the canonical representative (0**0 == 1)."""
    spec = point.spec
    acc = spec.one
    for c, e in zip(point.coords, beta):
        if e:
            acc = spec.mul(acc, spec.pow(c, e))
    return acc


# ---------------------------------------------------------------------------
# point ids: "1:2:0" for prime fields, "1,0:0,1" for extension fields


def point_ids(spec: FieldSpec, rows: np.ndarray) -> list:
    """Ids of encoded rows: the package's one writer of point text.

    One format of a repeated template over the decoded digits: "%d:%d:..."
    over a prime field; over an extension field each coordinate is
    "%d,%d,..." (its basis digits, lowest first).  A one-coordinate row
    is the text of one field element.
    """
    n, width = rows.shape
    if n == 0:
        return []
    row = ":".join([",".join(["%d"] * spec.k)] * width)
    digits = spec.dec_array(rows).ravel().tolist()
    return ("\n".join([row] * n) % tuple(digits)).split("\n")


def parse_ids(spec: FieldSpec, ids: list, dim: int):
    """(rows, n): the encoded rows of ids[:n], the longest prefix of
    canonical points of P^dim; n < len(ids) names ids[n] as the first
    that is not one.  The package's one reader of point text.

    Canonical means: each id holds dim+1 coordinates of k digits, every
    digit is a decimal below p, the first nonzero coordinate is 1, and
    `point_ids` writes the parsed row back as the same text.  That last
    comparison refuses what `int` takes but would not write: padding,
    signs, "_" separators, non-ASCII digits and leading zeros.

    All ids are split at once and cut into rows of (dim+1)*k digits.  An
    id with another digit count never equals its row written back, and
    the rows before the first such id are exactly their ids' digits.
    """
    width = (dim + 1) * spec.k
    digits = ":".join(ids).replace(",", ":").split(":")
    n = min(len(ids), len(digits) // width)
    del digits[n * width:]
    # only short decimal text reaches int(), so it cannot fail or overflow
    ok = (np.fromiter(map(str.isdecimal, digits), bool, len(digits))
          & (np.fromiter(map(len, digits), np.int64, len(digits))
             <= len(str(spec.p))))
    hits = np.flatnonzero(~ok.reshape(n, width).all(axis=1))
    n = int(hits[0]) if hits.size else n
    if n == 0:
        return np.zeros((0, dim + 1), dtype=np.int64), 0
    dig = np.array(list(map(int, digits[:n * width])), dtype=np.int64)
    dig = dig.reshape(n, dim + 1, spec.k)
    enc = spec.enc_array(dig)
    lead = enc[np.arange(n), np.argmax(enc != 0, axis=1)]
    bad = ((dig >= spec.p).any(axis=(1, 2)) | (lead != 1)
           | np.array([a != b for a, b in zip(point_ids(spec, enc), ids)]))
    hits = np.flatnonzero(bad)
    n = int(hits[0]) if hits.size else n
    return enc[:n], n


# ---------------------------------------------------------------------------
# bulk monomial matrices


@functools.cache
def _level_links(b: int, d: int):
    """(parent, var) of the degree-d monomials on P^b, table order.

    x^beta = x^parent * x_var, where var is beta's first positive exponent
    and parent, a row of table(b, d-1), is beta with that exponent
    decremented.  By the identity of `multiindex_table` the x_0 block has
    parent = its own row and var = 0, and the rest are the links of
    (b-1, d) past the x_0 block of table(b, d-1), with var + 1.
    """
    parent = var = np.zeros(1, dtype=np.int64)
    for c in range(1, b + 1):
        head = comb(c + d - 1, d - 1)
        shift = comb(c + d - 2, d - 2) if d > 1 else 0
        parent = np.concatenate([np.arange(head), parent + shift])
        var = np.concatenate([np.zeros(head, dtype=np.int64), var + 1])
    return parent, var


def monomial_matrix(spec: FieldSpec, pts_enc: np.ndarray, m: int) -> np.ndarray:
    """Values of every degree-m monomial at every point: (N, C(b+m, m), k).

    Columns follow `multiindex_table(b, m)`.  Level d, all degree-d
    monomials, is one arr_mul of level d-1 (at each monomial's parent) by
    the coordinates (at its variable), per block of rows; blocks keep
    each call's (rows, C(b+d, d), k, k) digit products within CHUNK cells.
    """
    pts_enc = np.asarray(pts_enc, dtype=np.int64)
    n, b, k = len(pts_enc), pts_enc.shape[1] - 1, spec.k
    out = np.zeros((n, comb(b + m, m), k), dtype=np.int64)
    rows = max(1, CHUNK // (out.shape[1] * k * k))
    for start in range(0, n, rows):
        coords = spec.dec_array(pts_enc[start:start + rows])  # (rows, b+1, k)
        level = np.zeros((len(coords), 1, k), dtype=np.int64)
        level[:, :, 0] = 1
        for d in range(1, m + 1):
            parent, var = _level_links(b, d)
            level = spec.arr_mul(level[:, parent], coords[:, var])
        out[start:start + rows] = level
    return out

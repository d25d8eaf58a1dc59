"""Scalar references that tests hold the package's bulk code to.

Nothing in `src/kstfree` needs these, so they live beside the tests.
Among them is the scalar point-id path, one element and one point at a
time (`elem_str`, `elem_parse`, `canonicalize`, `point_to_str`,
`point_from_str`), which `projgeom.point_ids` and `parse_ids` must
agree with, and `enumerate_projective`, a space's points as `ProjPoint`
objects for the scalar evaluators; the package itself holds point sets
only as rows.  `chart_tensor` builds a form's restriction to one chart
by filtering its terms for that chart, as the zero-set walk's per-form
chart tensors must agree.
"""
from fractions import Fraction

import numpy as np

from kstfree.gf import FieldSpec
from kstfree.graphs import KstVerdict, SidedGraph, _common, _side_adj
from kstfree.independence import evaluation_rows, hilbert_rank
from kstfree.linalg import left_kernel
from kstfree.polyrand import BiHomPoly
from kstfree.projgeom import (ProjPoint, monomial_eval, multiindex_table,
                              projective_array)


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


def enumerate_projective(spec: FieldSpec, b: int):
    """All points of P^b(F_q) as ProjPoint objects, canonical order."""
    return [ProjPoint(spec, row) for row in projective_array(spec, b).tolist()]


def canonicalize(spec: FieldSpec, raw) -> ProjPoint:
    """Scale a nonzero coordinate vector so its first nonzero entry is 1."""
    raw = [int(c) for c in raw]
    lead = next((c for c in raw if c != 0), None)
    if lead is None:
        raise ValueError("cannot canonicalize the zero vector")
    inv = spec.inv(lead)
    return ProjPoint(spec, [spec.mul(inv, c) for c in raw])


def point_to_str(point: ProjPoint) -> str:
    return ":".join(elem_str(point.spec, c) for c in point.coords)


def point_from_str(spec: FieldSpec, s: str) -> ProjPoint:
    """Inverse of point_to_str; refuses text it would not write back as is,
    so a scaled point ("2:1" over F_5), padding, signs or leading zeros
    are errors, not silent rewrites."""
    pt = canonicalize(spec, [elem_parse(spec, part) for part in s.split(":")])
    if point_to_str(pt) != s:
        raise ValueError("%r is not a canonical point of %r" % (s, spec))
    return pt


def chart_tensor(spec: FieldSpec, expo: np.ndarray, digits: np.ndarray,
                 lead: int, a: int) -> np.ndarray:
    """Digits of a form's restriction to chart `lead`, built for that chart
    alone: shape (a,)*n + (k,), n = b - lead.

    expo (M, b+1) and digits (M, k) are the form's nonzero terms.  A term
    survives when it has no x_0..x_{lead-1}; x_lead = 1 drops out, and an
    exponent e >= q on a free axis folds to ((e-1) mod (q-1)) + 1, because
    x^q = x on F_q.  Terms that fold together add up.  The tensor comes
    in the dtype of a*k-term sums, as the walk's own chart tensors do.
    """
    q, n = spec.order, expo.shape[1] - 1 - lead
    on = ~expo[:, :lead].any(axis=1)
    e = expo[on, lead + 1:]
    e = np.where(e >= q, (e - 1) % (q - 1) + 1, e)
    flat = e @ (a ** np.arange(n - 1, -1, -1, dtype=np.int64))
    t = np.zeros((a**n, spec.k), dtype=np.int64)
    np.add.at(t, flat, digits[on])
    dt = spec._dtype(a * spec.k, "zero set")
    return (t % spec.p).reshape((a,) * n + (spec.k,)).astype(dt)


def enumerate_multiindices(b: int, m: int) -> list:
    """`multiindex_table(b, m)` as a fresh list of tuples of Python ints."""
    return list(map(tuple, multiindex_table(b, m).tolist()))


def evaluate_bi(g: BiHomPoly, v, w) -> int:
    """g at a pair of canonical points, one monomial at a time."""
    spec = g.spec
    mis_x = enumerate_multiindices(g.a, g.m)
    mis_y = enumerate_multiindices(g.b, g.mp)
    acc = 0
    for row, alpha in zip(g.coeffs.tolist(), mis_x):
        xa = monomial_eval(v, alpha)
        if xa == 0:
            continue
        inner = 0
        for c, beta in zip(row, mis_y):
            if c:
                inner = spec.add(inner, spec.mul(c, monomial_eval(w, beta)))
        acc = spec.add(acc, spec.mul(xa, inner))
    return acc


def embed_table_scalar(base: FieldSpec, ext: FieldSpec) -> np.ndarray:
    """`FieldSpec.embed_table` by scalar search: the first element of ext,
    in encoding order, where Horner's rule zeroes base's modulus is the
    image of the basis root, and each element is its digits times the
    root's powers, one scalar product at a time."""
    if base.k == 1:
        return np.arange(base.p, dtype=np.int64)
    root = None
    for cand in range(ext.order):
        acc = 0
        for c in reversed(base.modulus):
            acc = ext.add(ext.mul(acc, cand), c % ext.p)
        if acc == 0:
            root = cand
            break
    powers = [1]
    for _ in range(base.k - 1):
        powers.append(ext.mul(powers[-1], root))
    table = np.zeros(base.order, dtype=np.int64)
    for e in range(base.order):
        acc = 0
        for c, z in zip(base.decode(e), powers):
            acc = ext.add(acc, ext.mul(c, z))
        table[e] = acc
    return table


def strong_witness_scalar(spec: FieldSpec, rows, m: int):
    """`acceptance.strong_dependence_witness`'s search, one scalar at a
    time: each combination of the left-kernel basis of the evaluation
    rows, its coefficients read from `projective_array(spec, d - 1)` in
    order, until one has no zero entry; that one as a tuple, else None."""
    kern = left_kernel(evaluation_rows(spec, rows, m), spec).tolist()
    if not kern:
        return None
    t = len(rows)
    for combo in projective_array(spec, len(kern) - 1).tolist():
        cand = [0] * t
        for lam, kv in zip(combo, kern):
            if lam:
                for i in range(t):
                    cand[i] = spec.add(cand[i], spec.mul(lam, kv[i]))
        if all(cand):
            return tuple(cand)
    return None


def minimal_by_subsets(spec: FieldSpec, rows: np.ndarray, m: int) -> bool:
    """Minimal dependence by its definition: the set is dependent and each
    of its t subsets of size t-1 is independent, one rank apiece."""
    t = len(rows)
    return hilbert_rank(spec, rows, m) < t and all(
        hilbert_rank(spec, np.delete(rows, i, axis=0), m) == t - 1
        for i in range(t))


def verify_witness(g: SidedGraph, verdict: KstVerdict) -> bool:
    """Re-check a violation witness against the adjacency data."""
    if verdict.witness is None:
        return True
    w = verdict.witness
    common = _common(_side_adj(g, w["side"]), w["anchors"])
    return (len(w["anchors"]) == verdict.s
            and len(set(w["neighbors"])) == verdict.t
            and all(common[j] for j in w["neighbors"]))


def floor_scaled_power_bisect(c: Fraction, q: int, num: int, den: int) -> int:
    """floor(c * q**(num/den)) by bisection on
    (x * c.denominator)**den <= c.numerator**den * q**num."""
    rhs = c.numerator**den * q**num
    cd = c.denominator
    lo, hi = 0, 1 << (rhs.bit_length() // den + 2)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if (mid * cd) ** den <= rhs:
            lo = mid
        else:
            hi = mid - 1
    return lo

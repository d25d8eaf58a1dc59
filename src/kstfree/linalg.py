"""Exact Gaussian elimination over a FieldSpec: reduced form, rank, kernels.

Matrices are lists of rows of integer encodings.  Pivoting is fixed
(first nonzero column, lowest row) so reduced forms and kernel bases are
deterministic and reports stay reproducible.  Sizes here are small by
construction; the bulk numpy kernels never need elimination.
"""
from __future__ import annotations

from .gf import FieldSpec


def rref(rows, spec: FieldSpec):
    """Reduced row echelon form.

    Returns (rank, pivot_columns, reduced_rows).  Input is not mutated.
    """
    m = [list(r) for r in rows]
    if not m:
        return 0, [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = spec.inv(m[r][c])
        m[r] = [spec.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [spec.sub(x, spec.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return r, pivots, m


def rank(rows, spec: FieldSpec) -> int:
    return rref(rows, spec)[0]


def right_kernel(rows, spec: FieldSpec, ncols: int):
    """Basis of {x : M x = 0}, one vector per free column, deterministic."""
    r, pivots, red = rref(rows, spec)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = spec.neg(red[i][fc])
        basis.append(tuple(v))
    return basis


def left_kernel(rows, spec: FieldSpec):
    """Basis of {c : c M = 0} via the transpose."""
    if not rows:
        return []
    t = [[row[j] for row in rows] for j in range(len(rows[0]))]
    return right_kernel(t, spec, len(rows))

"""Exact Gaussian elimination over a FieldSpec: reduced form, rank, kernels.

`rank` and `left_kernel` take any array_like of integer encodings and
make it lists of rows once, for `rref`, whose scalar elimination beats
numpy on the small matrices ranked here.  Pivoting is fixed (first
nonzero column, lowest row), so kernel bases are deterministic.
"""
from __future__ import annotations

import numpy as np

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
    """Rank of an array_like matrix of encodings."""
    return rref(np.asarray(rows, dtype=np.int64).tolist(), spec)[0]


def left_kernel(rows, spec: FieldSpec) -> np.ndarray:
    """Basis of {c : c M = 0} for an array_like M with n rows: (d, n) int64.

    One vector per free column of the transpose's reduced form, in column
    order: 1 at its free column f, minus the reduced entry of column f at
    each pivot, 0 elsewhere.
    """
    n = len(rows)
    r, pivots, red = rref(np.asarray(rows, dtype=np.int64).T.tolist(), spec)
    free = sorted(set(range(n)).difference(pivots))
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    at_free = np.array(red[:r], dtype=np.int64).reshape(r, n)[:, free]
    basis[:, pivots] = spec.enc_array(-spec.dec_array(at_free.T) % spec.p)
    return basis

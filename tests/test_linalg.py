"""Row reduction and kernel tests against brute-force oracles."""
import itertools
import random

import pytest

from kstfree.gf import make_field
import numpy as np

from kstfree.linalg import left_kernel, rank, rref


def brute_rank(rows, spec):
    """Oracle: rank = log_q of the number of distinct span elements."""
    n = len(rows)
    if n == 0:
        return 0
    width = len(rows[0])
    span = set()
    for combo in itertools.product(range(spec.order), repeat=n):
        v = [0] * width
        for c, row in zip(combo, rows):
            for j in range(width):
                v[j] = spec.add(v[j], spec.mul(c, row[j]))
        span.add(tuple(v))
    size = len(span)
    r = 0
    while spec.order**r < size:
        r += 1
    assert spec.order**r == size
    return r


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
def test_rank_matches_brute_force(p, k):
    spec = make_field(p, k)
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(1, 4)
        w = rng.randrange(1, 5)
        rows = [[rng.randrange(spec.order) for _ in range(w)] for _ in range(n)]
        assert rank(rows, spec) == brute_rank(rows, spec)


def test_rref_is_reduced_and_deterministic():
    spec = make_field(5)
    rows = [[2, 4, 1], [1, 2, 3], [3, 1, 0]]
    r1 = rref(rows, spec)
    r2 = rref(rows, spec)
    assert r1 == r2
    rnk, pivots, red = r1
    for i, pc in enumerate(pivots):
        assert red[i][pc] == 1
        for other in range(rnk):
            if other != i:
                assert red[other][pc] == 0


def test_kernels_annihilate():
    spec = make_field(7)
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randrange(1, 5)
        w = rng.randrange(1, 6)
        rows = [[rng.randrange(7) for _ in range(w)] for _ in range(n)]
        rk = rank(rows, spec)
        # the right kernel of M is the left kernel of its transpose
        rkern = left_kernel(np.array(rows).T, spec)
        assert rkern.shape == (w - rk, w) and rkern.dtype == np.int64
        for v in rkern:
            for row in rows:
                acc = 0
                for x, y in zip(row, v):
                    acc = spec.add(acc, spec.mul(x, y))
                assert acc == 0
        lkern = left_kernel(rows, spec)
        assert lkern.shape == (n - rk, n) and lkern.dtype == np.int64
        for c in lkern:
            for j in range(w):
                acc = 0
                for i in range(n):
                    acc = spec.add(acc, spec.mul(c[i], rows[i][j]))
                assert acc == 0


def test_left_kernel_basis_is_pinned_by_the_free_columns():
    # one vector per free column of the transpose's reduced form: 1 there,
    # 0 at the other free columns, minus the reduced entries at the pivots
    spec = make_field(5)
    rows = [[1, 2], [2, 4], [0, 1], [3, 2]]   # transpose pivots at 0 and 2
    basis = left_kernel(rows, spec)
    assert basis.tolist() == [[3, 1, 0, 0], [2, 0, 4, 1]]
    assert left_kernel([[1, 0], [0, 1]], spec).shape == (0, 2)
    ext = make_field(2, 2)
    assert left_kernel([[1, 2], [1, 2]], ext).tolist() == [[1, 1]]

"""Seeded sampling and evaluation of homogeneous polynomials.

Randomness comes from a SplitMix64 counter stream, so identical seeds
give identical coefficient streams on every platform, and the vectorized
draw is bit-identical to repeated scalar draws.  A trial that needs its
own stream derives one with SeededRng.derive(index); derivation depends
only on the construction seed, never on how much of the parent stream
was consumed.

Coefficients are drawn one residue per multiindex in canonical order
(graded-lex; bihomogeneous row-major, x-multiindex outer), which pins the
seed -> polynomial map exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .gf import FieldSpec
from .projgeom import (enumerate_multiindices, monomial_eval, monomial_matrix,
                       point_ids)

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_DERIVE_SALT = 0xBF58476D1CE4E5B9


def _mix64(z: int) -> int:
    z &= _M64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _M64
    z ^= z >> 31
    return z


class SeededRng:
    """SplitMix64 in counter mode: output i is mix64(seed + i*golden)."""

    def __init__(self, seed: int):
        self.seed = seed & _M64
        self._ctr = 0

    def next_u64(self) -> int:
        self._ctr += 1
        return _mix64((self.seed + self._ctr * _GOLDEN) & _M64)

    def residues(self, n: int, q: int) -> np.ndarray:
        """n residues as one numpy block, identical to n scalar draws."""
        idx = np.arange(self._ctr + 1, self._ctr + n + 1, dtype=np.uint64)
        self._ctr += n
        z = (np.uint64(self.seed) + idx * np.uint64(_GOLDEN))
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return (z % np.uint64(q)).astype(np.int64)

    def randbelow(self, n: int) -> int:
        return self.next_u64() % n

    def derive(self, index: int) -> "SeededRng":
        """Independent child stream for a trial or sub-task."""
        return SeededRng(_mix64((self.seed ^ _DERIVE_SALT) + (index + 1) * _GOLDEN))


@dataclass(frozen=True)
class HomPoly:
    """Homogeneous polynomial on P^b; coeffs follow the canonical multiindex order."""

    spec: FieldSpec
    b: int
    m: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != comb(self.b + self.m, self.m):
            raise ValueError("coefficient count does not match (b, m)")

    def multiindices(self):
        return enumerate_multiindices(self.b, self.m)


@dataclass(frozen=True)
class BiHomPoly:
    """Bihomogeneous polynomial on P^a x P^b of bidegree (m, mp).

    coeffs is a tuple of rows, one per x-multiindex, each row one entry
    per y-multiindex.
    """

    spec: FieldSpec
    a: int
    b: int
    m: int
    mp: int
    coeffs: tuple

    def __post_init__(self):
        nx = comb(self.a + self.m, self.m)
        ny = comb(self.b + self.mp, self.mp)
        if len(self.coeffs) != nx or any(len(r) != ny for r in self.coeffs):
            raise ValueError("coefficient grid does not match (a, b, m, mp)")


def random_hom(spec: FieldSpec, b: int, m: int, rng: SeededRng) -> HomPoly:
    n = comb(b + m, m)
    return HomPoly(spec, b, m, tuple(rng.residues(n, spec.order).tolist()))


def random_bihom(spec: FieldSpec, a: int, b: int, m: int, mp: int,
                 rng: SeededRng) -> BiHomPoly:
    nx = comb(a + m, m)
    ny = comb(b + mp, mp)
    grid = rng.residues(nx * ny, spec.order).reshape(nx, ny)
    return BiHomPoly(spec, a, b, m, mp, tuple(map(tuple, grid.tolist())))


def evaluate(f: HomPoly, point) -> int:
    """f at a canonical point (well defined up to the usual scaling)."""
    spec = f.spec
    acc = 0
    for c, beta in zip(f.coeffs, f.multiindices()):
        if c:
            acc = spec.add(acc, spec.mul(c, monomial_eval(point, beta)))
    return acc


# ---------------------------------------------------------------------------
# bulk evaluation


def eval_hom_many(fs, pts_enc: np.ndarray) -> np.ndarray:
    """Evaluate several HomPolys on a point array: (N, len(fs)) encodings.

    The bulk reference that the tests hold `variety.fq_point_array` to;
    the package itself finds zero sets only there.  Each degree group is
    one monomial matrix times the coefficient matrix on the coordinate
    path, which defines field multiplication, in every field.
    """
    fs = list(fs)
    out = np.zeros((len(pts_enc), len(fs)), dtype=np.int64)
    if not fs:
        return out
    spec, b = fs[0].spec, fs[0].b
    if any(f.spec != spec or f.b != b for f in fs):
        raise ValueError("mixed specs or ambients in eval_hom_many")
    by_deg: dict = {}
    for i, f in enumerate(fs):
        by_deg.setdefault(f.m, []).append(i)
    for m, idxs in by_deg.items():
        mat = monomial_matrix(spec, pts_enc, m)
        coeffs = np.array([fs[i].coeffs for i in idxs], dtype=np.int64)
        vals = spec.arr_dot(mat, spec.dec_array(coeffs.T))  # (N, F, k)
        out[:, idxs] = spec.enc_array(vals)
    return out


def eval_bihom_grid(g: BiHomPoly, left_enc: np.ndarray, right_enc: np.ndarray) -> np.ndarray:
    """g on every (left, right) pair: (NL, NR) encoding matrix."""
    spec = g.spec
    mon_l = monomial_matrix(spec, left_enc, g.m)
    mon_r = monomial_matrix(spec, right_enc, g.mp)
    coeff = spec.dec_array(np.array(g.coeffs, dtype=np.int64))  # (nx, ny, k)
    mid = spec.arr_dot(mon_l, coeff)  # (NL, ny, k)
    vals = spec.arr_dot(mid, mon_r.transpose(1, 0, 2))  # (NL, NR, k)
    return spec.enc_array(vals)


# ---------------------------------------------------------------------------
# serialization


def hom_to_json(f: HomPoly) -> dict:
    """Each nonzero coefficient beside its multiindex, as element text."""
    coeffs = np.array(f.coeffs, dtype=np.int64)
    on = np.flatnonzero(coeffs)
    mis = f.multiindices()
    entries = [[list(mis[i]), c] for i, c in
               zip(on.tolist(), point_ids(f.spec, coeffs[on, None]))]
    return {"kind": "hom", "b": f.b, "m": f.m, "coeffs": entries}

"""Seeded sampling and evaluation of homogeneous polynomials.

Randomness comes from a SplitMix64 counter stream, so identical seeds
give identical coefficient streams on every platform, and the vectorized
draw is bit-identical to repeated scalar draws.  A trial that needs its
own stream derives one with SeededRng.derive(index); derivation depends
only on the construction seed, never on how much of the parent stream
was consumed.

Coefficients are drawn one residue per multiindex in canonical order
(graded-lex; bihomogeneous row-major, x-multiindex outer), which pins the
seed -> polynomial map exactly.  A form holds them as a read-only int64
array, the one form they take in the package, and forms compare by
identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .gf import FieldSpec
from .projgeom import (monomial_eval, monomial_matrix, multiindex_table,
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


def _coeff_array(values, shape: tuple, refusal: str) -> np.ndarray:
    """A read-only int64 copy of values, refused unless of the given shape."""
    coeffs = np.array(values, dtype=np.int64)
    if coeffs.shape != shape:
        raise ValueError(refusal)
    coeffs.flags.writeable = False
    return coeffs


@dataclass(frozen=True, eq=False)
class HomPoly:
    """Homogeneous polynomial on P^b; coeffs follow `multiindex_table(b, m)`."""

    spec: FieldSpec
    b: int
    m: int
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _coeff_array(
            self.coeffs, (comb(self.b + self.m, self.m),),
            "coefficient count does not match (b, m)"))


@dataclass(frozen=True, eq=False)
class BiHomPoly:
    """Bihomogeneous polynomial on P^a x P^b of bidegree (m, mp).

    coeffs is an (nx, ny) array: one row per x-multiindex, one column per
    y-multiindex.
    """

    spec: FieldSpec
    a: int
    b: int
    m: int
    mp: int
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _coeff_array(
            self.coeffs, (comb(self.a + self.m, self.m),
                          comb(self.b + self.mp, self.mp)),
            "coefficient grid does not match (a, b, m, mp)"))


def random_hom(spec: FieldSpec, b: int, m: int, rng: SeededRng) -> HomPoly:
    return HomPoly(spec, b, m, rng.residues(comb(b + m, m), spec.order))


def random_bihom(spec: FieldSpec, a: int, b: int, m: int, mp: int,
                 rng: SeededRng) -> BiHomPoly:
    nx, ny = comb(a + m, m), comb(b + mp, mp)
    grid = rng.residues(nx * ny, spec.order).reshape(nx, ny)
    return BiHomPoly(spec, a, b, m, mp, grid)


def evaluate(f: HomPoly, point) -> int:
    """f at a canonical point (well defined up to the usual scaling)."""
    spec = f.spec
    acc = 0
    for c, beta in zip(f.coeffs.tolist(), multiindex_table(f.b, f.m).tolist()):
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
        coeffs = np.stack([fs[i].coeffs for i in idxs], axis=1)  # (C, F)
        vals = spec.arr_dot(mat, spec.dec_array(coeffs))  # (N, F, k)
        out[:, idxs] = spec.enc_array(vals)
    return out


def eval_bihom_grid(g: BiHomPoly, left_enc: np.ndarray, right_enc: np.ndarray) -> np.ndarray:
    """g on every (left, right) pair: (NL, NR) encoding matrix."""
    spec = g.spec
    mon_l = monomial_matrix(spec, left_enc, g.m)
    mon_r = monomial_matrix(spec, right_enc, g.mp)
    coeff = spec.dec_array(g.coeffs)  # (nx, ny, k)
    mid = spec.arr_dot(mon_l, coeff)  # (NL, ny, k)
    vals = spec.arr_dot(mid, mon_r.transpose(1, 0, 2))  # (NL, NR, k)
    return spec.enc_array(vals)


# ---------------------------------------------------------------------------
# serialization


def hom_to_json(f: HomPoly) -> dict:
    """Each nonzero coefficient beside its multiindex, as element text."""
    on = np.flatnonzero(f.coeffs)
    betas = multiindex_table(f.b, f.m)[on].tolist()
    ids = point_ids(f.spec, f.coeffs[on, None])
    entries = [[beta, c] for beta, c in zip(betas, ids)]
    return {"kind": "hom", "b": f.b, "m": f.m, "coeffs": entries}

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

from .gf import FieldSpec, elem_parse, elem_str
from .projgeom import enumerate_multiindices, monomial_eval, monomial_matrix

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

    def residue(self, q: int) -> int:
        return self.next_u64() % q

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

    def sample_subset(self, n: int, s: int) -> tuple:
        """Sorted s-subset of range(n), drawn from this stream."""
        if s > n:
            raise ValueError("cannot sample %d of %d" % (s, n))
        chosen: set = set()
        while len(chosen) < s:
            chosen.add(self.randbelow(n))
        return tuple(sorted(chosen))

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

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

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
    return HomPoly(spec, b, m, tuple(rng.residue(spec.order) for _ in range(n)))


def random_bihom(spec: FieldSpec, a: int, b: int, m: int, mp: int,
                 rng: SeededRng) -> BiHomPoly:
    nx = comb(a + m, m)
    ny = comb(b + mp, mp)
    rows = tuple(
        tuple(rng.residue(spec.order) for _ in range(ny)) for _ in range(nx)
    )
    return BiHomPoly(spec, a, b, m, mp, rows)


def evaluate(f: HomPoly, point) -> int:
    """f at a canonical point (well defined up to the usual scaling)."""
    spec = f.spec
    acc = 0
    for c, beta in zip(f.coeffs, f.multiindices()):
        if c:
            acc = spec.add(acc, spec.mul(c, monomial_eval(point, beta)))
    return acc


def evaluate_bi(g: BiHomPoly, v, w) -> int:
    spec = g.spec
    mis_x = enumerate_multiindices(g.a, g.m)
    mis_y = enumerate_multiindices(g.b, g.mp)
    acc = 0
    for row, alpha in zip(g.coeffs, mis_x):
        xa = monomial_eval(v, alpha)
        if xa == 0:
            continue
        inner = 0
        for c, beta in zip(row, mis_y):
            if c:
                inner = spec.add(inner, spec.mul(c, monomial_eval(w, beta)))
        acc = spec.add(acc, spec.mul(xa, inner))
    return acc


def specialize(g: BiHomPoly, v) -> HomPoly:
    """Anchor the x side at v: the degree-mp polynomial g(v, .) on P^b."""
    spec = g.spec
    mis_x = enumerate_multiindices(g.a, g.m)
    ny = comb(g.b + g.mp, g.mp)
    out = [0] * ny
    for row, alpha in zip(g.coeffs, mis_x):
        xa = monomial_eval(v, alpha)
        if xa == 0:
            continue
        for j, c in enumerate(row):
            if c:
                out[j] = spec.add(out[j], spec.mul(xa, c))
    return HomPoly(spec, g.b, g.mp, tuple(out))


# ---------------------------------------------------------------------------
# bulk evaluation


def eval_hom_many(fs, pts_enc: np.ndarray, chunk: int = 1 << 17) -> np.ndarray:
    """Evaluate several HomPolys on a point array: (N, len(fs)) encodings.

    Polynomials may have different degrees; each degree group shares one
    monomial matrix per chunk.
    """
    fs = list(fs)
    if not fs:
        return np.zeros((len(pts_enc), 0), dtype=np.int64)
    spec = fs[0].spec
    if any(f.spec != spec or f.b != fs[0].b for f in fs):
        raise ValueError("mixed specs or ambients in eval_hom_many")
    by_deg: dict = {}
    for i, f in enumerate(fs):
        by_deg.setdefault(f.m, []).append(i)
    n = len(pts_enc)
    out = np.zeros((n, len(fs)), dtype=np.int64)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = pts_enc[start:stop]
        for m, idxs in by_deg.items():
            mis = enumerate_multiindices(fs[0].b, m)
            mat = monomial_matrix(spec, block, mis)  # (C, M, k)
            coeff = np.array([fs[i].coeffs for i in idxs], dtype=np.int64).T
            vals = spec.arr_dot(mat, spec.dec_array(coeff))  # (C, len(idxs), k)
            out[start:stop, idxs] = spec.enc_array(vals)
    return out


def eval_bihom_grid(g: BiHomPoly, left_enc: np.ndarray, right_enc: np.ndarray) -> np.ndarray:
    """g on every (left, right) pair: (NL, NR) encoding matrix."""
    spec = g.spec
    mis_x = enumerate_multiindices(g.a, g.m)
    mis_y = enumerate_multiindices(g.b, g.mp)
    mon_l = monomial_matrix(spec, np.asarray(left_enc, dtype=np.int64), mis_x)
    mon_r = monomial_matrix(spec, np.asarray(right_enc, dtype=np.int64), mis_y)
    coeff = spec.dec_array(np.array(g.coeffs, dtype=np.int64))  # (nx, ny, k)
    mid = spec.arr_dot(mon_l, coeff)  # (NL, ny, k)
    vals = spec.arr_dot(mid, mon_r.transpose(1, 0, 2))  # (NL, NR, k)
    return spec.enc_array(vals)


# ---------------------------------------------------------------------------
# serialization


def hom_to_json(f: HomPoly) -> dict:
    entries = [
        [list(beta), elem_str(f.spec, c)]
        for c, beta in zip(f.coeffs, f.multiindices())
        if c
    ]
    return {"kind": "hom", "b": f.b, "m": f.m, "coeffs": entries}


def hom_from_json(spec: FieldSpec, doc: dict) -> HomPoly:
    b, m = int(doc["b"]), int(doc["m"])
    mis = {tuple(beta): i for i, beta in enumerate(enumerate_multiindices(b, m))}
    out = [0] * len(mis)
    for beta, s in doc["coeffs"]:
        out[mis[tuple(beta)]] = elem_parse(spec, s)
    return HomPoly(spec, b, m, tuple(out))

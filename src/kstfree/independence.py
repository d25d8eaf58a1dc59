"""Dependence of point sets through degree-m evaluation ranks.

A point set is an (n, b+1) int64 array of canonical encodings, one row
per point, as zero sets, slices and `projgeom.parse_ids` give it.  A set
of t projective points is m-dependent when the t x C(b+m, m) matrix of
degree-m monomial values drops rank below t.  Minimality (read off the
matrix's left kernel) and s-wise certification are built on that one
matrix; the exact rational bookkeeping (m_cap, phi_upper_bound,
z_condition) is what the construction plans consume.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .gf import FieldSpec
from .linalg import left_kernel, rank
from .projgeom import monomial_matrix
from .util import DEFAULT_POINT_BUDGET, DEFAULT_SUBSET_BUDGET, BudgetExceeded


def _points(spec: FieldSpec, rows) -> np.ndarray:
    """rows as int64, refused unless they are distinct canonical points."""
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) == 0:
        raise ValueError("need at least one point")
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
    bad = ((rows < 0) | (rows >= spec.order)).any(axis=1) | (lead != 1)
    if bad.any():
        raise ValueError("row %d is not a canonical point"
                         % np.flatnonzero(bad)[0])
    if len(set(map(tuple, rows.tolist()))) != len(rows):
        raise ValueError("duplicate points")
    return rows


def evaluation_rows(spec: FieldSpec, rows, m: int) -> np.ndarray:
    """Degree-m monomial values, one row per point, canonical column order:
    a (t, C(b+m, m)) int64 array of encodings.

    A matrix of more than DEFAULT_POINT_BUDGET entries is refused before
    anything is built.
    """
    rows = _points(spec, rows)
    entries = len(rows) * comb(rows.shape[1] - 1 + m, m)
    if entries > DEFAULT_POINT_BUDGET:
        raise BudgetExceeded("the degree-%d evaluation matrix holds %d "
                             "entries, over the point budget %d"
                             % (m, entries, DEFAULT_POINT_BUDGET))
    return spec.enc_array(monomial_matrix(spec, rows, m))


def hilbert_rank(spec: FieldSpec, rows, m: int) -> int:
    """Rank of the evaluation matrix; duplicates are rejected."""
    return rank(evaluation_rows(spec, rows, m), spec)


@dataclass
class DependenceReport:
    t: int
    m: int
    hilbert_rank: int
    dependent: bool
    minimal: bool
    kernel_basis: np.ndarray  # (t - hilbert_rank, t), `linalg.left_kernel`


def dependence_classify(spec: FieldSpec, rows, m: int) -> DependenceReport:
    """Full dependence diagnosis of one point set.

    A dependent set is minimal iff its left kernel K has dimension 1 and
    K's basis vector has no zero entry.  Proof: dropping point i leaves a
    dependent set iff some nonzero v in K has v_i = 0.  If dim K = 1 the
    nonzero vectors of K are multiples of one vector; if dim K >= 2, a
    combination of two independent vectors cancels any chosen entry.

    Eliminating t points' C = C(b+m, m) columns takes about t*C*min(t, C)
    field operations; past DEFAULT_POINT_BUDGET, BudgetExceeded instead.
    """
    ev = evaluation_rows(spec, rows, m)
    t, c = ev.shape
    work = t * c * min(t, c)
    if work > DEFAULT_POINT_BUDGET:
        raise BudgetExceeded("eliminating the %d x %d evaluation matrix takes "
                             "about %d field operations, over the point "
                             "budget %d" % (t, c, work, DEFAULT_POINT_BUDGET))
    kern = left_kernel(ev, spec)
    minimal = len(kern) == 1 and bool(kern[0].all())
    return DependenceReport(t, m, t - len(kern), len(kern) > 0, minimal, kern)


@dataclass
class SWiseCheck:
    witness: tuple | None    # indices of a dependent s-subset, if found
    checked: int
    total: int
    mode: str                # exhaustive | vacuous | interpolation (builder)

    @property
    def certified(self) -> bool:
        """Independence is proved: every path without a witness is a proof."""
        return self.witness is None

    @property
    def verdict(self) -> str:
        return "independent" if self.certified else "dependent"


def s_wise_independent(spec: FieldSpec, rows, s: int, m: int,
                       budget: int = DEFAULT_SUBSET_BUDGET) -> SWiseCheck:
    """No s of the points are m-dependent; repeated rows are refused.

    Searches every s-subset, so a pass is a certificate; when C(n, s)
    exceeds the budget it raises BudgetExceeded instead of searching.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    rows = _points(spec, rows)
    n = len(rows)
    if n < s:
        return SWiseCheck(None, 0, 0, "vacuous")
    total = comb(n, s)
    if total > budget:
        raise BudgetExceeded("C(%d, %d) = %d subsets exceed budget %d"
                             % (n, s, total, budget))
    ev = evaluation_rows(spec, rows, m)
    for checked, combo in enumerate(itertools.combinations(range(n), s), 1):
        if rank(ev[list(combo)], spec) < s:
            return SWiseCheck(combo, checked, total, "exhaustive")
    return SWiseCheck(None, total, total, "exhaustive")


# ---------------------------------------------------------------------------
# exact bookkeeping for the plans


def m_cap(k: int, T: int) -> int:
    """Smallest m >= 0 with C(m + k, k) >= T.

    C(m + k, k) increases with m, so m is bracketed by doubling and then
    found by bisection: O(log m) binomials, not m of them.
    """
    if k < 1 or T < 1:
        raise ValueError("need k >= 1 and T >= 1")
    hi = 1
    while comb(hi + k, k) < T:
        hi *= 2
    lo = hi // 2  # the answer lies in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if comb(mid + k, k) >= T:
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass
class PhiBound:
    kind: str                 # empty | bound | not_covered
    value: Fraction | None


def phi_upper_bound(t: int, b: int, m: int) -> PhiBound:
    """Upper bound for the minimally-dependent-mass sum at size t.

    Sets of at most m+1 points are never m-dependent (interpolation on the
    spanned subspace), so t <= m+1 reports empty.  The closed-form bound
    floor(3t/(m+4)) * (b + 1 + (m-2)t/(m+4)) covers m >= 3 with
    m+2 <= t <= b; outside that window the answer is not covered here.
    """
    if t < 2 or b < 1 or m < 1:
        raise ValueError("need t >= 2, b >= 1, m >= 1")
    if t <= m + 1:
        return PhiBound("empty", None)
    if m >= 3 and m + 2 <= t <= b:
        outer = (3 * t) // (m + 4)
        value = outer * (b + 1 + Fraction((m - 2) * t, m + 4))
        return PhiBound("bound", Fraction(value))
    return PhiBound("not_covered", None)


@dataclass
class ZConditionReport:
    verdict: str             # true | false | undetermined
    rows: list
    offending: list

    @property
    def ok(self) -> bool:
        return self.verdict == "true"


def z_condition(b: int, m: int, Z: int, s: int) -> ZConditionReport:
    """Z must exceed phi_upper_bound(t)/(t-1) for every t in 2..s.

    Empty windows are satisfied; any uncovered t makes the whole verdict
    undetermined and is listed.
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    rows = []
    offending = []
    any_false = False
    for t in range(2, s + 1):
        pb = phi_upper_bound(t, b, m)
        if pb.kind == "empty":
            rows.append({"t": t, "kind": "empty", "bound": None,
                         "required": None, "ok": True})
        elif pb.kind == "bound":
            required = pb.value / (t - 1)
            ok = Fraction(Z) > required
            rows.append({"t": t, "kind": "bound", "bound": pb.value,
                         "required": required, "ok": ok})
            if not ok:
                any_false = True
        else:
            rows.append({"t": t, "kind": "not_covered", "bound": None,
                         "required": None, "ok": None})
            offending.append(t)
    if offending:
        verdict = "undetermined"
    else:
        verdict = "false" if any_false else "true"
    return ZConditionReport(verdict, rows, offending)

"""Dependence of point sets through degree-m evaluation ranks.

A set of t projective points is m-dependent when the t x C(b+m, m)
matrix of degree-m monomial values drops rank below t.  Everything else
here is built on that one matrix: minimality, s-wise certification,
power-form cross-checks, strong-dependence witnesses, and the exact
rational bookkeeping (m_cap, phi_upper_bound, z_condition) that the
construction plans consume.

Two constructive helpers live at the bottom: a greedy independent-set
extractor for sparse graphs and the two-bases disjoint-span selection
that rides on it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

from .gf import FieldSpec
from .linalg import is_scalar_multiple, left_kernel, rank, solve_coords
from .projgeom import enumerate_multiindices, enumerate_projective, monomial_matrix
from .util import DEFAULT_SUBSET_BUDGET, BudgetExceeded


def _common_spec(points):
    if not points:
        raise ValueError("need at least one point")
    spec = points[0].spec
    dim = points[0].dim
    for pt in points:
        if pt.spec != spec or pt.dim != dim:
            raise ValueError("points live in different spaces")
    return spec, dim


def evaluation_rows(points, m: int):
    """Degree-m monomial values, one row per point, canonical column order."""
    spec, _ = _common_spec(points)
    mat = monomial_matrix(spec, [pt.coords for pt in points], m)
    return spec.enc_array(mat).tolist()


def hilbert_rank(points, m: int) -> int:
    """Rank of the evaluation matrix; duplicates are rejected."""
    spec, _ = _common_spec(points)
    if len(set(pt.coords for pt in points)) != len(points):
        raise ValueError("duplicate points")
    return rank(evaluation_rows(points, m), spec)


@dataclass
class DependenceReport:
    t: int
    m: int
    hilbert_rank: int
    dependent: bool
    minimal: bool | None
    kernel_basis: list


MINIMAL_CAP = 64   # largest dependent set whose minimality is decided
KERNEL_CAP = 4     # largest kernel dimension the strong witness searches


def dependence_classify(points, m: int) -> DependenceReport:
    """Full dependence diagnosis of one point set.

    minimal is None when t exceeds MINIMAL_CAP (each of the t subsets of
    size t-1 needs its own rank).
    """
    spec, _ = _common_spec(points)
    if len(set(pt.coords for pt in points)) != len(points):
        raise ValueError("duplicate points")
    rows = evaluation_rows(points, m)
    t = len(points)
    r = rank(rows, spec)
    dependent = r < t
    if not dependent:
        minimal = False
    elif t > MINIMAL_CAP:
        minimal = None
    else:
        # dependent, and by monotonicity minimal iff every (t-1)-subset
        # keeps full rank
        minimal = all(
            rank(rows[:i] + rows[i + 1:], spec) == t - 1 for i in range(t)
        )
    kern = [tuple(v) for v in left_kernel(rows, spec)]
    return DependenceReport(t, m, r, dependent, minimal, kern)


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


def s_wise_independent(points, s: int, m: int,
                       budget: int = DEFAULT_SUBSET_BUDGET) -> SWiseCheck:
    """No s distinct points are m-dependent.

    Searches every s-subset, so a pass is a certificate; when C(n, s)
    exceeds the budget it raises BudgetExceeded instead of searching.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    spec, _ = _common_spec(points)
    n = len(points)
    if n < s:
        return SWiseCheck(None, 0, 0, "vacuous")
    total = comb(n, s)
    if total > budget:
        raise BudgetExceeded("C(%d, %d) = %d subsets exceed budget %d"
                             % (n, s, total, budget))
    rows = evaluation_rows(points, m)
    for combo in itertools.combinations(range(n), s):
        if rank([rows[i] for i in combo], spec) < s:
            return SWiseCheck(combo, 0, total, "exhaustive")
    return SWiseCheck(None, total, total, "exhaustive")


# ---------------------------------------------------------------------------
# power form


def power_rows(points, m: int):
    """Coefficient rows of the m-th powers of the attached linear forms.

    Valid only when the characteristic strictly exceeds m; otherwise some
    multinomial coefficient vanishes mod p and the expansion misrepresents
    the forms, so we refuse.
    """
    spec, b = _common_spec(points)
    if spec.p <= m:
        raise ValueError(
            "power form needs characteristic > m (p = %d, m = %d)" % (spec.p, m)
        )
    multinom = [factorial(m) // prod(map(factorial, beta)) % spec.p
                for beta in enumerate_multiindices(b, m)]
    return [[spec.mul(mn, v) for mn, v in zip(multinom, row)]
            for row in evaluation_rows(points, m)]


def power_rank(points, m: int) -> int:
    spec, _ = _common_spec(points)
    return rank(power_rows(points, m), spec)


def strong_dependence_witness(points, m: int):
    """All-nonzero left-kernel vector of the evaluation matrix, or None.

    Such a vector certifies a product relation among the attached linear
    forms in any characteristic; when char > m it is equally a kernel
    vector of the power matrix (the two differ by nonzero column scalings).
    Preconditions: the points span the ambient space, and the kernel
    dimension stays within KERNEL_CAP (the search is projective over F_q;
    else BudgetExceeded).
    """
    spec, b = _common_spec(points)
    coord_rows = [list(pt.coords) for pt in points]
    if rank(coord_rows, spec) != b + 1:
        raise ValueError("points do not span the ambient space")
    rows = evaluation_rows(points, m)
    kern = left_kernel(rows, spec)
    d = len(kern)
    if d == 0:
        return None
    if d > KERNEL_CAP:
        raise BudgetExceeded("kernel dimension %d exceeds cap %d" % (d, KERNEL_CAP))
    t = len(points)
    for combo in enumerate_projective(spec, d - 1):
        cand = [0] * t
        for lam, kv in zip(combo.coords, kern):
            if lam:
                for i in range(t):
                    cand[i] = spec.add(cand[i], spec.mul(lam, kv[i]))
        if all(cand):
            return tuple(cand)
    return None


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


# ---------------------------------------------------------------------------
# constructive selections


def independent_set_third(n: int, edges) -> list:
    """Independent set of size >= ceil(n/3) in a graph with <= n edges.

    Greedy minimum degree (ties to the lowest index): removing a minimum
    degree vertex and its closed neighborhood costs at most 1 from the
    sum of 1/(deg+1), so the greedy set reaches that sum, which is at
    least n/3 when the average degree is at most 2.
    """
    dedup = set()
    for (u, v) in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("edge endpoint out of range")
        if u == v:
            raise ValueError("self-loops are not allowed")
        dedup.add((min(u, v), max(u, v)))
    if len(dedup) > n:
        raise ValueError("too many edges: %d > %d vertices" % (len(dedup), n))
    adj = {v: set() for v in range(n)}
    for (u, v) in dedup:
        adj[u].add(v)
        adj[v].add(u)
    alive = set(range(n))
    chosen = []
    while alive:
        v = min(alive, key=lambda x: (len(adj[x] & alive), x))
        chosen.append(v)
        dead = (adj[v] & alive) | {v}
        alive -= dead
    chosen.sort()
    assert len(chosen) >= -(-n // 3)
    assert all(
        (min(u, v), max(u, v)) not in dedup
        for u, v in itertools.combinations(chosen, 2)
    )
    return chosen


def disjoint_span_subset(spec: FieldSpec, basis_a, basis_b) -> list:
    """Indices C into basis_a, |C| >= ceil(n/3), with span(C) missing basis_b.

    Both arguments must be bases of F_q^n with no vector of one a scalar
    multiple of a vector of the other.  Each basis_b vector's support in
    basis_a coordinates has size >= 2; shrinking every support to its
    first two indices leaves at most n edges, and an independent set of
    that graph spans nothing of basis_b (every support keeps a coordinate
    outside C).
    """
    n = len(basis_a)
    if len(basis_b) != n or n < 2:
        raise ValueError("need two bases of the same dimension n >= 2")
    if any(len(v) != n for v in basis_a) or any(len(v) != n for v in basis_b):
        raise ValueError("vectors must have length n")
    if rank([list(v) for v in basis_a], spec) != n:
        raise ValueError("first family is not a basis")
    if rank([list(v) for v in basis_b], spec) != n:
        raise ValueError("second family is not a basis")
    for u in basis_b:
        for v in basis_a:
            if is_scalar_multiple(u, v, spec):
                raise ValueError("bases share a direction (scalar multiple)")
    edges = set()
    for u in basis_b:
        coords = solve_coords(basis_a, u, spec)
        support = [i for i, c in enumerate(coords) if c]
        if len(support) < 2:
            raise RuntimeError("support collapsed despite multiple-freeness")
        edges.add((support[0], support[1]))
    chosen = independent_set_third(n, sorted(edges))
    sub = [basis_a[i] for i in chosen]
    for u in basis_b:
        if rank([list(v) for v in sub] + [list(u)], spec) != len(sub) + 1:
            raise RuntimeError("span verification failed")
    return chosen

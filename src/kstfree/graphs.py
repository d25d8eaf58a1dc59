"""Sided bipartite constructions, their plans, and their verdicts.

Two pipelines produce graphs: a dense one whose adjacency comes from a
random bihomogeneous form on a certified variety, and a lopsided one
anchored on coordinate points.  Both are deterministic in (plan, seed):
the master stream is split into the fixed sub-streams named by the
STREAM_* constants (0 variety builder, 1 and 2 left and right cutting
forms, 3 adjacency form), so a reconstruction from the same inputs is
byte-identical.

Verdicts read the adjacency and the plan, never the seed or a sample: a side
is searched exhaustively when its subsets fit the budget, and bounded
by its degrees when they do not.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from math import comb

import numpy as np

from .gf import FieldSpec, field_for_order, make_field
from .independence import m_cap, z_condition
from .polyrand import SeededRng, eval_bihom_grid, random_bihom, random_hom
from .projgeom import parse_ids, point_ids
from .util import (
    DEFAULT_POINT_BUDGET,
    DEFAULT_SUBSET_BUDGET,
    BudgetExceeded,
    dec12,
    frac_json,
    floor_scaled_power,
    iroot,
    parse_frac,
)
from .variety import (BuildConfig, VarietySpec, build_independent_variety,
                      fq_point_array, slice_points)


class CertificationError(RuntimeError):
    """A pipeline stage failed its certificate.  Retrying with another
    seed may succeed unless `seeded` is False: the failure follows from
    the plan alone, and every seed fails alike."""

    def __init__(self, message: str, seeded: bool = True):
        super().__init__(message)
        self.seeded = seeded


# Sub-streams of the master stream SeededRng(seed); each has one consumer.
STREAM_VARIETY = 0
STREAM_LEFT_CUT = 1
STREAM_RIGHT_CUT = 2
STREAM_ADJACENCY = 3


# ---------------------------------------------------------------------------
# the graph container


_JSON_KINDS = {int: "an integer", dict: "an object", list: "a list",
               str: "a string"}


def _json_typed(name: str, value, kind: type = int, optional: bool = False):
    """A loaded value of exactly this type (a bool is no int), or None."""
    if value is None and optional:
        return None
    if type(value) is not kind:
        raise ValueError("%s = %r is not %s" % (name, value, _JSON_KINDS[kind]))
    return value


def _json_keys(name: str, doc: dict, keys) -> None:
    """Refuse a loaded object with a missing or an unknown key."""
    if set(doc) != set(keys):
        raise ValueError("%s has keys %s, not %s"
                         % (name, sorted(doc), sorted(keys)))


def _check_vertex_ids(spec: FieldSpec, side: str, ids, dim: int | None):
    """Ids are strings; under a plan (dim given), canonical points of P^dim
    (`projgeom.parse_ids`).  The error names the first id that fails."""
    if not isinstance(ids, list) or any(type(v) is not str for v in ids):
        raise ValueError("%s vertex ids are not a list of strings" % side)
    if dim is None:
        return
    _, n = parse_ids(spec, ids, dim)
    if n < len(ids):
        raise ValueError("%s vertex id %r is not a canonical point of "
                         "P^%s(F_%d)" % (side, ids[n], dim, spec.order))


def _edge_matrix(edges: list, n_left: int, n_right: int) -> np.ndarray:
    """The adjacency matrix of a loaded edge list; refuses a bad edge.

    The bulk checks accept almost every document; a list they refuse is
    walked edge by edge, which names the first bad edge and its fault.
    """
    # bool is an int subclass, so test the exact type
    if (set(map(type, edges)) <= {list} and set(map(len, edges)) <= {2}
            and set(map(type, itertools.chain.from_iterable(edges))) <= {int}):
        try:
            ij = np.fromiter(itertools.chain.from_iterable(edges), np.int64,
                             2 * len(edges)).reshape(len(edges), 2)
        except OverflowError:  # past int64, so past either side too
            ij = None
        if ij is not None and ((ij >= 0) & (ij < (n_left, n_right))).all():
            adj = np.zeros((n_left, n_right), dtype=bool)
            adj[ij[:, 0], ij[:, 1]] = True
            if np.count_nonzero(adj) == len(edges):
                return adj
    adj = np.zeros((n_left, n_right), dtype=bool)
    for edge in edges:
        if (not isinstance(edge, list) or len(edge) != 2
                or any(type(x) is not int for x in edge)):
            raise ValueError("edge %r is not a pair of integers" % (edge,))
        i, j = edge
        if not (0 <= i < n_left and 0 <= j < n_right):
            raise ValueError("edge %r names a missing vertex" % (edge,))
        if adj[i, j]:
            raise ValueError("duplicate edge in document")
        adj[i, j] = True
    return adj


class SidedGraph:
    """Bipartite graph with an ordered left and right side.

    Adjacency is one bool matrix `adj` of shape (len(left), len(right)):
    adj[i, j] is the edge between the i-th left and the j-th right
    vertex.  Instances are immutable by convention once built.
    """

    def __init__(self, spec: FieldSpec, left, right, adj, plan=None,
                 seed=None):
        left = list(left)
        right = list(right)
        adj = np.asarray(adj)
        if len(set(left)) != len(left) or len(set(right)) != len(right):
            raise ValueError("duplicate vertex ids within a side")
        if adj.dtype != bool or adj.shape != (len(left), len(right)):
            raise ValueError("adjacency must be a bool matrix of shape "
                             "(%d, %d)" % (len(left), len(right)))
        self.spec = spec
        self.left = left
        self.right = right
        self.adj = adj
        self.plan = plan
        self.seed = seed

    @property
    def num_edges(self) -> int:
        return int(np.count_nonzero(self.adj))

    def to_json(self) -> dict:
        return {
            "kind": "sided",
            "field": {"p": self.spec.p, "k": self.spec.k},
            "plan": None if self.plan is None else self.plan.to_json(),
            "seed": self.seed,
            "left": list(self.left),
            "right": list(self.right),
            "edges": np.argwhere(self.adj).tolist(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SidedGraph":
        """Load a graph document, rejecting any edge or plan it cannot hold."""
        if not isinstance(doc, dict) or doc.get("kind") != "sided":
            raise ValueError("not a sided graph document")
        _json_keys("graph", doc, ("kind", "field", "plan", "seed", "left",
                                  "right", "edges"))
        field = _json_typed("field", doc["field"], dict)
        _json_keys("field", field, ("p", "k"))
        spec = make_field(_json_typed("field.p", field["p"]),
                          _json_typed("field.k", field["k"]))
        plan = doc["plan"]
        left_dim = right_dim = None
        if plan is not None:
            plan = ConstructionPlan.from_json(plan)
            if plan.q != spec.order:
                raise ValueError("plan order q = %r is not the field order %d"
                                 % (plan.q, spec.order))
            right_dim = left_dim = plan.b
            if plan.kind == "zarankiewicz":
                left_dim = _json_typed("plan.a", plan.a)
        _check_vertex_ids(spec, "left", doc["left"], left_dim)
        _check_vertex_ids(spec, "right", doc["right"], right_dim)
        adj = _edge_matrix(_json_typed("edges", doc["edges"], list),
                           len(doc["left"]), len(doc["right"]))
        return cls(spec, doc["left"], doc["right"], adj, plan=plan,
                   seed=_json_typed("seed", doc["seed"], optional=True))


# ---------------------------------------------------------------------------
# plans


@dataclass
class ConstructionPlan:
    kind: str                 # turan | zarankiewicz
    s: int
    m: int
    r: int
    Z: int | None             # turan only
    T: int | None             # zarankiewicz only
    b: int
    q: int | None
    a: int | None             # zarankiewicz left ambient dimension
    delta: tuple
    t_threshold: int
    c: Fraction
    mode: str                 # desk | theorem
    headline_log10: str | None = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind, "s": self.s, "m": self.m, "r": self.r,
            "Z": self.Z, "T": self.T, "b": self.b, "q": self.q,
            "a": self.a, "delta": list(self.delta),
            "t_threshold": self.t_threshold, "c": frac_json(self.c),
            "mode": self.mode, "headline_log10": self.headline_log10,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ConstructionPlan":
        """Load a desk plan that `plan_construction` derives from its inputs
        (kind, s, m, r, Z, T, q, c) exactly; else name the first key that
        differs.  So that a small document cannot ask for a huge power,
        delta must first have r entries, t_threshold the bits m^(s+Z) < t
        needs, and a zarankiewicz width a the bits c * q^(T/s) < a+1 needs.
        """
        doc = _json_typed("plan", doc, dict)
        _json_keys("plan", doc, (f.name for f in fields(cls)))
        s, m, r = (_json_typed("plan." + key, doc[key])
                   for key in ("s", "m", "r"))
        Z, T, q = (_json_typed("plan." + key, doc[key], optional=True)
                   for key in ("Z", "T", "q"))
        c = parse_frac(doc["c"])
        delta = _json_typed("plan.delta", doc["delta"], list)
        if len(delta) != r:
            raise ValueError("plan.delta has %d entries, not r = %d"
                             % (len(delta), r))
        t_bits = _json_typed("plan.t_threshold", doc["t_threshold"]).bit_length()
        need = (s + (Z or 0)) * (m.bit_length() - 1)
        if m >= 2 and t_bits < need:
            raise ValueError("plan.t_threshold has %d bits, fewer than the %d "
                             "that m^(s+Z) needs" % (t_bits, need))
        if doc["kind"] == "zarankiewicz" and q is not None and T is not None:
            a = _json_typed("plan.a", doc["a"])
            room = s * ((a + 1).bit_length() + c.denominator.bit_length())
            if T * (q.bit_length() - 1) >= room:
                raise ValueError("plan.a = %d is too short for c * q^(T/s)"
                                 % a)
        plan = plan_construction(doc["kind"], s, c=c, m=m, r=r, Z=Z, T=T, q=q)
        # compare serialisations, not values: True == 1 and "2/4" -> 1/2
        for key, value in plan.to_json().items():
            if json.dumps(doc[key]) != json.dumps(value):
                raise ValueError("plan.%s = %r is not %r, which its inputs "
                                 "derive" % (key, doc[key], value))
        return plan

    @property
    def orientation(self) -> str:
        """Sides the K_{s,t} verdict anchors on."""
        return "both" if self.kind == "turan" else "left_only"


def _delta_ledger(r: int, target: int) -> tuple:
    return tuple(m_cap(r - i + 1, target) for i in range(1, r + 1))


def _refuse_unaddressable(q: int | None, b: int) -> None:
    """ValueError when q^b >= 2^63: the zero-set walk's int64 grid indices
    cannot address P^b(F_q), under any point budget.  With L the bit length
    of q, 2^(L-1) <= q < 2^L, so b(L-1) >= 63 refuses and bL <= 63 accepts
    without computing q^b, which is computed only for b < 63.
    """
    if q is None:
        return
    bits = q.bit_length()
    if b * (bits - 1) >= 63 or (b * bits > 63 and q**b >= 1 << 63):
        raise ValueError("q^b = %d^%d is at least 2^63, beyond the int64 grid "
                         "indices that address P^b(F_q)" % (q, b))


def plan_construction(kind: str, s: int, mode: str = "desk", *, m=None,
                      r=None, Z=None, T=None, q=None, c=None) -> ConstructionPlan:
    """Resolve all derived parameters for one construction.

    Theorem mode computes the headline parameter choices from s alone
    (for reporting; the resulting sizes are far beyond desk scale).  Desk
    mode takes explicit small parameters and validates the inequalities
    the pipeline depends on, naming the violated one.
    """
    if kind not in ("turan", "zarankiewicz"):
        raise ValueError("kind must be turan or zarankiewicz")
    if s < 2:
        raise ValueError("s must be >= 2")
    c = Fraction(1, 4) if c is None else Fraction(c)
    if c < 0:
        raise ValueError("c must be nonnegative")
    if mode == "theorem":
        if kind == "turan":
            m = 3
            r = iroot(6 * s * s, 3)
            Z = s + r + 3
            b = r + s + Z
            delta = _delta_ledger(r, s * s)
            t_threshold = m ** (s + Z) * math.prod(delta) + 1
            headline = dec12(s * math.log10(9)
                             + 4 * s ** (2 / 3) * math.log10(s))
            return ConstructionPlan(kind, s, m, r, Z, None, b, None, None,
                                    delta, t_threshold, c, mode, headline)
        m = 3 if m is None else m
        r = math.ceil(s / math.log(s))
        T = comb(r + 1 + m, m)
        b = r + s
        delta = _delta_ledger(r, T)
        t_threshold = m**s * math.prod(delta) + 1
        return ConstructionPlan(kind, s, m, r, None, T, b, None, None,
                                delta, t_threshold, c, mode, None)
    if mode != "desk":
        raise ValueError("mode must be desk or theorem")
    if q is not None:
        field_for_order(q)  # refuses an order no field has, or over the cap
    if kind == "turan":
        if m is None or r is None or Z is None:
            raise ValueError("desk mode needs explicit m, r, Z")
        if m < 1 or r < 0 or Z < 0:
            raise ValueError("need m >= 1, r >= 0, Z >= 0")
        if comb(m + 1 + r, m) < s * s:
            raise ValueError(
                "violated: C(m+1+r, m) >= s^2 (C(%d, %d) = %d < %d)"
                % (m + 1 + r, m, comb(m + 1 + r, m), s * s)
            )
        b = r + s + Z
        _refuse_unaddressable(q, b)
        zrep = z_condition(b, m, Z, s)
        if zrep.verdict == "false":
            bad = [row for row in zrep.rows if row["ok"] is False]
            raise ValueError(
                "violated: Z > bound/(t-1) at t = %d (needs Z > %s, have %d)"
                % (bad[0]["t"], bad[0]["required"], Z)
            )
        if q is not None and floor_scaled_power(c, q, s, 1) == 0:
            # the same for every seed: each side keeps floor(c q^s) points
            raise ValueError("truncation target floor(c * q^s) is zero at "
                             "c = %s, q = %d; both sides would be empty"
                             % (c, q))
        delta = _delta_ledger(r, s * s)
        t_threshold = m ** (s + Z) * math.prod(delta) + 1
        return ConstructionPlan(kind, s, m, r, Z, None, b, q, None, delta,
                                t_threshold, c, mode, None)
    if T is None or r is None or m is None:
        raise ValueError("desk mode needs explicit T, r, m")
    if m < 1 or r < 0 or T < 1:
        raise ValueError("need m >= 1, r >= 0, T >= 1")
    if T > comb(r + 1 + m, m):
        raise ValueError(
            "violated: T <= C(r+1+m, m) (%d > C(%d, %d) = %d)"
            % (T, r + 1 + m, m, comb(r + 1 + m, m))
        )
    b = r + s
    _refuse_unaddressable(q, b)
    delta = _delta_ledger(r, T)
    t_threshold = m**s * math.prod(delta) + 1
    a = None if q is None else floor_scaled_power(c, q, T, s)
    if a == 0:
        # the same for every seed: the left side is the first a
        # coordinate points of P^a
        raise ValueError("left width floor(c * q^(T/s)) is zero at c = %s, "
                         "q = %d; the left side would be empty" % (c, q))
    return ConstructionPlan(kind, s, m, r, None, T, b, q, a, delta,
                            t_threshold, c, mode, None)


# ---------------------------------------------------------------------------
# neighborhood search and verdicts


@dataclass
class CommonNbhd:
    size: int                 # exact, or an upper bound in degree mode
    subset: tuple | None      # a subset attaining size; None in degree mode
    certified: bool
    checked: int
    total: int
    mode: str                 # exhaustive | degree | empty

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "subset": None if self.subset is None else list(self.subset),
            "certified": self.certified, "checked": self.checked,
            "total": self.total, "mode": self.mode,
        }


def _side_adj(g: SidedGraph, side: str) -> np.ndarray:
    """One row per vertex of `side`, one column per vertex opposite it."""
    if side == "left":
        return g.adj
    if side == "right":
        return g.adj.T
    raise ValueError("side must be left or right")


def _common(rows: np.ndarray, subset) -> np.ndarray:
    """Bool mask of the vertices adjacent to every row in `subset`."""
    return rows[list(subset)].all(axis=0)


def _gram_dtype(width: int):
    """The narrowest float that holds every integer up to width exactly."""
    return np.float32 if width <= 1 << 24 else np.float64


def _exhaustive_max(rows: np.ndarray, s: int):
    """(size, subset) of the first largest common neighbourhood, s <= n.

    For s = 1 that is the largest row sum.  For s >= 2 each (s-2)-prefix
    P, in canonical order, is extended by the pair u < v after it whose
    rows, masked by P's common neighbourhood, have the largest inner
    product: the first maximum of the strict upper triangle of their
    Gram matrix.  Its entries count common neighbours, and every partial
    sum of one is an integer between 0 and the row length, so the product
    is exact in any float that holds those integers: float32 for rows of
    at most 2^24 entries (`_gram_dtype`), float64 above that.  Ties keep
    the earlier subset, so the answer is the first maximum in
    itertools.combinations order.  Masking the diagonal alone finds it:
    the Gram matrix is symmetric, so a maximum at (i, j), j < i, has its
    equal (j, i) earlier in row-major order.
    """
    if s == 1:
        sums = np.count_nonzero(rows, axis=1)
        i = int(sums.argmax())
        return int(sums[i]), (i,)
    n, dt = len(rows), _gram_dtype(rows.shape[1])
    best, best_sub = -1, None
    for prefix in itertools.combinations(range(n - 2), s - 2):
        start = prefix[-1] + 1 if prefix else 0
        x = (rows[start:] & _common(rows, prefix)).astype(dt)
        gram = x @ x.T
        np.fill_diagonal(gram, -1)
        u, v = divmod(int(gram.argmax()), len(x))
        size = int(gram[u, v])
        if size > best:
            best, best_sub = size, prefix + (start + u, start + v)
    return best, best_sub


def max_common_neighborhood(g: SidedGraph, s: int, side: str = "left",
                            budget: int = DEFAULT_SUBSET_BUDGET) -> CommonNbhd:
    """Largest common neighborhood over s-subsets of one side.

    Exhaustive when the C(n, s) subsets fit the budget: every subset is
    counted as checked, and `_exhaustive_max` reads them from one Gram
    product per (s-2)-prefix (ties keep the first subset in canonical
    order).  Beyond the budget no subset is checked: s vertices share at
    most the smallest of their degrees, so the s-th largest degree of
    the side is returned as a proved upper bound (mode "degree", no
    subset), not as an attained size.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    rows = _side_adj(g, side)
    n = len(rows)
    if n < s:
        return CommonNbhd(0, None, True, 0, 0, "empty")
    total = comb(n, s)
    if total <= budget:
        best, best_sub = _exhaustive_max(rows, s)
        return CommonNbhd(best, best_sub, True, total, total, "exhaustive")
    degrees = np.count_nonzero(rows, axis=1)
    bound = int(np.partition(degrees, n - s)[n - s])
    return CommonNbhd(bound, None, True, 0, total, "degree")


@dataclass
class KstVerdict:
    s: int
    t: int
    orientation: str          # both | left_only
    free: bool | None         # None = undetermined (a degree bound >= t)
    certified: bool
    witness: dict | None      # {"side", "anchors", "neighbors"}
    sides: dict               # anchored side -> CommonNbhd

    def to_json(self) -> dict:
        return {
            "s": self.s, "t": self.t, "orientation": self.orientation,
            "free": self.free, "certified": self.certified,
            "witness": None if self.witness is None else {
                "side": self.witness["side"],
                "anchors": list(self.witness["anchors"]),
                "neighbors": list(self.witness["neighbors"]),
            },
            "sides": {k: v.to_json() for k, v in self.sides.items()},
        }


def _anchored_sides(orientation: str) -> tuple:
    """The sides a K_{s,t} verdict of this orientation reads."""
    if orientation == "both":
        return ("left", "right")
    if orientation == "left_only":
        return ("left",)
    raise ValueError("orientation must be both or left_only")


def kst_verdict(g: SidedGraph, s: int, t: int, searches: dict,
                orientation: str = "both") -> KstVerdict:
    """Judge whether s vertices on the anchored side(s) share t neighbors.

    `searches` maps each anchored side to its max_common_neighborhood
    result at this s.  A side whose size (exact, or a degree upper
    bound) is below t is certified free; a subset sharing t or more
    neighbors is a certified violation with its witness; a degree bound
    at or above t leaves the side undetermined.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    per_side = {side: searches[side] for side in _anchored_sides(orientation)}
    witness = None
    undetermined = False
    for side, mcn in per_side.items():
        if mcn.size < t:
            continue
        if mcn.subset is None:
            undetermined = True
        elif witness is None:
            common = _common(_side_adj(g, side), mcn.subset)
            witness = {
                "side": side,
                "anchors": tuple(mcn.subset),
                "neighbors": tuple(np.flatnonzero(common)[:t].tolist()),
            }
    if witness is not None:
        return KstVerdict(s, t, orientation, False, True, witness, per_side)
    if undetermined:
        return KstVerdict(s, t, orientation, None, False, None, per_side)
    return KstVerdict(s, t, orientation, True, True, None, per_side)


# ---------------------------------------------------------------------------
# density


@dataclass
class DensityReport:
    edges: int
    plain_ratio: float        # |E| / q^(2s-1)
    turan_ratio: float | None
    turan_ok: bool | None
    zar_ratio: float | None
    zar_ok: bool | None
    kst_ratio: float

    def to_json(self) -> dict:
        return {
            "edges": self.edges,
            "plain_ratio": dec12(self.plain_ratio),
            "turan_ratio": None if self.turan_ratio is None else dec12(self.turan_ratio),
            "turan_ok": self.turan_ok,
            "zar_ratio": None if self.zar_ratio is None else dec12(self.zar_ratio),
            "zar_ok": self.zar_ok,
            "kst_ratio": dec12(self.kst_ratio),
        }


def density_report(g: SidedGraph, plan: ConstructionPlan | None) -> DensityReport:
    """Edge-count ratios against the plan's targets, verdicts exact.

    The pass verdicts compare integers (the rational constant cleared of
    denominators), so they do not inherit float rounding.
    """
    e = g.num_edges
    nl, nr = len(g.left), len(g.right)
    kst_ratio = 0.0
    if e and nl and nr:
        kst_ratio = e / (nl * nr ** (1 - 1 / (plan.s if plan else 2)))
    plain = 0.0
    turan_ratio = turan_ok = zar_ratio = zar_ok = None
    if plan is not None and plan.q is not None:
        q, s = plan.q, plan.s
        cn, cd = plan.c.numerator, plan.c.denominator
        plain = e / q ** (2 * s - 1)
        if plan.kind == "turan":
            # |E| >= (1/2) c^2 q^(2s-1)
            turan_ok = 2 * e * cd * cd >= cn * cn * q ** (2 * s - 1)
            denom = Fraction(cn * cn * q ** (2 * s - 1), 2 * cd * cd)
            turan_ratio = 0.0 if denom == 0 else float(Fraction(e) / denom)
        else:
            # |E| >= (1/4) c q^(T/s + s - 1), compared at the s-th power
            zar_ok = (4 * e * cd) ** s >= cn**s * q ** (plan.T + s * s - s)
            target = (cn / cd) * q ** (plan.T / s + s - 1) / 4
            zar_ratio = 0.0 if target == 0 else e / target
    return DensityReport(e, plain, turan_ratio, turan_ok, zar_ratio, zar_ok,
                         kst_ratio)


# ---------------------------------------------------------------------------
# trial reports


@dataclass
class TrialReport:
    kst: KstVerdict           # its `sides` hold each side's one search
    density: DensityReport
    seed: int | None
    kind: str
    n_left: int
    n_right: int
    n_edges: int
    t_threshold: int
    sides_full: bool
    builder: dict | None      # variety certification summary
    subset_budget: int        # the budget the sides were searched at

    @property
    def passed(self) -> bool:
        """Full sides, certified K_{s,t}-free, and at the density target."""
        dense = (self.density.turan_ok if self.kind == "turan"
                 else self.density.zar_ok)
        return bool(self.sides_full and dense and self.kst.free is True
                    and self.kst.certified)

    def to_json(self) -> dict:
        return {
            "kst": self.kst.to_json(),
            "density": self.density.to_json(),
            "seed": self.seed,
            "kind": self.kind,
            "n_left": self.n_left,
            "n_right": self.n_right,
            "n_edges": self.n_edges,
            "t_threshold": self.t_threshold,
            "sides_full": self.sides_full,
            "builder": self.builder,
            "passed": self.passed,
            "subset_budget": self.subset_budget,
        }


def trial_report(graph: SidedGraph, budget: int = DEFAULT_SUBSET_BUDGET,
                 builder: dict | None = None) -> TrialReport:
    """The whole report of a planned graph, from its adjacency and plan.

    Each anchored side is searched once at the subset budget; the seed is
    copied, never read.  The sides are full when each turan side holds
    floor(c * q^s) points, or when the zarankiewicz right side holds at
    least half the q^(b-r) that its r cutting forms leave of P^b.
    """
    plan = graph.plan
    mc = {side: max_common_neighborhood(graph, plan.s, side, budget=budget)
          for side in _anchored_sides(plan.orientation)}
    n_left, n_right = len(graph.left), len(graph.right)
    if plan.kind == "turan":
        n_target = floor_scaled_power(plan.c, plan.q, plan.s, 1)
        sides_full = n_left == n_target and n_right == n_target
    else:
        sides_full = 2 * n_right * plan.q**plan.r >= plan.q**plan.b
    return TrialReport(kst_verdict(graph, plan.s, plan.t_threshold, mc,
                                   plan.orientation),
                       density_report(graph, plan), graph.seed, plan.kind,
                       n_left, n_right, graph.num_edges, plan.t_threshold,
                       sides_full, builder, budget)


def _refuse_oversized_forms(plan: ConstructionPlan, a: int,
                            point_cap: int) -> None:
    """BudgetExceeded, before any draw, if a form the plan draws would hold
    more than point_cap coefficients: C(b+d, d) for a cutting form of
    degree d, C(a+m, m) * C(b+m, m) for the adjacency form on P^a x P^b.
    A variety form (degree m on P^b) is never larger than the adjacency
    form.  The verdict is the same for every seed.
    """
    sizes = [("degree-%d cutting form" % d, comb(plan.b + d, d))
             for d in plan.delta]
    sizes.append(("adjacency form",
                  comb(a + plan.m, plan.m) * comb(plan.b + plan.m, plan.m)))
    for name, size in sizes:
        if size > point_cap:
            raise BudgetExceeded("the %s holds %d coefficients, over the "
                                 "point budget %d" % (name, size, point_cap))


def construct_turan(plan: ConstructionPlan, master_seed: int, *,
                    point_cap: int = DEFAULT_POINT_BUDGET,
                    subset_budget: int = DEFAULT_SUBSET_BUDGET):
    """Dense pipeline: certified variety, two sliced sides, one form.

    Stream 0 builds the variety W, streams 1 and 2 draw the left and
    right cutting forms H and H', stream 3 the adjacency form.  Each side
    is a slice of W, the points of W where its cutting forms vanish,
    truncated to its initial segment (canonical point order) of
    floor(c * q^s) vertices.  The builder holds W as its walk's chart
    masks, and both sides are cut from them in one pass that stops as
    each side fills (`variety.slice_points`): no side walks P^b, and rows
    are built only for the kept vertices.
    """
    if plan.kind != "turan" or plan.mode != "desk":
        raise ValueError("need a desk-mode turan plan")
    if plan.q is None:
        raise ValueError("plan carries no field order")
    spec = field_for_order(plan.q)
    n_target = floor_scaled_power(plan.c, plan.q, plan.s, 1)
    if n_target == 0:
        raise CertificationError("truncation target is zero; both sides empty",
                                 seeded=False)
    _refuse_oversized_forms(plan, plan.b, point_cap)
    base = SeededRng(master_seed)
    cfg = BuildConfig(b=plan.b, num_forms=plan.Z, degree=plan.m, s=plan.s,
                      point_cap=point_cap, subset_budget=subset_budget)
    built = build_independent_variety(spec, cfg,
                                      base.derive(STREAM_VARIETY))
    if not built.certified:
        # with no forms drawn, every seed's builder walks the same W
        raise CertificationError(
            "variety certification failed after %d attempts (rejections: %r)"
            % (built.attempts, built.failure_tally),
            seeded=bool(built.variety.forms))
    rng_h = base.derive(STREAM_LEFT_CUT)
    rng_hp = base.derive(STREAM_RIGHT_CUT)
    hs = tuple(random_hom(spec, plan.b, d, rng_h) for d in plan.delta)
    hps = tuple(random_hom(spec, plan.b, d, rng_hp) for d in plan.delta)
    left_enc, right_enc = slice_points(
        (VarietySpec(spec, plan.b, hs), VarietySpec(spec, plan.b, hps)),
        built.masks, n_target)
    if len(left_enc) == 0 or len(right_enc) == 0:
        raise CertificationError("a side came out empty")
    g = random_bihom(spec, plan.b, plan.b, plan.m, plan.m,
                     base.derive(STREAM_ADJACENCY))
    adj = eval_bihom_grid(g, left_enc, right_enc) == 0
    graph = SidedGraph(spec, point_ids(spec, left_enc),
                       point_ids(spec, right_enc), adj, plan=plan,
                       seed=master_seed)
    builder_info = {
        "attempts": built.attempts,
        "rejections": built.failure_tally,
        "n_points": built.n_points,
        "target_dim": built.target_dim,
        "probe_counts": (None if built.probe is None
                         else {str(e): c for e, c in built.probe.counts.items()}),
        "swise_mode": built.swise.mode if built.swise else None,
    }
    return graph, trial_report(graph, subset_budget, builder_info)


def construct_zar(plan: ConstructionPlan, master_seed: int, *,
                  point_cap: int = DEFAULT_POINT_BUDGET,
                  subset_budget: int = DEFAULT_SUBSET_BUDGET):
    """Lopsided pipeline: coordinate-point left side, sliced right side.

    The left side is the first floor(c * q^(T/s)) coordinate points of
    P^a with a = |L|; they are linearly independent, so every subset is
    independent at any degree.
    """
    if plan.kind != "zarankiewicz" or plan.mode != "desk":
        raise ValueError("need a desk-mode zarankiewicz plan")
    if plan.q is None or plan.a is None:
        raise ValueError("plan carries no field order")
    spec = field_for_order(plan.q)
    a = plan.a
    if a < 1:
        raise CertificationError("left side is empty at this c and q",
                                 seeded=False)
    _refuse_oversized_forms(plan, a, point_cap)
    base = SeededRng(master_seed)
    rng_hp = base.derive(STREAM_RIGHT_CUT)
    hps = [random_hom(spec, plan.b, d, rng_hp) for d in plan.delta]
    right_var = VarietySpec(spec, plan.b, tuple(hps))
    right_enc = fq_point_array(right_var, cap=point_cap)
    if len(right_enc) == 0:
        raise CertificationError("right side came out empty")
    left_enc = np.zeros((a, a + 1), dtype=np.int64)
    for i in range(a):
        left_enc[i, i] = 1
    g = random_bihom(spec, a, plan.b, plan.m, plan.m,
                     base.derive(STREAM_ADJACENCY))
    adj = eval_bihom_grid(g, left_enc, right_enc) == 0
    graph = SidedGraph(spec, point_ids(spec, left_enc),
                       point_ids(spec, right_enc), adj, plan=plan,
                       seed=master_seed)
    return graph, trial_report(graph, subset_budget)

"""Sided bipartite constructions, planners, and the verification suite.

Two pipelines produce graphs: a dense one whose adjacency comes from a
random bihomogeneous form on a certified variety, and a lopsided one
anchored on coordinate points.  Both are deterministic in (plan, seed):
the master stream is split into the fixed sub-streams named by the
STREAM_* constants (0 variety builder, 1 and 2 left and right cutting
forms, 3 adjacency form, 4 and 5 the sampled max-common search of the
left and the right side, 6 the zarankiewicz cross-check), so a
reconstruction from the same inputs is byte-identical.

Verification never certifies from a sample: verdicts carry an explicit
certified flag, and the exhaustive paths are the only ones that set it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .gf import FieldSpec, field_for_order, make_field
from .independence import hilbert_rank, m_cap, power_rank, z_condition
from .polyrand import (
    BiHomPoly,
    SeededRng,
    eval_bihom_grid,
    eval_hom_many,
    random_bihom,
    random_hom,
)
from .projgeom import ProjPoint, enumerate_multiindices, monomial_eval, point_to_str
from .util import (
    DEFAULT_POINT_BUDGET,
    DEFAULT_SAMPLE_SUBSETS,
    DEFAULT_SUBSET_BUDGET,
    BudgetExceeded,
    dec12,
    frac_json,
    floor_scaled_power,
    iroot,
    parse_frac,
)
from .variety import BuildConfig, VarietySpec, build_independent_variety, fq_point_array


class CertificationError(RuntimeError):
    """A pipeline stage failed its certificate; retrying may succeed."""


# Sub-streams of the master stream SeededRng(seed); each has one consumer.
STREAM_VARIETY = 0
STREAM_LEFT_CUT = 1
STREAM_RIGHT_CUT = 2
STREAM_ADJACENCY = 3
STREAM_SEARCH = {"left": 4, "right": 5}
STREAM_CROSS_CHECK = 6


# ---------------------------------------------------------------------------
# the graph container


def _mask_to_bits(mask: np.ndarray) -> int:
    packed = np.packbits(mask.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


class SidedGraph:
    """Bipartite graph with an ordered left and right side.

    Adjacency is one integer bitset per left vertex; bit j is the j-th
    right vertex.  Instances are immutable by convention once built.
    """

    def __init__(self, spec: FieldSpec, left, right, rows, plan=None,
                 seed=None):
        left = list(left)
        right = list(right)
        rows = [int(r) for r in rows]
        if len(set(left)) != len(left) or len(set(right)) != len(right):
            raise ValueError("duplicate vertex ids within a side")
        if len(rows) != len(left):
            raise ValueError("adjacency must have one row per left vertex")
        limit = 1 << len(right)
        for r in rows:
            if r < 0 or r >= limit:
                raise ValueError("adjacency row indexes a missing right vertex")
        self.spec = spec
        self.left = left
        self.right = right
        self.rows = rows
        self.plan = plan
        self.seed = seed
        self._cols = None

    @property
    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def columns(self):
        """Transposed bitsets: one integer per right vertex, bit i = left i."""
        if self._cols is None:
            cols = [0] * len(self.right)
            for i, row in enumerate(self.rows):
                r = row
                while r:
                    low = r & -r
                    cols[low.bit_length() - 1] |= 1 << i
                    r ^= low
            self._cols = cols
        return self._cols

    def edges(self):
        for i, row in enumerate(self.rows):
            r = row
            while r:
                low = r & -r
                yield (i, low.bit_length() - 1)
                r ^= low

    def to_json(self) -> dict:
        return {
            "kind": "sided",
            "field": {"p": self.spec.p, "k": self.spec.k},
            "plan": None if self.plan is None else self.plan.to_json(),
            "seed": self.seed,
            "left": list(self.left),
            "right": list(self.right),
            "edges": [[i, j] for i, j in self.edges()],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SidedGraph":
        """Load a graph document, rejecting any edge or plan it cannot hold."""
        if not isinstance(doc, dict) or doc.get("kind") != "sided":
            raise ValueError("not a sided graph document")
        spec = make_field(doc["field"]["p"], doc["field"]["k"])
        n_left, n_right = len(doc["left"]), len(doc["right"])
        rows = [0] * n_left
        for edge in doc["edges"]:
            # bool is an int subclass, so test the exact type
            if (not isinstance(edge, list) or len(edge) != 2
                    or any(type(x) is not int for x in edge)):
                raise ValueError("edge %r is not a pair of integers" % (edge,))
            i, j = edge
            if not (0 <= i < n_left and 0 <= j < n_right):
                raise ValueError("edge %r names a missing vertex" % (edge,))
            if rows[i] >> j & 1:
                raise ValueError("duplicate edge in document")
            rows[i] |= 1 << j
        plan = doc.get("plan")
        if plan is not None:
            plan = ConstructionPlan.from_json(plan)
            if plan.q != spec.order:
                raise ValueError("plan order q = %r is not the field order %d"
                                 % (plan.q, spec.order))
        return cls(spec, doc["left"], doc["right"], rows, plan=plan,
                   seed=doc.get("seed"))


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
        return cls(
            kind=doc["kind"], s=doc["s"], m=doc["m"], r=doc["r"],
            Z=doc["Z"], T=doc["T"], b=doc["b"], q=doc["q"], a=doc["a"],
            delta=tuple(doc["delta"]), t_threshold=doc["t_threshold"],
            c=parse_frac(doc["c"]), mode=doc["mode"],
            headline_log10=doc.get("headline_log10"),
        )

    @property
    def orientation(self) -> str:
        """Sides the K_{s,t} verdict anchors on."""
        return "both" if self.kind == "turan" else "left_only"


def _delta_ledger(r: int, target: int) -> tuple:
    return tuple(m_cap(r - i + 1, target) for i in range(1, r + 1))


def _prod(xs) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


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
            t_threshold = m ** (s + Z) * _prod(delta) + 1
            headline = dec12(s * math.log10(9)
                             + 4 * s ** (2 / 3) * math.log10(s))
            return ConstructionPlan(kind, s, m, r, Z, None, b, None, None,
                                    delta, t_threshold, c, mode, headline)
        m = 3 if m is None else m
        r = math.ceil(s / math.log(s))
        T = comb(r + 1 + m, m)
        b = r + s
        delta = _delta_ledger(r, T)
        t_threshold = m**s * _prod(delta) + 1
        return ConstructionPlan(kind, s, m, r, None, T, b, None, None,
                                delta, t_threshold, c, mode, None)
    if mode != "desk":
        raise ValueError("mode must be desk or theorem")
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
        zrep = z_condition(b, m, Z, s)
        if zrep.verdict == "false":
            bad = [row for row in zrep.rows if row["ok"] is False]
            raise ValueError(
                "violated: Z > bound/(t-1) at t = %d (needs Z > %s, have %d)"
                % (bad[0]["t"], bad[0]["required"], Z)
            )
        delta = _delta_ledger(r, s * s)
        t_threshold = m ** (s + Z) * _prod(delta) + 1
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
    delta = _delta_ledger(r, T)
    t_threshold = m**s * _prod(delta) + 1
    a = None if q is None else floor_scaled_power(c, q, T, s)
    return ConstructionPlan(kind, s, m, r, None, T, b, q, a, delta,
                            t_threshold, c, mode, None)


# ---------------------------------------------------------------------------
# neighborhood search and verdicts


@dataclass
class CommonNbhd:
    size: int
    subset: tuple | None
    certified: bool
    checked: int
    total: int
    mode: str                 # exhaustive | sampled | empty

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "subset": None if self.subset is None else list(self.subset),
            "certified": self.certified, "checked": self.checked,
            "total": self.total, "mode": self.mode,
        }


def _side_bitsets(g: SidedGraph, side: str):
    if side == "left":
        return g.rows, len(g.right)
    if side == "right":
        return g.columns(), len(g.left)
    raise ValueError("side must be left or right")


def max_common_neighborhood(g: SidedGraph, s: int, side: str = "left",
                            budget: int = DEFAULT_SUBSET_BUDGET, rng=None,
                            samples: int | None = None) -> CommonNbhd:
    """Largest common neighborhood over s-subsets of one side.

    Exhaustive within the subset budget (ties keep the first subset in
    canonical order); beyond it a sampled pass gives a certified-False
    lower bound.  Without an rng the over-budget case raises.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    sets, _ = _side_bitsets(g, side)
    n = len(sets)
    if n < s:
        return CommonNbhd(0, None, True, 0, 0, "empty")
    total = comb(n, s)

    def intersect(combo):
        acc = sets[combo[0]]
        for i in combo[1:]:
            acc &= sets[i]
            if not acc:
                break
        return acc

    best = -1
    best_sub = None
    if total <= budget:
        for combo in itertools.combinations(range(n), s):
            common = intersect(combo)
            size = common.bit_count()
            if size > best:
                best, best_sub = size, combo
        return CommonNbhd(best, best_sub, True, total, total, "exhaustive")
    if rng is None:
        raise BudgetExceeded(
            "C(%d, %d) = %d subsets exceed budget %d and no rng was given"
            % (n, s, total, budget)
        )
    count = samples if samples is not None else DEFAULT_SAMPLE_SUBSETS
    for _ in range(count):
        combo = rng.sample_subset(n, s)
        common = intersect(combo)
        size = common.bit_count()
        if size > best:
            best, best_sub = size, combo
    return CommonNbhd(best, best_sub, False, count, total, "sampled")


@dataclass
class KstVerdict:
    s: int
    t: int
    orientation: str          # both | left_only
    free: bool | None         # None = undetermined (sampled, clean)
    certified: bool
    witness: dict | None      # {"side", "anchors", "neighbors"}
    sides: dict               # side -> CommonNbhd or {"mode": "pigeonhole"}

    def to_json(self) -> dict:
        return {
            "s": self.s, "t": self.t, "orientation": self.orientation,
            "free": self.free, "certified": self.certified,
            "witness": None if self.witness is None else {
                "side": self.witness["side"],
                "anchors": list(self.witness["anchors"]),
                "neighbors": list(self.witness["neighbors"]),
            },
            "sides": {
                k: (v.to_json() if isinstance(v, CommonNbhd) else v)
                for k, v in self.sides.items()
            },
        }


def _bits_of(x: int, limit: int | None = None):
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
        if limit is not None and len(out) == limit:
            break
    return out


def kst_verdict(g: SidedGraph, s: int, t: int, searches: dict,
                orientation: str = "both",
                budget: int = DEFAULT_SUBSET_BUDGET) -> KstVerdict:
    """Judge whether s vertices on the anchored side(s) share t neighbors.

    `searches` maps each anchored side to its max_common_neighborhood
    result at this s and budget.  A side over the budget with t greater
    than its opposite side is settled by pigeonhole first and needs no
    search.  Freeness is certified only by exhaustive search or that
    pigeonhole; a violation is certified by its witness no matter how it
    was found.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if orientation not in ("both", "left_only"):
        raise ValueError("orientation must be both or left_only")
    check_sides = ("left", "right") if orientation == "both" else ("left",)
    per_side: dict = {}
    witness = None
    undetermined = False
    for side in check_sides:
        sets, opp = _side_bitsets(g, side)
        n = len(sets)
        if n >= s and comb(n, s) > budget and t > opp:
            per_side[side] = {"mode": "pigeonhole", "certified": True,
                              "opposite": opp}
            continue
        mcn = searches[side]
        per_side[side] = mcn
        if mcn.subset is not None and mcn.size >= t:
            if witness is None:
                acc = sets[mcn.subset[0]]
                for i in mcn.subset[1:]:
                    acc &= sets[i]
                witness = {
                    "side": side,
                    "anchors": tuple(mcn.subset),
                    "neighbors": tuple(_bits_of(acc, limit=t)),
                }
        elif not mcn.certified:
            undetermined = True
    if witness is not None:
        return KstVerdict(s, t, orientation, False, True, witness, per_side)
    if undetermined:
        return KstVerdict(s, t, orientation, None, False, None, per_side)
    return KstVerdict(s, t, orientation, True, True, None, per_side)


def verify_witness(g: SidedGraph, verdict: KstVerdict) -> bool:
    """Re-check a violation witness against the adjacency data."""
    if verdict.witness is None:
        return True
    w = verdict.witness
    sets, _ = _side_bitsets(g, w["side"])
    acc = sets[w["anchors"][0]]
    for i in w["anchors"][1:]:
        acc &= sets[i]
    return (len(w["anchors"]) == verdict.s
            and len(set(w["neighbors"])) == verdict.t
            and all((acc >> j) & 1 for j in w["neighbors"]))


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
# the shared verdict pass and trial reports


@dataclass
class Verdicts:
    max_common: dict          # side -> CommonNbhd
    kst: KstVerdict
    density: DensityReport

    def free_and_dense(self, kind: str) -> bool:
        """Certified K_{s,t}-free and at the density target of the kind."""
        dense = self.density.turan_ok if kind == "turan" else self.density.zar_ok
        return bool(dense and self.kst.free is True and self.kst.certified)

    def to_json(self) -> dict:
        return {
            "kst": self.kst.to_json(),
            "density": self.density.to_json(),
            "max_common": {k: v.to_json() for k, v in self.max_common.items()},
        }


def judge_graph(g: SidedGraph, s: int, t: int, orientation: str,
                budget: int = DEFAULT_SUBSET_BUDGET,
                samples: int = DEFAULT_SAMPLE_SUBSETS) -> Verdicts:
    """Search each side once, then judge K_{s,t} and density from that.

    The graph must carry its plan and master seed.  A side over the
    subset budget is sampled from its own STREAM_SEARCH sub-stream of the
    seed, so construct and verify draw the same subsets.
    """
    base = SeededRng(g.seed)
    mc = {side: max_common_neighborhood(g, s, side, budget=budget,
                                        rng=base.derive(stream),
                                        samples=samples)
          for side, stream in STREAM_SEARCH.items()}
    return Verdicts(mc, kst_verdict(g, s, t, mc, orientation, budget),
                    density_report(g, g.plan))


@dataclass
class TrialReport(Verdicts):
    seed: int
    kind: str
    n_left: int
    n_right: int
    n_edges: int
    t_threshold: int
    sides_full: bool
    builder: dict | None      # variety certification summary
    cross_check: bool | None  # power-form rank agreement (odd char only)

    @property
    def passed(self) -> bool:
        return bool(self.sides_full) and self.free_and_dense(self.kind)

    def to_json(self) -> dict:
        return {
            **super().to_json(),
            "seed": self.seed,
            "kind": self.kind,
            "n_left": self.n_left,
            "n_right": self.n_right,
            "n_edges": self.n_edges,
            "t_threshold": self.t_threshold,
            "sides_full": self.sides_full,
            "builder": self.builder,
            "cross_check": self.cross_check,
            "passed": self.passed,
        }


def _ids_of(spec: FieldSpec, enc: np.ndarray):
    return [point_to_str(ProjPoint(spec, tuple(int(c) for c in row)))
            for row in enc]


def _filter_vanishing(forms, enc: np.ndarray) -> np.ndarray:
    if not forms:
        return enc
    vals = eval_hom_many(list(forms), enc)
    return enc[np.all(vals == 0, axis=1)]


def _adjacency_rows(g: BiHomPoly, left_enc: np.ndarray,
                    right_enc: np.ndarray):
    vals = eval_bihom_grid(g, left_enc, right_enc)
    mask = vals == 0
    return [_mask_to_bits(mask[i]) for i in range(len(left_enc))]


def _trial_report(graph: SidedGraph, plan: ConstructionPlan,
                  sides_full: bool, builder: dict | None,
                  cross_check: bool | None, budget: int,
                  samples: int) -> TrialReport:
    v = judge_graph(graph, plan.s, plan.t_threshold, plan.orientation,
                    budget, samples)
    return TrialReport(v.max_common, v.kst, v.density, graph.seed, plan.kind,
                       len(graph.left), len(graph.right), graph.num_edges,
                       plan.t_threshold, sides_full, builder, cross_check)


def construct_turan(plan: ConstructionPlan, master_seed: int, *,
                    point_cap: int = DEFAULT_POINT_BUDGET,
                    subset_budget: int = DEFAULT_SUBSET_BUDGET,
                    samples: int = DEFAULT_SAMPLE_SUBSETS,
                    max_attempts: int = 10,
                    probe_policy: str = "if_within_cap"):
    """Dense pipeline: certified variety, two sliced sides, one form.

    Stream 0 builds the variety W, streams 1 and 2 cut the left and
    right slices, stream 3 draws the adjacency form.  Both sides are the
    initial segment (canonical point order) of their slice, truncated to
    floor(c * q^s) vertices.
    """
    if plan.kind != "turan" or plan.mode != "desk":
        raise ValueError("need a desk-mode turan plan")
    if plan.q is None:
        raise ValueError("plan carries no field order")
    spec = field_for_order(plan.q)
    base = SeededRng(master_seed)
    cfg = BuildConfig(b=plan.b, num_forms=plan.Z, degree=plan.m, s=plan.s,
                      max_attempts=max_attempts, point_cap=point_cap,
                      subset_budget=subset_budget, samples=samples,
                      probe_policy=probe_policy)
    built = build_independent_variety(spec, cfg,
                                      base.derive(STREAM_VARIETY))
    if not built.certified:
        raise CertificationError(
            "variety certification failed after %d attempts (rejections: %r)"
            % (built.attempts, built.failure_tally)
        )
    rng_h = base.derive(STREAM_LEFT_CUT)
    rng_hp = base.derive(STREAM_RIGHT_CUT)
    hs = [random_hom(spec, plan.b, d, rng_h) for d in plan.delta]
    hps = [random_hom(spec, plan.b, d, rng_hp) for d in plan.delta]
    left_enc = _filter_vanishing(hs, built.points)
    right_enc = _filter_vanishing(hps, built.points)
    n_target = floor_scaled_power(plan.c, plan.q, plan.s, 1)
    if n_target == 0:
        raise CertificationError("truncation target is zero; both sides empty")
    sides_full = len(left_enc) >= n_target and len(right_enc) >= n_target
    left_enc = left_enc[:n_target]
    right_enc = right_enc[:n_target]
    if len(left_enc) == 0 or len(right_enc) == 0:
        raise CertificationError("a side came out empty")
    g = random_bihom(spec, plan.b, plan.b, plan.m, plan.m,
                     base.derive(STREAM_ADJACENCY))
    rows = _adjacency_rows(g, left_enc, right_enc)
    graph = SidedGraph(spec, _ids_of(spec, left_enc),
                       _ids_of(spec, right_enc), rows, plan=plan,
                       seed=master_seed)
    builder_info = {
        "attempts": built.attempts,
        "rejections": built.failure_tally,
        "n_points": built.n_points,
        "target_dim": built.target_dim,
        "probe_counts": (None if built.probe is None
                         else {str(e): c for e, c in built.probe.counts.items()}),
        "probe_skipped": built.probe_skipped,
        "swise_mode": built.swise.mode if built.swise else None,
    }
    report = _trial_report(graph, plan, sides_full, builder_info, None,
                           subset_budget, samples)
    return graph, report


def construct_zar(plan: ConstructionPlan, master_seed: int, *,
                  point_cap: int = DEFAULT_POINT_BUDGET,
                  subset_budget: int = DEFAULT_SUBSET_BUDGET,
                  samples: int = DEFAULT_SAMPLE_SUBSETS):
    """Lopsided pipeline: coordinate-point left side, sliced right side.

    The left side is the first floor(c * q^(T/s)) coordinate points of
    P^a with a = |L|; they are linearly independent, so every subset is
    independent at any degree.  When the characteristic exceeds the
    degree this is cross-checked through the power-form rank.
    """
    if plan.kind != "zarankiewicz" or plan.mode != "desk":
        raise ValueError("need a desk-mode zarankiewicz plan")
    if plan.q is None or plan.a is None:
        raise ValueError("plan carries no field order")
    spec = field_for_order(plan.q)
    a = plan.a
    if a < 1:
        raise CertificationError("left side is empty at this c and q")
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
    rows = _adjacency_rows(g, left_enc, right_enc)
    graph = SidedGraph(spec, _ids_of(spec, left_enc),
                       _ids_of(spec, right_enc), rows, plan=plan,
                       seed=master_seed)
    cross = None
    if spec.p > plan.m and a >= plan.s:
        cross = True
        pts = [ProjPoint(spec, tuple(int(c) for c in row)) for row in left_enc]
        probe_rng = base.derive(STREAM_CROSS_CHECK)
        for _ in range(min(5, comb(a, plan.s))):
            sub = probe_rng.sample_subset(a, plan.s)
            sel = [pts[i] for i in sub]
            if (power_rank(sel, plan.m) != plan.s
                    or hilbert_rank(sel, plan.m) != plan.s):
                cross = False
                break
    sides_full = 2 * len(right_enc) * spec.order**plan.r >= spec.order**plan.b
    report = _trial_report(graph, plan, sides_full, None, cross,
                           subset_budget, samples)
    return graph, report


# ---------------------------------------------------------------------------
# joint uniformity of anchored specializations


@dataclass
class JointUniformityResult:
    mode: str                 # exhaustive | sampled
    ok: bool
    total: int                # polynomials examined
    cells: int                # size of the joint space (exhaustive) or q^s
    detail: dict

    def to_json(self) -> dict:
        return {"mode": self.mode, "ok": self.ok, "total": self.total,
                "cells": self.cells, "detail": self.detail}


def _specialize_batch(spec: FieldSpec, coeffs: np.ndarray,
                      vmon_enc: np.ndarray) -> np.ndarray:
    """Specialize many bihom coefficient grids at one anchor.

    coeffs: (N, nx, ny) encodings; vmon_enc: (nx,) anchor monomial values.
    Returns (N, ny) encodings of the anchored forms.
    """
    swapped = spec.dec_array(coeffs.transpose(0, 2, 1))   # (N, ny, nx, k)
    v = spec.dec_array(vmon_enc.reshape(-1, 1))           # (nx, 1, k)
    out = spec.arr_dot(swapped, v)                        # (N, ny, 1, k)
    return spec.enc_array(out[:, :, 0, :])


def joint_uniformity_test(a: int, b: int, m: int, mp: int, anchors,
                          mode: str = "exhaustive", rng=None, *,
                          draws: int = 10_000,
                          exhaustive_cap: int = 1 << 20,
                          quantile: float = 1e-6,
                          require_independent: bool = True) -> JointUniformityResult:
    """Are the anchored specializations of a random form jointly uniform?

    Exhaustive mode enumerates every coefficient grid and demands the
    exact product-uniform tally.  Sampled mode draws `draws` grids and
    runs one chi-square per specialized coefficient slot on the joint
    distribution of that slot across anchors (q^s cells), rejecting at
    the given quantile.  Anchors must form an independent set at degree
    m; pass require_independent=False only to study the failure mode.
    """
    anchors = list(anchors)
    if not anchors:
        raise ValueError("need at least one anchor")
    spec = anchors[0].spec
    s = len(anchors)
    if any(pt.dim != a for pt in anchors):
        raise ValueError("anchors do not live in P^a")
    if len(set(pt.coords for pt in anchors)) != s:
        raise ValueError("anchors must be distinct")
    independent = hilbert_rank(anchors, m) == s
    if require_independent and not independent:
        raise ValueError("anchors are dependent at degree %d" % m)
    q = spec.order
    nx = comb(a + m, m)
    ny = comb(b + mp, mp)
    mis_x = enumerate_multiindices(a, m)
    vmons = [np.array([monomial_eval(v, al) for al in mis_x], dtype=np.int64)
             for v in anchors]
    if mode == "exhaustive":
        ncoef = nx * ny
        total = q**ncoef
        if total > exhaustive_cap:
            raise BudgetExceeded(
                "q^(nx*ny) = %d exceeds exhaustive cap %d"
                % (total, exhaustive_cap)
            )
        cells = q ** (s * ny)
        from collections import Counter
        tally: Counter = Counter()
        chunk = 1 << 15
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
            grid = np.zeros((len(idx), ncoef), dtype=np.int64)
            for pos in range(ncoef):
                grid[:, pos] = (idx // q ** (ncoef - 1 - pos)) % q
            grid = grid.reshape(len(idx), nx, ny)
            keys = np.concatenate(
                [_specialize_batch(spec, grid, vm) for vm in vmons], axis=1
            )
            keys = np.ascontiguousarray(keys)
            view = keys.view(np.dtype((np.void, keys.dtype.itemsize * keys.shape[1])))
            uniq, cnt = np.unique(view.ravel(), return_counts=True)
            for u, c in zip(uniq, cnt):
                tally[u.tobytes()] += int(c)
        per = total // cells if total >= cells else 0
        ok = (total % cells == 0 and per > 0 and len(tally) == cells
              and set(tally.values()) == {per})
        return JointUniformityResult(
            "exhaustive", ok, total, cells,
            {"distinct": len(tally), "expected_multiplicity": per,
             "independent_anchors": independent},
        )
    if mode != "sampled":
        raise ValueError("mode must be exhaustive or sampled")
    if rng is None:
        raise ValueError("sampled mode needs an rng")
    from scipy.stats import chi2
    ncoef = nx * ny
    # one block draw is bit-identical to `draws` sequential poly draws
    grids = rng.residues(draws * ncoef, q).reshape(draws, nx, ny)
    anchored = [_specialize_batch(spec, grids, vm) for vm in vmons]
    cells = q**s
    threshold = float(chi2.isf(quantile, cells - 1))
    expected = draws / cells
    stats = []
    for j in range(ny):
        code = np.zeros(draws, dtype=np.int64)
        for t_i in range(s):
            code = code * q + anchored[t_i][:, j]
        counts = np.bincount(code, minlength=cells)
        stats.append(float(((counts - expected) ** 2 / expected).sum()))
    worst = max(stats)
    ok = worst <= threshold
    return JointUniformityResult(
        "sampled", ok, draws, cells,
        {"threshold": dec12(threshold), "worst_stat": dec12(worst),
         "stats": [dec12(x) for x in stats],
         "independent_anchors": independent},
    )

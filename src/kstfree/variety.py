"""Point sets cut out by random forms, with counting and certification.

A variety here is the common projective zero set of a handful of
homogeneous forms.  Everything is exhaustive over the finite field, so
the budget caps are load-bearing: counting over an extension field can
easily be the single biggest computation in a run.

The certified builder draws fresh forms until the zero set passes three
checks: it is large enough (at least half the first-order prediction),
it is s-wise independent at the forms' degree, and a point-count probe
across field extensions lands on the expected dimension.  Each check
can fail for an unlucky draw; the builder retries with derived streams
and keeps a tally of which check rejected how many attempts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .gf import FieldSpec, make_field
from .independence import SWiseCheck, ZConditionReport, s_wise_independent, z_condition
from .polyrand import HomPoly, SeededRng, eval_hom_many, hom_from_json, hom_to_json, random_hom
from .projgeom import ProjPoint, projective_chunks, projective_count
from .util import (
    DEFAULT_POINT_BUDGET,
    DEFAULT_SAMPLE_SUBSETS,
    DEFAULT_SUBSET_BUDGET,
    BudgetExceeded,
)


@dataclass(frozen=True)
class VarietySpec:
    spec: FieldSpec
    b: int
    forms: tuple

    def __post_init__(self):
        for f in self.forms:
            if f.spec != self.spec or f.b != self.b:
                raise ValueError("form does not match the ambient space")


def variety_to_json(var: VarietySpec) -> dict:
    return {
        "field": {"p": var.spec.p, "k": var.spec.k},
        "b": var.b,
        "forms": [hom_to_json(f) for f in var.forms],
    }


def variety_from_json(doc: dict) -> VarietySpec:
    spec = make_field(doc["field"]["p"], doc["field"]["k"])
    forms = tuple(hom_from_json(spec, d) for d in doc["forms"])
    return VarietySpec(spec, doc["b"], forms)


def fq_point_array(var: VarietySpec, cap: int = DEFAULT_POINT_BUDGET) -> np.ndarray:
    """Encodings of the rational points, canonical order, shape (N, b+1)."""
    keep = []
    for block in projective_chunks(var.spec, var.b, cap=cap):
        if var.forms:
            vals = eval_hom_many(var.forms, block)
            mask = np.all(vals == 0, axis=1)
            block = block[mask]
        if len(block):
            keep.append(block)
    if not keep:
        return np.zeros((0, var.b + 1), dtype=np.int64)
    return np.concatenate(keep, axis=0)


def count_points(var: VarietySpec, cap: int = DEFAULT_POINT_BUDGET) -> int:
    n = 0
    for block in projective_chunks(var.spec, var.b, cap=cap):
        if var.forms:
            vals = eval_hom_many(var.forms, block)
            n += int(np.all(vals == 0, axis=1).sum())
        else:
            n += len(block)
    return n


def extend_form(f: HomPoly, ext: FieldSpec) -> HomPoly:
    """The same form with coefficients pushed through the field embedding."""
    table = f.spec.embed_table(ext)
    return HomPoly(ext, f.b, f.m, tuple(int(table[c]) for c in f.coeffs))


def count_points_ext(var: VarietySpec, ext_degree: int,
                     cap: int = DEFAULT_POINT_BUDGET) -> int:
    """Rational point count over the extension of the given degree."""
    if ext_degree < 1:
        raise ValueError("extension degree must be >= 1")
    if ext_degree == 1:
        return count_points(var, cap=cap)
    ext = make_field(var.spec.p, var.spec.k * ext_degree)
    lifted = VarietySpec(ext, var.b, tuple(extend_form(f, ext) for f in var.forms))
    return count_points(lifted, cap=cap)


@dataclass
class DimensionProbe:
    counts: dict              # extension degree -> rational point count
    slope: float | None
    estimate: int | None      # round(slope), None when the set is empty
    kind: str                 # estimate | empty
    confident: bool


def dimension_probe(var: VarietySpec, exts=(1, 2),
                    cap: int = DEFAULT_POINT_BUDGET) -> DimensionProbe:
    """Dimension estimate from point counts across extensions.

    Fits ln(count) against e*ln(q) by least squares (through the origin
    when only one extension is available) and rounds the slope.  A count
    below 10q marks the probe as not confident.
    """
    exts = sorted(set(int(e) for e in exts))
    if not exts or exts[0] < 1:
        raise ValueError("extension degrees must be positive")
    counts = {e: count_points_ext(var, e, cap=cap) for e in exts}
    if all(c == 0 for c in counts.values()):
        return DimensionProbe(counts, None, None, "empty", True)
    q = var.spec.order
    xs, ys, confident = [], [], True
    for e, c in counts.items():
        if c == 0:
            confident = False
            continue
        if c < 10 * q:
            confident = False
        xs.append(e * math.log(q))
        ys.append(math.log(c))
    if len(xs) == 1:
        slope = ys[0] / xs[0]
    else:
        mx = sum(xs) / len(xs)
        my = sum(ys) / len(ys)
        var_x = sum((x - mx) ** 2 for x in xs)
        cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        slope = cov / var_x
    return DimensionProbe(counts, slope, max(0, round(slope)), "estimate",
                          confident)


# ---------------------------------------------------------------------------
# certified builder


@dataclass
class BuildConfig:
    b: int                    # ambient projective dimension
    num_forms: int            # how many forms to draw
    degree: int               # their common degree
    s: int                    # independence arity to certify
    max_attempts: int = 10
    point_cap: int = DEFAULT_POINT_BUDGET
    subset_budget: int = DEFAULT_SUBSET_BUDGET
    samples: int = DEFAULT_SAMPLE_SUBSETS
    probe_policy: str = "if_within_cap"   # require | if_within_cap | skip
    probe_exts: tuple = (1, 2)
    allow_z_violation: bool = False


@dataclass
class BuildResult:
    certified: bool
    attempts: int
    variety: VarietySpec | None
    points: np.ndarray | None
    n_points: int
    target_dim: int
    swise: SWiseCheck | None
    probe: DimensionProbe | None
    probe_skipped: bool
    z_report: ZConditionReport | None
    failure_tally: dict = field(default_factory=dict)


def _count_ok(n_points: int, q: int, target_dim: int) -> bool:
    # at least half the first-order prediction q^dim, exactly compared
    return 2 * n_points >= q**target_dim


def build_independent_variety(spec: FieldSpec, cfg: BuildConfig,
                              rng: SeededRng) -> BuildResult:
    """Draw forms until the zero set passes count, s-wise, and probe checks.

    Attempt j always uses rng.derive(j), so retries are reproducible and
    independent of how earlier attempts consumed their stream.
    """
    if cfg.num_forms < 0 or cfg.degree < 1 or cfg.b < 1:
        raise ValueError("bad builder configuration")
    if cfg.probe_policy not in ("require", "if_within_cap", "skip"):
        raise ValueError("unknown probe policy %r" % cfg.probe_policy)
    target_dim = cfg.b - cfg.num_forms
    if target_dim < 0:
        raise ValueError("more forms than dimensions available")

    z_rep = z_condition(cfg.b, cfg.degree, cfg.num_forms, cfg.s) if cfg.s >= 2 else None
    if z_rep is not None and z_rep.verdict == "false" and not cfg.allow_z_violation:
        raise ValueError(
            "form count %d is too small for certified %d-wise independence "
            "at degree %d in dimension %d" % (cfg.num_forms, cfg.s,
                                              cfg.degree, cfg.b)
        )

    # decide the usable probe extensions once
    probe_exts = []
    if cfg.probe_policy != "skip":
        q = spec.order
        for e in sorted(set(cfg.probe_exts)):
            if projective_count(q**e, cfg.b) <= cfg.point_cap:
                probe_exts.append(e)
            elif cfg.probe_policy == "require":
                raise BudgetExceeded(
                    "probe extension %d needs %d points, over cap %d"
                    % (e, projective_count(q**e, cfg.b), cfg.point_cap)
                )
    probe_skipped = not probe_exts

    tally = {"count": 0, "swise": 0, "probe": 0}
    last = None
    for attempt in range(cfg.max_attempts):
        sub = rng.derive(attempt)
        forms = tuple(
            random_hom(spec, cfg.b, cfg.degree, sub) for _ in range(cfg.num_forms)
        )
        var = VarietySpec(spec, cfg.b, forms)
        pts = fq_point_array(var, cap=cfg.point_cap)
        n = len(pts)
        if not _count_ok(n, spec.order, target_dim):
            tally["count"] += 1
            last = BuildResult(False, attempt + 1, var, pts, n, target_dim,
                               None, None, probe_skipped, z_rep, dict(tally))
            continue
        proj = [ProjPoint(spec, tuple(int(c) for c in row)) for row in pts]
        sw = s_wise_independent(proj, cfg.s, cfg.degree,
                                budget=cfg.subset_budget, rng=sub,
                                samples=cfg.samples)
        if sw.witness is not None:
            tally["swise"] += 1
            last = BuildResult(False, attempt + 1, var, pts, n, target_dim,
                               sw, None, probe_skipped, z_rep, dict(tally))
            continue
        probe = None
        if not probe_skipped:
            probe = dimension_probe(var, exts=probe_exts, cap=cfg.point_cap)
            if probe.estimate != target_dim:
                tally["probe"] += 1
                last = BuildResult(False, attempt + 1, var, pts, n,
                                   target_dim, sw, probe, probe_skipped,
                                   z_rep, dict(tally))
                continue
        return BuildResult(True, attempt + 1, var, pts, n, target_dim, sw,
                           probe, probe_skipped, z_rep, dict(tally))
    assert last is not None
    return last


# ---------------------------------------------------------------------------
# concentration of random slices


@dataclass
class ConcentrationReport:
    trials: int
    counts: list
    mean: float
    expected: Fraction        # |Y| / q^r
    threshold_num: int        # failure when 2 * count * q^r <= |Y|
    failures: int
    failure_bound: Fraction   # 4 q^r / |Y|, capped at 1


def concentration_study(spec: FieldSpec, pts_enc: np.ndarray, num_forms: int,
                        degree: int, rng: SeededRng,
                        trials: int) -> ConcentrationReport:
    """Slice a fixed point set by random forms and watch the survivor count.

    Each trial draws num_forms fresh degree-`degree` forms from the one
    stream and counts the points where all vanish.  A trial fails when
    the count drops to half the expected |Y|/q^r or lower.
    """
    pts_enc = np.asarray(pts_enc, dtype=np.int64)
    size = len(pts_enc)
    if size == 0 or trials < 1 or num_forms < 1:
        raise ValueError("need points, trials >= 1, and num_forms >= 1")
    b = pts_enc.shape[1] - 1
    q = spec.order
    qr = q**num_forms
    counts = []
    failures = 0
    for _ in range(trials):
        forms = [random_hom(spec, b, degree, rng) for _ in range(num_forms)]
        vals = eval_hom_many(forms, pts_enc)
        cnt = int(np.all(vals == 0, axis=1).sum())
        counts.append(cnt)
        if 2 * cnt * qr <= size:
            failures += 1
    mean = sum(counts) / trials
    return ConcentrationReport(
        trials, counts, mean, Fraction(size, qr), size, failures,
        min(Fraction(1), Fraction(4 * qr, size)),
    )

from fractions import Fraction

import numpy as np
import pytest

from kstfree.gf import make_field
from kstfree.polyrand import HomPoly, SeededRng, evaluate, random_hom
from kstfree.projgeom import enumerate_multiindices, enumerate_projective, projective_array, projective_count
from kstfree.util import BudgetExceeded
from kstfree.variety import (
    BuildConfig,
    BuildResult,
    ConcentrationReport,
    VarietySpec,
    build_independent_variety,
    concentration_study,
    count_points,
    count_points_ext,
    dimension_probe,
    extend_form,
    fq_point_array,
    variety_from_json,
    variety_to_json,
)


def conic(spec):
    # x1^2 - x0*x2 in the canonical monomial order for b = 2, m = 2
    mis = enumerate_multiindices(2, 2)
    coeffs = [0] * len(mis)
    coeffs[mis.index((0, 2, 0))] = 1
    coeffs[mis.index((1, 0, 1))] = spec.neg(1)
    return HomPoly(spec, 2, 2, tuple(coeffs))


def brute_points(var):
    out = []
    for pt in enumerate_projective(var.spec, var.b):
        if all(evaluate(f, pt) == 0 for f in var.forms):
            out.append(pt)
    return out


def test_conic_f5_has_six_points():
    spec = make_field(5, 1)
    var = VarietySpec(spec, 2, (conic(spec),))
    pts = fq_point_array(var)
    assert len(pts) == 6
    assert pts.tolist() == [list(pt.coords) for pt in brute_points(var)]
    assert count_points(var) == 6


def test_counts_match_bruteforce_on_random_forms():
    spec = make_field(3, 1)
    rng = SeededRng(5150)
    for _ in range(10):
        nforms = 1 + rng.randbelow(2)
        forms = tuple(random_hom(spec, 2, 2, rng) for _ in range(nforms))
        var = VarietySpec(spec, 2, forms)
        assert count_points(var) == len(brute_points(var))


def test_no_forms_gives_whole_space():
    spec = make_field(5, 1)
    var = VarietySpec(spec, 2, ())
    assert count_points(var) == projective_count(5, 2)


def test_form_space_mismatch_rejected():
    spec = make_field(5, 1)
    with pytest.raises(ValueError):
        VarietySpec(spec, 3, (conic(spec),))


def test_empty_zero_set_probe():
    # x0^2 + x1^2 has no zeros on the line over F_3, so a base-field-only
    # probe reports empty; the quadratic extension picks up the two points
    # with x0 = +-i and flips the verdict to a (shaky) estimate
    spec = make_field(3, 1)
    f = HomPoly(spec, 1, 2, (1, 0, 1))
    var = VarietySpec(spec, 1, (f,))
    probe = dimension_probe(var, exts=(1,))
    assert probe.kind == "empty"
    assert probe.estimate is None
    assert probe.counts == {1: 0}
    wider = dimension_probe(var, exts=(1, 2))
    assert wider.counts == {1: 0, 2: 2}
    assert wider.kind == "estimate"
    assert wider.estimate == 0
    assert not wider.confident


def test_conic_probe_counts_and_estimate():
    # smooth conic: q + 1 points over every extension
    spec = make_field(3, 1)
    var = VarietySpec(spec, 2, (conic(spec),))
    probe = dimension_probe(var, exts=(1, 2, 3))
    assert probe.counts == {1: 4, 2: 10, 3: 28}
    assert probe.estimate == 1
    assert not probe.confident  # 4 < 10 * 3


def test_hyperplane_probe():
    spec = make_field(7, 1)
    f = HomPoly(spec, 3, 1, (1, 0, 0, 0))
    var = VarietySpec(spec, 3, (f,))
    probe = dimension_probe(var, exts=(1, 2))
    assert probe.counts == {1: projective_count(7, 2),
                            2: projective_count(49, 2)}
    assert probe.estimate == 2
    assert not probe.confident  # 57 < 10 * 7
    spec5 = make_field(5, 1)
    bigger = VarietySpec(spec5, 4, (HomPoly(spec5, 4, 1, (1, 0, 0, 0, 0)),))
    wide = dimension_probe(bigger, exts=(1, 2))
    assert wide.estimate == 3
    assert wide.confident  # 156 >= 50


def test_extension_count_matches_manual_lift():
    spec = make_field(3, 1)
    ext = make_field(3, 2)
    var = VarietySpec(spec, 2, (conic(spec),))
    lifted = VarietySpec(ext, 2, (extend_form(conic(spec), ext),))
    assert count_points_ext(var, 2) == count_points(lifted) == 10
    # constants embed as constants
    manual = conic(ext)
    assert manual.coeffs == lifted.forms[0].coeffs


def test_variety_json_roundtrip():
    spec = make_field(3, 2)
    rng = SeededRng(99)
    forms = tuple(random_hom(spec, 2, 2, rng) for _ in range(2))
    var = VarietySpec(spec, 2, forms)
    doc = variety_to_json(var)
    back = variety_from_json(doc)
    assert back == var


def test_nonzero_form_zero_count_bound():
    # a nonzero degree-d form vanishes on at most d * |P^(b-1)| points
    for p, b, m in [(3, 2, 2), (5, 2, 3), (7, 1, 4)]:
        spec = make_field(p, 1)
        rng = SeededRng(1000 * p + 10 * b + m)
        for _ in range(12):
            f = random_hom(spec, b, m, rng)
            if f.is_zero:
                continue
            var = VarietySpec(spec, b, (f,))
            assert count_points(var) <= m * projective_count(p, b - 1)


def test_builder_no_forms_trivial():
    spec = make_field(5, 1)
    cfg = BuildConfig(b=1, num_forms=0, degree=1, s=2)
    res = build_independent_variety(spec, cfg, SeededRng(7))
    assert res.certified
    assert res.attempts == 1
    assert res.n_points == 6
    assert res.target_dim == 1
    assert res.swise.certified and res.swise.ok
    assert res.probe is not None and res.probe.estimate == 1
    assert res.failure_tally == {"count": 0, "swise": 0, "probe": 0}


def test_builder_cubic_surface_certifies():
    spec = make_field(11, 1)
    cfg = BuildConfig(b=3, num_forms=1, degree=3, s=3)
    res = build_independent_variety(spec, cfg, SeededRng(2026))
    assert res.certified
    assert res.target_dim == 2
    assert 2 * res.n_points >= 11**2
    assert res.swise.witness is None
    assert res.probe.estimate == 2
    assert sorted(res.probe.counts) == [1, 2]


def test_builder_rejects_insufficient_forms():
    # 5 forms fall short of the 164/28 requirement at arity 5, degree 3
    spec = make_field(2, 1)
    cfg = BuildConfig(b=10, num_forms=5, degree=3, s=5)
    with pytest.raises(ValueError):
        build_independent_variety(spec, cfg, SeededRng(1))


def test_builder_violation_waiver_runs():
    spec = make_field(2, 1)
    cfg = BuildConfig(b=10, num_forms=5, degree=3, s=5, max_attempts=2,
                      probe_policy="skip", samples=40,
                      allow_z_violation=True)
    res = build_independent_variety(spec, cfg, SeededRng(3))
    assert isinstance(res, BuildResult)
    assert res.probe is None and res.probe_skipped
    assert res.z_report.verdict == "false"
    assert res.attempts <= 2


def test_builder_probe_policy_require_over_cap():
    spec = make_field(11, 1)
    cfg = BuildConfig(b=3, num_forms=1, degree=3, s=3, probe_exts=(1, 4),
                      probe_policy="require")
    with pytest.raises(BudgetExceeded):
        build_independent_variety(spec, cfg, SeededRng(5))
    cfg2 = BuildConfig(b=3, num_forms=1, degree=3, s=3, probe_exts=(1, 4),
                       probe_policy="if_within_cap")
    res = build_independent_variety(spec, cfg2, SeededRng(5))
    assert res.probe is not None
    assert list(res.probe.counts) == [1]  # only the base field fit the cap


def test_builder_failure_tally_bookkeeping():
    spec = make_field(3, 1)
    cfg = BuildConfig(b=2, num_forms=2, degree=2, s=2, max_attempts=1)
    saw_fail = saw_pass = False
    for seed in range(60):
        res = build_independent_variety(spec, cfg, SeededRng(seed))
        total = sum(res.failure_tally.values())
        if res.certified:
            saw_pass = True
            assert total == res.attempts - 1 == 0
        else:
            saw_fail = True
            assert total == res.attempts == 1
        if saw_fail and saw_pass:
            break
    assert saw_fail and saw_pass


def test_builder_retry_uses_derived_streams():
    # a build that needed j attempts reproduces attempt j from derive(j)
    spec = make_field(3, 1)
    cfg = BuildConfig(b=2, num_forms=2, degree=2, s=2, max_attempts=8)
    for seed in range(40):
        res = build_independent_variety(spec, cfg, SeededRng(seed))
        if res.certified and res.attempts > 1:
            sub = SeededRng(seed).derive(res.attempts - 1)
            forms = tuple(random_hom(spec, 2, 2, sub) for _ in range(2))
            assert forms == res.variety.forms
            return
    pytest.skip("no multi-attempt certified build in seed range")


def test_concentration_on_projective_line():
    spec = make_field(5, 1)
    pts = projective_array(spec, 1)
    rep = concentration_study(spec, pts, 1, 1, SeededRng(123), trials=200)
    assert isinstance(rep, ConcentrationReport)
    assert rep.expected == Fraction(6, 5)
    # a nonzero linear form has exactly one zero on the line, the zero
    # form keeps all six points: the count never drops to zero
    assert rep.failures == 0
    assert set(rep.counts) <= {1, 6}
    assert abs(rep.mean - 1.2) < 0.3
    assert rep.failure_bound == 1  # 20/6 capped


def test_concentration_validation():
    spec = make_field(5, 1)
    pts = projective_array(spec, 1)
    with pytest.raises(ValueError):
        concentration_study(spec, pts, 0, 1, SeededRng(1), trials=5)
    with pytest.raises(ValueError):
        concentration_study(spec, np.zeros((0, 2), dtype=np.int64), 1, 1,
                            SeededRng(1), trials=5)

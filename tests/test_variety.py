from fractions import Fraction
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kstfree.gf
import kstfree.independence
import kstfree.projgeom
import kstfree.variety
from kstfree.acceptance import slice_moments
from kstfree.gf import field_for_order, is_prime, make_field
from kstfree.graphs import construct_turan, plan_construction
from kstfree.polyrand import HomPoly, SeededRng, eval_hom_many, evaluate, hom_to_json, random_hom
from kstfree.projgeom import chart_leads, projective_array, projective_count
from kstfree.util import BudgetExceeded
from kstfree.variety import (
    BuildConfig,
    VarietySpec,
    build_independent_variety,
    count_points,
    count_points_ext,
    dimension_probe,
    extend_variety,
    fq_point_array,
    slice_points,
    variety_to_json,
    zero_masks,
)
from references import chart_tensor, enumerate_multiindices, enumerate_projective


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


def reference_points(var):
    """The zero set by evaluating every form at every point of P^b."""
    pts = projective_array(var.spec, var.b)
    if not var.forms:
        return pts
    return pts[np.all(eval_hom_many(var.forms, pts) == 0, axis=1)]


ZERO_SET_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                   (5, 2), (3, 3), (11, 2)]


@st.composite
def zero_set_cases(draw):
    spec = make_field(*draw(st.sampled_from(ZERO_SET_FIELDS)))
    q = spec.order
    # keep the reference path small: few points, few monomial cells
    bmax = max(b for b in range(5) if projective_count(q, b) <= 20_000)
    b = bmax - draw(st.integers(0, bmax))  # the larger spaces first
    n = projective_count(q, b)
    mmax = max(m for m in range(q + 3) if comb(b + m, m) * n <= 400_000)
    degrees = draw(st.lists(st.integers(0, mmax), max_size=3))
    seed = draw(st.integers(0, 1 << 32))
    slab = draw(st.sampled_from([1, 5, 24, 100]))
    rng = SeededRng(seed)
    forms = [random_hom(spec, b, m, rng) for m in degrees]
    if forms and draw(st.booleans()):
        # x_b^m alone, whose exponent folds once m >= q, and a zero form
        m = degrees[0]
        forms[0] = HomPoly(spec, b, m, (0,) * (comb(b + m, m) - 1) + (1,))
        if len(forms) > 1:
            forms[1] = HomPoly(spec, b, degrees[1],
                               (0,) * len(forms[1].coeffs))
    return VarietySpec(spec, b, tuple(forms)), slab


@settings(max_examples=200, deadline=None, derandomize=True)
@given(zero_set_cases())
def test_zero_sets_match_pointwise_evaluation(case):
    var, slab = case
    with mock.patch.object(kstfree.variety, "SLAB", slab):
        pts = fq_point_array(var)
    ref = reference_points(var)
    assert pts.dtype == np.int64
    assert pts.shape == ref.shape
    assert (pts == ref).all()


@pytest.mark.parametrize("p, k", [(2, 3), (3, 2)])
def test_power_matrix_rows_are_exponent_digit_columns_digit_point(p, k):
    # both contraction sites read this layout: row (e, j), column (l, x)
    spec = make_field(p, k)
    a, xs = 4, np.array([5, 0, 3, 7, 1])
    pm = kstfree.variety._power_matrix(spec, a, xs)
    assert pm.shape == (a * k, k * len(xs))
    blocks = pm.reshape(a, k, k, len(xs))
    for e in range(a):
        for i, x in enumerate(xs.tolist()):
            power = spec.dec_array(np.int64(spec.pow(x, e)))
            assert (blocks[e, :, :, i] == spec.mul_matrix(power)).all()


def test_zero_set_on_a_wide_field_builds_slabs_only():
    # P^1 over GF(2^16): one (a*k, q*k) matrix would hold 64 x 2^20 floats
    spec = make_field(2, 16)
    var = VarietySpec(spec, 1, (random_hom(spec, 1, 3, SeededRng(8)),))
    real = kstfree.variety._power_matrix
    sizes = []

    def spy(*args):
        out = real(*args)
        sizes.append(out.size)
        return out

    with mock.patch.object(kstfree.variety, "_power_matrix", spy):
        pts = fq_point_array(var)
    # scalar evaluate reads the log tables, built from the same table as the
    # matrices; test_gf::test_products_match_convolution_oracle checks it
    assert pts.tolist() == [list(pt.coords) for pt in brute_points(var)]
    assert 1 <= len(pts) <= 3
    assert max(sizes) <= kstfree.variety.SLAB
    assert not spec._powers  # nor is the field's own matrix built


def test_extension_count_on_a_wide_field_builds_slabs_only():
    # P^1 over GF(2^16) from GF(2^8): the 32,896 orbit representatives do
    # not fit one slab either, so each slab builds its own powers
    base, ext = make_field(2, 8), make_field(2, 16)
    var = VarietySpec(base, 1, (random_hom(base, 1, 3, SeededRng(8)),))
    lifted = extend_variety(var, ext)
    real = kstfree.variety._power_matrix
    sizes = []

    def spy(*args):
        out = real(*args)
        sizes.append(out.size)
        return out

    with mock.patch.object(kstfree.variety, "_power_matrix", spy):
        got = count_points_ext(var, 2)
    assert got == len(fq_point_array(lifted))
    assert len(sizes) > 1
    assert max(sizes) <= kstfree.variety.SLAB
    assert not ext._powers


def test_counts_build_no_rows():
    spec = make_field(3, 1)
    rng = SeededRng(31)
    var = VarietySpec(spec, 3, tuple(random_hom(spec, 3, 2, rng)
                                     for _ in range(2)))
    want = {e: len(fq_point_array(extend_variety(var, make_field(3, e))))
            for e in (1, 2)}
    with mock.patch.object(kstfree.variety, "chart_rows",
                           side_effect=AssertionError("rows built")), \
            mock.patch.object(kstfree.projgeom, "chart_rows",
                              side_effect=AssertionError("rows built")):
        assert count_points(var) == want[1]
        assert count_points_ext(var, 2) == want[2]


LIMIT_FIELDS = [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (3, 2), (5, 2)]


@pytest.mark.parametrize("p, k", LIMIT_FIELDS)
def test_limit_returns_the_canonical_prefix(p, k):
    # a cut of W's masks by one or two forms is the zero set of W's forms
    # and the cut's, up to any limit
    spec = make_field(p, k)
    rng = SeededRng(1000 * p + k)
    for b in range(5):
        for nw, ncut in ((1, 1), (1, 2), (2, 1)):
            w = tuple(random_hom(spec, b, 1 + (b + i) % 3, rng)
                      for i in range(nw))
            cut = tuple(random_hom(spec, b, 1 + (b + i + 1) % 3, rng)
                        for i in range(ncut))
            masks = zero_masks(VarietySpec(spec, b, w))
            full = fq_point_array(VarietySpec(spec, b, w + cut))
            n = len(full)
            # small slabs stop the cut in the middle of a chart
            slab = (64, 1024, kstfree.variety.SLAB)[(b + nw + ncut) % 3]
            for limit in sorted({0, 1, n // 2, n, n + 3}) + [None]:
                with mock.patch.object(kstfree.variety, "SLAB", slab):
                    [pts] = slice_points([VarietySpec(spec, b, cut)], masks,
                                         limit)
                assert pts.dtype == np.int64
                assert pts.shape == full[:limit].shape
                assert (pts == full[:limit]).all()


def _lead(row) -> int:
    """The chart of an encoded point: its first coordinate that is 1."""
    return int(np.flatnonzero(row)[0])


@pytest.mark.parametrize("q", [5, 9])
def test_two_cuts_in_one_pass_are_two_one_cut_passes(q):
    # both cuts read the same chunks; each stops at its own limit, and the
    # cut by the zero form (all of W) fills before the other one
    spec = field_for_order(q)
    b, rng = 3, SeededRng(70 + q)
    zero = HomPoly(spec, b, 1, (0,) * (b + 1))
    split = 0
    for _ in range(4):
        w = (random_hom(spec, b, 2, rng),)
        masks = zero_masks(VarietySpec(spec, b, w))
        cuts = [VarietySpec(spec, b, (random_hom(spec, b, 1, rng),)),
                VarietySpec(spec, b, (zero,)),
                VarietySpec(spec, b, (random_hom(spec, b, 2, rng),
                                      random_hom(spec, b, 1, rng)))]
        for slab in (64, kstfree.variety.SLAB):
            for limit in (0, 1, q, q * q, None):
                with mock.patch.object(kstfree.variety, "SLAB", slab):
                    got = slice_points(cuts, masks, limit)
                    alone = [slice_points([cut], masks, limit)[0]
                             for cut in cuts]
                assert len(got) == len(cuts)
                for cut, pts, one in zip(cuts, got, alone):
                    want = fq_point_array(
                        VarietySpec(spec, b, w + cut.forms))[:limit]
                    assert pts.shape == one.shape == want.shape
                    assert (pts == want).all() and (one == want).all()
                first, everything = got[0], got[1]
                if (limit and len(first) == len(everything) == limit
                        and _lead(everything[-1]) > _lead(first[-1])):
                    split += 1
    assert split  # the zero-form cut stopped in an earlier chart


@pytest.mark.parametrize("q", [2, 5, 9])
def test_cut_of_a_zero_set_with_empty_charts(q):
    # W = {x_j = 0} has no point in chart j, where x_j = 1, and a second
    # linear form can empty more charts; an empty chart mask is read past
    spec = field_for_order(q)
    b, rng = 3, SeededRng(q)
    cut = VarietySpec(spec, b, (random_hom(spec, b, 2, rng),))
    mis = enumerate_multiindices(b, 1)
    for j in range(b + 1):
        coeffs = [0] * len(mis)
        coeffs[mis.index(tuple(int(i == j) for i in range(b + 1)))] = 1
        hyperplane = HomPoly(spec, b, 1, tuple(coeffs))
        for w in ((hyperplane,), (hyperplane, random_hom(spec, b, 1, rng))):
            masks = zero_masks(VarietySpec(spec, b, w))
            want = fq_point_array(VarietySpec(spec, b, w + cut.forms))
            [got] = slice_points([cut], masks)
            assert got.shape == want.shape and (got == want).all()


def test_limit_stops_the_last_chart_before_its_last_slab():
    # q = 23, b = 4: W is one cubic, with about 23^3 points in chart 0,
    # and the cut is one cubic.  The chunks double from SLAB/32 cells to
    # SLAB over the whole pass, and a quarter of the cut lies in the first
    # few of chart 0
    spec = make_field(23, 1)
    rng = SeededRng(23)
    masks = zero_masks(VarietySpec(spec, 4, (random_hom(spec, 4, 3, rng),)))
    cut = VarietySpec(spec, 4, (random_hom(spec, 4, 3, rng),))
    slab, size, chunks = kstfree.variety.SLAB, kstfree.variety.SLAB >> 5, []
    for lead in (3, 2, 1, 0):  # chart 4, the one point, reads no chunk
        cells, c0 = masks[lead].reshape(-1), 0
        while c0 < len(cells):
            chunks.append(int(np.count_nonzero(cells[c0:c0 + size])))
            c0, size = c0 + size, min(2 * size, slab)
        if lead == 1:
            before = len(chunks)  # the chunks of charts 3 to 1
    assert max(chunks) <= slab // 4 and sum(chunks[before:]) > 23**3 // 2
    real = kstfree.variety._zero_mask
    rows = []  # points of each zero test of the cut

    def spy(t, p, work, out):
        rows.append(t.shape[1])
        return real(t, p, work, out)

    with mock.patch.object(kstfree.variety, "_zero_mask", spy):
        [full] = slice_points([cut], masks)
        whole, rows[:] = rows[:], []
        [pts] = slice_points([cut], masks, 23 * 23 // 4)
    assert whole == chunks
    assert rows == chunks[:len(rows)] and before < len(rows) < len(chunks)
    assert (pts == full[:132]).all()


@pytest.mark.parametrize("q", [8, 9, 121])
def test_slab_slice_of_the_full_power_matrix_is_the_slab_power_matrix(q):
    # fq_point_array slices each slab's powers out of the one over F_q
    spec = field_for_order(q)
    k, a = spec.k, 4
    power_matrix = kstfree.variety._power_matrix
    inner = power_matrix(spec, a, np.arange(q)).reshape(a * k, k, q)
    for x0, x1 in ((0, 1), (0, 4), (3, 7), (q - 2, q), (0, q)):
        got = inner[:, :, x0:x1].reshape(a * k, k * (x1 - x0))
        assert (got == power_matrix(spec, a, np.arange(x0, x1))).all()


@pytest.mark.parametrize("q, m, b", [
    (2, 3, 3), (3, 3, 3), (4, 5, 2), (8, 9, 2),  # exponents fold: q <= m
    (4, 3, 3), (7, 3, 3), (8, 2, 4), (9, 3, 2),  # they do not
    (5, 1, 1), (4, 5, 0), (11, 3, 1),
])
def test_chart_tensors_match_the_per_chart_filter(q, m, b):
    spec = field_for_order(q)
    rng = SeededRng(q * 100 + m * 10 + b)
    forms = [random_hom(spec, b, m, rng) for _ in range(3)]
    forms.append(HomPoly(spec, b, m, np.zeros_like(forms[0].coeffs)))
    for form in kstfree.variety._form_terms(VarietySpec(spec, b,
                                                        tuple(forms))):
        assert form.a == min(m + 1, q)
        for lead in chart_leads(b):
            want = chart_tensor(spec, form.expo, form.digits, lead, form.a)
            got = form.chart(lead)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert (got == want).all()


@pytest.mark.parametrize("q", [2, 8, 9, 23, 121])
def test_field_power_matrix_is_the_power_matrix_at_every_element(q):
    spec = field_for_order(q)
    for a in (1, 2, 4):
        pm = spec.power_matrix(a)
        want = kstfree.variety._power_matrix(spec, a, np.arange(q))
        assert pm.dtype == want.dtype and (pm == want).all()
        assert spec.power_matrix(a) is pm
        assert not pm.flags.writeable
        with pytest.raises(ValueError):
            pm[0, 0] = 1


def test_limit_refuses_negative_values():
    spec = make_field(5, 1)
    var = VarietySpec(spec, 2, (conic(spec),))
    with pytest.raises(ValueError, match="limit"):
        slice_points([var], zero_masks(var), limit=-1)


def test_zero_set_budget_is_checked_before_any_work():
    spec = make_field(2, 16)
    var = VarietySpec(spec, 3, (random_hom(spec, 3, 3, SeededRng(8)),))
    with mock.patch.object(kstfree.variety, "_form_terms",
                           side_effect=AssertionError("work started")):
        with pytest.raises(BudgetExceeded):
            fq_point_array(var, cap=10**6)


def test_zero_set_refuses_inexact_sums(monkeypatch):
    # a linear form has two exponents per axis: 2 (p-1)^2 >= 2^53
    p = next(n for n in range((1 << 26) + 1, 1 << 27) if is_prime(n))
    monkeypatch.setattr(kstfree.gf, "DEFAULT_ORDER_CAP", p)
    spec = make_field(p, 1)
    assert 2 * (p - 1) ** 2 >= 1 << 53 > (p - 1) ** 2 + p
    line = VarietySpec(spec, 1, (HomPoly(spec, 1, 1, (1, 1)),))
    with pytest.raises(ValueError, match="overflow"):
        fq_point_array(line, cap=10**9)
    # a constant has one exponent per axis, and P^0 is one point
    for c, size in ((0, 1), (5, 0)):
        point = VarietySpec(spec, 0, (HomPoly(spec, 0, 0, (c,)),))
        assert len(fq_point_array(point)) == size


@pytest.mark.parametrize("p, degree, dtype", [
    (2897, 1, np.float32),   # the last prime whose 2-term sums fit float32
    (2903, 1, np.float64),
    (2039, 3, np.float32),   # the same for 4-term sums
    (2053, 3, np.float64),
])
def test_zero_sets_on_both_sides_of_the_float32_bound(p, degree, dtype):
    spec = make_field(p, 1)
    assert spec._dtype(degree + 1, "test") is dtype
    rng = SeededRng(p)
    pts = projective_array(spec, 1)
    for _ in range(4):
        f = random_hom(spec, 1, degree, rng)
        var = VarietySpec(spec, 1, (f,))
        scalar = [evaluate(f, pt) for pt in enumerate_projective(spec, 1)]
        assert eval_hom_many([f], pts)[:, 0].tolist() == scalar
        zeros = [row for row, v in zip(pts.tolist(), scalar) if v == 0]
        assert fq_point_array(var).tolist() == zeros


def test_benchmark_zero_sets_and_constructs_run_in_float32():
    # every exact reduction and zero test of a builder-ext op and a q=31
    # turan construct sums in float32, and every zero test runs in 16 bits
    seen, widths = set(), set()
    real, real_zero = kstfree.gf._mod, kstfree.variety._zero_mask

    def spy(t, p):
        seen.add(t.dtype)
        return real(t, p)

    def zero_spy(t, p, work, out):
        seen.add(t.dtype)
        widths.add(work.dtype)
        return real_zero(t, p, work, out)

    plan = plan_construction("turan", 2, m=3, r=1, Z=1, c=Fraction(1, 4),
                             q=31)
    with mock.patch.object(kstfree.gf, "_mod", spy), \
            mock.patch.object(kstfree.variety, "_mod", spy), \
            mock.patch.object(kstfree.variety, "_zero_mask", zero_spy):
        built = build_independent_variety(
            make_field(11, 1), BuildConfig(b=3, num_forms=1, degree=3, s=3),
            SeededRng(1))
        construct_turan(plan, 1)
    assert built.certified
    assert seen == {np.dtype(np.float32)}
    assert widths == {np.dtype(np.uint16)}


def probe_counts(var, exts):
    return {e: count_points_ext(var, e) for e in exts}


def test_empty_zero_set_probe():
    # x0^2 + x1^2 has no zeros on the line over F_3, so a base-field-only
    # probe has no estimate; the quadratic extension picks up the two
    # points with x0 = +-i, which fit a point best
    spec = make_field(3, 1)
    f = HomPoly(spec, 1, 2, (1, 0, 1))
    var = VarietySpec(spec, 1, (f,))
    probe = dimension_probe(probe_counts(var, (1,)), 3)
    assert probe.estimate is None
    assert probe.counts == {1: 0}
    wider = dimension_probe(probe_counts(var, (1, 2)), 3)
    assert wider.counts == {1: 0, 2: 2}
    assert wider.estimate == 0


def test_conic_probe_counts_and_estimate():
    # smooth conic: q + 1 points over every extension, |P^1| exactly
    spec = make_field(3, 1)
    var = VarietySpec(spec, 2, (conic(spec),))
    probe = dimension_probe(probe_counts(var, (1, 2, 3)), 3)
    assert probe.counts == {1: 4, 2: 10, 3: 28}
    assert probe.estimate == 1


def test_hyperplane_probe():
    spec = make_field(7, 1)
    f = HomPoly(spec, 3, 1, (1, 0, 0, 0))
    var = VarietySpec(spec, 3, (f,))
    probe = dimension_probe(probe_counts(var, (1, 2)), 7)
    assert probe.counts == {1: projective_count(7, 2),
                            2: projective_count(49, 2)}
    assert probe.estimate == 2
    spec5 = make_field(5, 1)
    bigger = VarietySpec(spec5, 4, (HomPoly(spec5, 4, 1, (1, 0, 0, 0, 0)),))
    wide = dimension_probe(probe_counts(bigger, (1, 2)), 5)
    assert wide.estimate == 3


def test_probe_is_unbiased_at_q2():
    # a point of P^4 lies on a random cubic with probability about 1/2,
    # so W has about |P^3(F_{2^e})| points, not 2^(3e): fitting the slope
    # of ln(count) called 12 of these 40 threefolds surfaces
    spec = make_field(2, 1)
    estimates = []
    for seed in range(1, 41):
        f = random_hom(spec, 4, 3, SeededRng(seed).derive(0))
        var = VarietySpec(spec, 4, (f,))
        estimates.append(dimension_probe(probe_counts(var, (1, 2)), 2).estimate)
    assert estimates == [3] * 40


@pytest.mark.parametrize("counts,q,estimate", [
    ({1: 1}, 5, 0),
    ({1: 6, 2: 26}, 5, 1),            # |P^1(F_5)|, |P^1(F_25)|
    ({1: 31, 2: 651}, 5, 2),          # |P^2|
    ({1: 7}, 2, 2),                   # |P^2(F_2)|
    ({1: 5}, 2, 2),                   # between |P^1| = 3 and |P^2| = 7
    ({1: 0, 2: 0}, 3, None),
])
def test_probe_fits_projective_counts(counts, q, estimate):
    assert dimension_probe(counts, q).estimate == estimate


def test_probe_rejects_bad_degrees():
    with pytest.raises(ValueError):
        dimension_probe({}, 3)
    with pytest.raises(ValueError):
        dimension_probe({0: 4}, 3)


def test_extension_count_matches_manual_lift():
    spec = make_field(3, 1)
    ext = make_field(3, 2)
    var = VarietySpec(spec, 2, (conic(spec),))
    lifted = extend_variety(var, ext)
    assert count_points_ext(var, 2) == count_points(lifted) == 10
    # constants embed as constants
    manual = conic(ext)
    assert manual.coeffs.tolist() == lifted.forms[0].coeffs.tolist()


@pytest.mark.parametrize("p, k, e", [(2, 1, 2), (2, 1, 3), (3, 1, 2),
                                     (2, 2, 2), (2, 2, 3), (3, 2, 2),
                                     (2, 3, 2), (11, 1, 2)])
def test_frobenius_orbits_partition_the_extension(p, k, e):
    base, ext = make_field(p, k), make_field(p, k * e)
    q, big = base.order, ext.order
    reps, sizes = kstfree.variety._frobenius_orbits(ext, q)
    assert all(e % int(n) == 0 for n in sizes)
    assert int(sizes.sum()) == big
    assert sorted(reps[sizes == 1].tolist()) == \
        sorted(base.embed_table(ext).tolist())
    # the orbits {x^(q^j)} of the representatives are disjoint and cover
    seen = set()
    for x, n in zip(reps.tolist(), sizes.tolist()):
        orbit = {ext.pow(x, q**j) for j in range(e)}
        assert len(orbit) == n and not orbit & seen
        seen |= orbit
    assert seen == set(range(big))


def orbit_count_cases():
    # prime and non-prime base fields, |P^b(F_{q^e})| <= 300k
    cases = []
    for q in (2, 3, 4, 5, 8, 9):
        for e in (2, 3):
            for b in (1, 2, 3):
                if projective_count(q**e, b) > 300_000:
                    continue
                cases += [(q, e, b, m, nforms) for m in (1, 2, 3)
                          for nforms in (1, 2)]
    return cases


def test_orbit_weighted_counts_match_the_full_enumeration():
    for q, e, b, m, nforms in orbit_count_cases():
        spec = field_for_order(q)
        ext = make_field(spec.p, spec.k * e)
        rng = SeededRng(1000 * q + 100 * e + 10 * b + m)
        var = VarietySpec(spec, b, tuple(random_hom(spec, b, m, rng)
                                         for _ in range(nforms)))
        lifted = extend_variety(var, ext)
        got = count_points_ext(var, e)
        assert type(got) is int  # the report writer takes no numpy ints
        assert got == len(fq_point_array(lifted)), (q, e, b, m, nforms)


def test_variety_json_roundtrip():
    spec = make_field(3, 2)
    rng = SeededRng(99)
    forms = tuple(random_hom(spec, 2, 2, rng) for _ in range(2))
    var = VarietySpec(spec, 2, forms)
    doc = variety_to_json(var)
    assert doc == {"field": {"p": 3, "k": 2}, "b": 2,
                   "forms": [hom_to_json(f) for f in forms]}


def test_nonzero_form_zero_count_bound():
    # a nonzero degree-d form vanishes on at most d * |P^(b-1)| points
    for p, b, m in [(3, 2, 2), (5, 2, 3), (7, 1, 4)]:
        spec = make_field(p, 1)
        rng = SeededRng(1000 * p + 10 * b + m)
        for _ in range(12):
            f = random_hom(spec, b, m, rng)
            if not any(f.coeffs):
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
    assert res.swise_mode == "interpolation"
    assert res.probe is not None and res.probe.estimate == 1
    assert res.failure_tally == {"count": 0, "swise": 0, "probe": 0}


def test_builder_without_forms_draws_once(monkeypatch):
    # s = 4 > m + 1, but over F_2 any 2^(m+1) - 2 = 6 points are independent
    # at degree m = 2 (Reed-Muller), so all 511 points of P^8 are certified
    # 4-wise independent without a search, on the first draw
    def no_search(*args, **kwargs):
        raise AssertionError("s-wise search ran")

    monkeypatch.setattr(kstfree.independence, "s_wise_independent", no_search)
    spec = make_field(2, 1)
    cfg = BuildConfig(b=8, num_forms=0, degree=2, s=4)
    res = build_independent_variety(spec, cfg, SeededRng(1))
    assert res.certified
    assert res.swise_mode == "reed-muller"
    assert res.attempts == 1 and res.n_points == 511
    assert res.failure_tally == {"count": 0, "swise": 0, "probe": 0}


def test_builder_cubic_surface_certifies():
    spec = make_field(11, 1)
    cfg = BuildConfig(b=3, num_forms=1, degree=3, s=3)
    res = build_independent_variety(spec, cfg, SeededRng(2026))
    assert res.certified
    assert res.target_dim == 2
    assert 2 * res.n_points >= 11**2
    assert res.swise_mode == "interpolation"
    assert res.probe.estimate == 2
    assert sorted(res.probe.counts) == [1, 2]


def test_builder_probe_counts_only_what_fits():
    # P^3(F_121) is over this cap, so only the base field is counted
    spec = make_field(11, 1)
    cfg = BuildConfig(b=3, num_forms=1, degree=3, s=3, point_cap=20_000)
    res = build_independent_variety(spec, cfg, SeededRng(5))
    assert res.probe is not None
    assert list(res.probe.counts) == [1]  # only the base field fit the cap


def test_builder_probe_keeps_to_the_field_order_cap():
    # |P^1(F_{1031^2})| fits the point budget, but F_{1031^2} is over the
    # field order cap, so only the base field is counted
    res = build_independent_variety(
        field_for_order(1031), BuildConfig(b=1, num_forms=1, degree=2, s=1),
        SeededRng(1))
    assert projective_count(1031**2, 1) <= BuildConfig(1, 1, 2, 1).point_cap
    assert res.certified
    assert list(res.probe.counts) == [1]


def test_builder_certifies_by_interpolation(monkeypatch):
    # s <= m + 1: the certificate is the theorem, no subset is searched
    def no_search(*args, **kwargs):
        raise AssertionError("s-wise search ran")

    monkeypatch.setattr(kstfree.independence, "s_wise_independent", no_search)
    spec = make_field(11, 1)
    cfg = BuildConfig(b=3, num_forms=1, degree=3, s=3)
    res = build_independent_variety(spec, cfg, SeededRng(2026))
    assert res.certified
    assert res.swise_mode == "interpolation"
    assert res.probe.counts[1] == res.n_points


@pytest.mark.parametrize("seed", [2, 3])
def test_builder_sampled_swise_does_not_certify(seed, monkeypatch):
    # s = 4 > m + 1 over F_3: no theorem covers the draws and no search or
    # sample may certify them, so the builder refuses before reading a stream
    def no_stream(self, index):
        raise AssertionError("a stream was read")

    monkeypatch.setattr(SeededRng, "derive", no_stream)
    cfg = BuildConfig(b=6, num_forms=2, degree=2, s=4)
    with pytest.raises(ValueError, match="no theorem certifies 4-wise "
                                         "independence at degree 2 over F_3"):
        build_independent_variety(make_field(3, 1), cfg, SeededRng(seed))


def test_builder_failure_tally_bookkeeping(monkeypatch):
    monkeypatch.setattr(kstfree.variety, "MAX_ATTEMPTS", 1)
    spec = make_field(3, 1)
    cfg = BuildConfig(b=2, num_forms=2, degree=2, s=2)
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


def test_builder_retry_uses_derived_streams(monkeypatch):
    # a build that needed j attempts reproduces attempt j from derive(j)
    monkeypatch.setattr(kstfree.variety, "MAX_ATTEMPTS", 8)
    spec = make_field(3, 1)
    cfg = BuildConfig(b=2, num_forms=2, degree=2, s=2)
    for seed in range(40):
        res = build_independent_variety(spec, cfg, SeededRng(seed))
        if res.certified and res.attempts > 1:
            sub = SeededRng(seed).derive(res.attempts - 1)
            forms = tuple(random_hom(spec, 2, 2, sub) for _ in range(2))
            assert ([f.coeffs.tolist() for f in forms]
                    == [f.coeffs.tolist() for f in res.variety.forms])
            return
    pytest.skip("no multi-attempt certified build in seed range")


def test_concentration_on_projective_line():
    # every cut of the six points of the line over F_5: a nonzero linear
    # form keeps one point, the zero form all six, and at degree >= 1 the
    # moments are the second-moment theorem's |Y|/q and |Y|(1/q)(1-1/q)
    line = VarietySpec(make_field(5, 1), 1, ())
    for degree in (1, 2):
        assert slice_moments(line, degree) == (6, Fraction(6, 5),
                                               Fraction(24, 25))
    # degree 0: the constants keep all or nothing, so pairs are dependent
    assert slice_moments(line, 0) == (6, Fraction(6, 5), Fraction(144, 25))
    # Y given by forms: the six points of a conic in the plane, cut by lines
    assert slice_moments(VarietySpec(make_field(5, 1), 2,
                                     (conic(make_field(5, 1)),)), 1) == (
        6, Fraction(6, 5), Fraction(24, 25))


def test_concentration_validation():
    spec = make_field(5, 1)
    # the constant 1 vanishes nowhere: every cut of the empty set is empty
    empty = VarietySpec(spec, 1, (HomPoly(spec, 1, 0, (1,)),))
    assert slice_moments(empty, 1) == (0, 0, 0)
    # 7^10 quadrics on P^3(F_7) are past the exhaustive cap
    with pytest.raises(BudgetExceeded):
        slice_moments(VarietySpec(make_field(7, 1), 3, ()), 2)

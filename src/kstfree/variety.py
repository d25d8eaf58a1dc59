"""Point sets cut out by random forms, with counting and certification.

A variety here is the common projective zero set of a handful of
homogeneous forms, and a slice of one by further forms is the zero set
of both lists.  The forms' chart tensors decide where forms vanish,
two scatters per form for all of its charts (`_Form.chart`) and one
power matrix per field for all of its walks (`FieldSpec.power_matrix`),
walked over the grid of every chart of P^b (`zero_masks`, whose chart
masks hold a zero set in the walk's own layout, one byte per point of
P^b, and the counts) or read at a zero set's points (`slice_points`,
which cuts several slices from one set of masks in one pass).  Rows of
point encodings are built only where they are asked for
(`fq_point_array`, `BuildResult.points`, a slice's kept points).
Everything is exhaustive over the finite field, so the point cap is
load-bearing: a zero set costs a matmul and a zero test per form over
the grid of every chart of P^b, in any field, and the builder's F_{q^2}
probe, which walks one leading coordinate per Frobenius orbit, covers
about q^b/2 times the points of its F_q count.  The matmuls run in
float32 wherever `FieldSpec._dtype` keeps their sums exact in it, as
for cubics over every field of characteristic up to 2,039 under the
default order cap, and in float64 otherwise.  Every question of whether
a form vanishes at a point, in a walk or a cut, is one exact unsigned
divisibility test of its digit sums (`gf._zero_mask`), in 16 bits for
cubics while 4k(p-1)^2 < 2^16, as for every benchmark field.

The certified builder draws fresh forms until the zero set passes three
checks: it is large enough (at least half the first-order prediction),
it is s-wise independent at the forms' degree m (by the interpolation
theorem when s <= m+1, else only by an exhaustive search within the
subset budget), and a point-count probe over F_q and, within the point
cap, F_{q^2} lands on the expected dimension.  Each check can fail for
an unlucky draw; the builder retries with derived streams and keeps a
tally of which check rejected how many attempts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gf import (DEFAULT_ORDER_CAP, FieldSpec, _mod, _power_matrix,
                 _unsigned, _zero_mask, make_field)
from .independence import SWiseCheck, s_wise_independent, z_condition
from .polyrand import HomPoly, SeededRng, hom_to_json, random_hom
from .projgeom import (chart_leads, chart_rows, checked_count,
                       multiindex_table, projective_count)
from .util import DEFAULT_POINT_BUDGET, DEFAULT_SUBSET_BUDGET


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


SLAB = 1 << 17  # cells in one slab of a chart's leading free axis


def _scatter(spec: FieldSpec, a: int, expo: np.ndarray,
             digits: np.ndarray) -> np.ndarray:
    """Digits of the terms of a form, exponents expo (M, b) of x_1..x_b and
    digits (M, k), as a tensor of shape (a,)*b + (k,), mod p.

    An exponent e >= q folds to ((e-1) mod (q-1)) + 1, because x^q = x on
    F_q; 0 stays 0 and every other exponent stays above 0.  Terms that
    fold together add up (`np.add.at`).  Where none folds, no two terms of
    a homogeneous form share a cell, since its exponents of x_1..x_b fix
    the one of x_0, and the digits are assigned.  The tensor feeds
    a*k-term sums, and comes in their dtype.
    """
    q, k, p, b = spec.order, spec.k, spec.p, expo.shape[1]
    dt = spec._dtype(a * k, "zero set")
    fold = expo >= q
    folds = fold.any()
    if folds:
        expo = np.where(fold, (expo - 1) % (q - 1) + 1, expo)
    flat = expo @ (a ** np.arange(b - 1, -1, -1, dtype=np.int64))
    if folds:
        t = np.zeros((a**b, k), dtype=np.int64)
        np.add.at(t, flat, digits)
        t = np.remainder(t, p, out=t).astype(dt)
    else:
        t = np.zeros((a**b, k), dtype=dt)
        t[flat] = digits
    return t.reshape((a,) * b + (k,))


class _Form:
    """A form as a zero-set walk reads it: a = min(m+1, q) exponents per
    free axis, its nonzero terms (exponents expo (M, b+1), digits (M, k)),
    and its chart tensors, handed out once each by `chart`."""

    def __init__(self, spec: FieldSpec, a: int, expo: np.ndarray,
                 digits: np.ndarray):
        self.spec, self.a, self.expo, self.digits = spec, a, expo, digits
        self._tail = None  # [None, chart 1, .., chart b], on first read

    def chart(self, lead: int) -> np.ndarray:
        """Digits of the form's restriction to chart `lead`, x_lead = 1:
        shape (a,)*(b-lead) + (k,), over x_{lead+1}..x_b.

        Chart 0 keeps every term, and x_0 = 1 drops out: it is the scatter
        of all terms over x_1..x_b (`_scatter`).  Chart L >= 1 keeps the
        terms with no x_0..x_{L-1}, which are the x_0-free terms at
        exponent 0 on x_1..x_{L-1}, and x_L = 1 sums their x_L axis out.
        With D the scatter of the x_0-free terms it is
        D[(0,)*(L-1)].sum(0) mod p, and the first read of any chart
        L >= 1 builds them all from one D, which is then dropped.  Chart
        0, the largest, is built at its read, so no more than one tensor of
        its size is held at a time.  A chart is handed out once, as each
        walk reads it once.
        """
        spec, expo = self.spec, self.expo
        if lead == 0:
            return _scatter(spec, self.a, expo[:, 1:], self.digits)
        if self._tail is None:
            free = expo[:, 0] == 0
            d = _scatter(spec, self.a, expo[free, 1:], self.digits[free])
            self._tail = [None]
            for _ in range(expo.shape[1] - 1):
                self._tail.append(d.sum(axis=0) % spec.p)
                d = d[0]
        t, self._tail[lead] = self._tail[lead], None
        return t


def _inner_contraction(spec: FieldSpec, t: np.ndarray, inner: np.ndarray,
                       a: int) -> np.ndarray:
    """(a*k, q^(n-1)): a chart tensor with every free axis but the first summed.

    Row (e, j) holds digit j of the coefficient of x_1^e at each grid
    point x_2..x_n (columns, C order).  The axes are contracted last to
    first against the powers of all of F_q in `inner`, whose columns
    (digit, point) put each product's digits on the next exponent axis,
    so every step is a reshape and one matmul.
    """
    q, k, n = spec.order, spec.k, t.ndim - 1
    if n == 1:
        return t.reshape(a * k, 1)
    w = inner[:a * k]
    t = _mod(t.reshape(-1, a * k) @ w, spec.p)  # (e_1..e_{n-1}, k, x_n)
    for j in range(1, n - 1):
        # (e_1..e_{n-j}, k, x_{n-j+1}..x_n): contract e_{n-j}
        t = _mod(w.T @ t.reshape(-1, a * k, q**j), spec.p)
    return t.reshape(a * k, q ** (n - 1))


def _form_terms(var: VarietySpec) -> list:
    """A `_Form` per form, a = min(m+1, q); refuses sums that no float
    holds (`FieldSpec._dtype`) before work."""
    spec, k, q = var.spec, var.spec.k, var.spec.order
    forms = []
    for f in var.forms:
        a = min(f.m + 1, q)
        spec._dtype(a * k, "degree-%d zero set" % f.m)
        on = f.coeffs != 0
        expo = multiindex_table(var.b, f.m)[on]
        forms.append(_Form(spec, a, expo, spec.dec_array(f.coeffs[on])))
    return forms


def _field_powers(spec: FieldSpec, b: int, a: int):
    """`FieldSpec.power_matrix(a)` where a walk of P^b reads the powers of
    all of F_q: b > 1, where they contract the inner axes, or b = 1 and
    they fit one slab.  None otherwise (a wide field at b = 1, such as
    GF(2^16)), where each slab builds its own."""
    k = spec.k
    if b > 1 or (b == 1 and SLAB // (a * k * k) >= spec.order):
        return spec.power_matrix(a)
    return None


def _zero_cells(var: VarietySpec, cap: int, xs: np.ndarray):
    """Yield (lead, i, cells) per slab: where the forms vanish, chart by chart.

    Each chart with n >= 1 free axes is walked along its leading free
    coordinate x_1 over the distinct, ascending field encodings xs, in
    slabs; cells (rows, q^(n-1)) is alive at row r and grid index g where
    every form vanishes at x_1 = xs[i + r] and x_2..x_n = g (C order).
    Chart b, the one point x_b = 1, yields a (1, 1) cell at i = 0.  The
    cells are a view into a buffer that the next slab overwrites.

    Chart by chart (`projgeom.chart_leads`), each form is evaluated on the
    grid of its restriction (`_Form.chart`) by contracting its
    coefficient tensor one exponent axis at a time against the powers of
    the field's elements, a = min(m+1, q) exponents per axis, each power
    the GF(p) matrix M_{x^e} of the field's one multiplication table
    (`gf._power_matrix`).  Each contraction is one matmul in the dtype of
    a*k-term sums (`FieldSpec._dtype`): float32 while
    a*k*(p-1)^2 + p <= 2^24, float64 while it is <= 2^53, else
    ValueError.  A form's inner axes are contracted at its first use in a
    chart (`_inner_contraction`), each step followed by % p, against the
    power matrix over all of F_q.  A slab holds at most SLAB cells, its
    product has axes (digit, x_1, x_2..x_n), and a point stays alive where
    all its digits are 0 mod p (`gf._zero_mask`: one wrapping product per
    digit in the narrowest unsigned width that holds a*k*(p-1)^2,
    `gf._unsigned`, and one comparison, which the first form writes into
    the cells).  The first form writes the slab's cells, and no form runs
    once all its points are dead; on a slab of SLAB/4 cells or more
    (digits counted) a later form sees only the columns x_2..x_n where a
    point is still alive, gathered with one `np.take`, and ANDs its test
    into them.  Power matrices hold the largest exponent count, each form
    takes the prefix of rows it needs, and a slab's powers are its
    columns.  The one over all of F_q is the field's own, built once per
    exponent count (`FieldSpec.power_matrix`, where `_field_powers` reads
    it), and the powers at xs are its columns, gathered once per call
    unless xs is all of F_q.  Without it (b = 1 on a field too wide for
    one slab, such as GF(2^16)) the powers at xs are built once per call
    if they fit one slab, and else each slab builds its own.  A slab's
    product, its zero tests and its cells go into buffers allocated once
    per call, as large as the largest slab needs.
    """
    spec, b = var.spec, var.b
    p, k, q = spec.p, spec.k, spec.order
    checked_count(q, b, cap)
    forms = _form_terms(var)
    amax = max((f.a for f in forms), default=1)
    nx = len(xs)
    # x_1 values per slab of the chart with n free axes
    steps = {n: max(1, SLAB // (k * max(q ** (n - 1), amax * k)))
             for n in range(1, b + 1)}
    inner = _field_powers(spec, b, amax) if forms else None
    outer = None  # powers at xs, (a*k, k, nx), where one matrix holds them
    if inner is not None:
        outer = inner.reshape(amax * k, k, q)
        if nx != q:
            outer = outer.take(xs, axis=2)
    elif forms and steps.get(1, 0) >= nx:
        outer = _power_matrix(spec, amax, xs).reshape(amax * k, k, nx)
    # a slab's cells, alive where every form so far vanishes; the first
    # form writes them
    most = max((min(steps[n], nx) * q ** (n - 1) for n in steps), default=0)
    alive = np.empty(most, dtype=bool)
    if forms and b > 0:
        # a slab's product, its sums in the test's width, and a later
        # form's zero test
        bufs = (np.empty(k * most, spec._dtype(amax * k, "zero set")),
                np.empty(k * most, _unsigned(amax * k * (p - 1) ** 2)),
                np.empty(most, bool))
    for lead in chart_leads(b):
        n = b - lead
        if n == 0:
            zero = not any(f.chart(lead).any() for f in forms)
            yield lead, 0, np.full((1, 1), zero)
            continue
        grid, step = q ** (n - 1), steps[n]
        ts = [None] * len(forms)  # (a*k, grid), contracted on first use
        for x0 in range(0, nx, step):
            x1 = min(x0 + step, nx)
            cells = alive[:(x1 - x0) * grid].reshape(x1 - x0, grid)
            if not forms:
                cells.fill(True)
            for i, f in enumerate(forms):
                # w: (digit, x_1, exponent and digit) powers at xs[x0:x1]
                if i == 0 and outer is None:
                    w = _power_matrix(spec, amax, xs[x0:x1])
                    w = w.reshape(amax * k, k, x1 - x0).transpose(1, 2, 0)
                elif i == 0:
                    w = outer[:, :, x0:x1].transpose(1, 2, 0)
                elif not cells.any():
                    break
                if ts[i] is None:
                    ts[i] = _inner_contraction(spec, f.chart(lead), inner,
                                               f.a)
                live, t = slice(None), ts[i]
                if i > 0 and cells.size * k >= SLAB // 4:
                    # below this size the gather costs more than it saves
                    live = np.flatnonzero(cells.any(axis=0))
                    t = t.take(live, axis=1)
                shape = (k, x1 - x0, t.shape[1])
                size = math.prod(shape)
                vals, work = (buf[:size].reshape(shape) for buf in bufs[:2])
                np.matmul(w[..., :f.a * k], t, out=vals)
                if i == 0:
                    _zero_mask(vals, p, work, cells)
                else:
                    mask = bufs[2][:size // k].reshape(shape[1:])
                    cells[:, live] &= _zero_mask(vals, p, work, mask)
            yield lead, x0, cells


def zero_masks(var: VarietySpec, cap: int = DEFAULT_POINT_BUDGET) -> dict:
    """{lead: bool mask} of the rational points, one mask per chart, in
    canonical chart order (`projgeom.chart_leads`).

    Chart L with n >= 1 free axes is a (q, q^(n-1)) mask, alive at row x_1
    and grid index g of x_2..x_n (C order) where every form vanishes;
    chart b, the one point x_b = 1, is (1, 1).  Read flat in C order, a
    mask's cells are its chart's grid indices (`chart_rows`), so the masks
    hold the zero set in canonical order, in |P^b| bytes.  Each slab of
    `_zero_cells` is copied in.
    """
    q, b = var.spec.order, var.b
    masks = {}
    for lead, x0, cells in _zero_cells(var, cap, np.arange(q)):
        if lead not in masks:
            masks[lead] = np.empty((q if lead < b else 1, cells.shape[1]),
                                   dtype=bool)
        masks[lead][x0:x0 + len(cells)] = cells
    return masks


def _mask_rows(q: int, b: int, masks: dict) -> np.ndarray:
    """Encodings of the points alive in chart masks, canonical order."""
    return np.concatenate([chart_rows(q, b, lead, np.flatnonzero(mask))
                           for lead, mask in masks.items()])


def fq_point_array(var: VarietySpec,
                   cap: int = DEFAULT_POINT_BUDGET) -> np.ndarray:
    """Encodings of the rational points, canonical order, shape (N, b+1):
    the rows of `zero_masks`."""
    return _mask_rows(var.spec.order, var.b, zero_masks(var, cap))


def slice_points(cuts, masks: dict, limit: int | None = None) -> list:
    """For each cut, the rows of W's points where every form of the cut
    vanishes, canonical order, cut to the first `limit`; W is given by its
    `zero_masks`, and all cuts share one pass over them.

    The charts' masks are read in canonical order, in chunks of cells that
    double from SLAB/32 to SLAB over the whole pass; a chunk ends early at
    the end of its chart, or once it holds SLAB/(a k^2) of W's points.
    One flatnonzero per chunk gives W's points there, as row x_1 and grid
    index g of x_2..x_n.  With T a form's chart tensor (`_Form.chart`),
    inner axes contracted over F_q as in `_zero_cells`, and P the power
    matrix over F_q, the field's own where `_field_powers` gives it and
    else built at the chunk's x_1, digit j of the form at (x_1, g) is
    sum_r P[r, j, x_1] T[r, g] mod p: a*k products, which the walk's zero
    test reads without reducing them (`gf._zero_mask`, into buffers
    allocated once per call).  Every cut reads the one gather (`np.take`)
    of P at the chunk's x_1, and a cut's later forms run only at its
    survivors, whose columns of P and T are gathered the same way.
    Chart b reads the tensors' constant.  A cut whose `limit` points
    survive reads no further chunk, and its survivors are trimmed to
    `limit` before their rows are built.  The masks passed the point
    budget when they were walked, so the cut does not check it.
    """
    if limit is not None and limit < 0:
        raise ValueError("limit must be >= 0, got %d" % limit)
    spec, b = cuts[0].spec, cuts[0].b
    p, k, q = spec.p, spec.k, spec.order
    terms = [_form_terms(cut) for cut in cuts]
    amax = max((f.a for forms in terms for f in forms), default=1)
    inner = _field_powers(spec, b, amax)
    most = max(1, SLAB // (amax * k * k))  # W's points in one chunk
    # a chunk's sums in the zero test's width, and a form's zero test
    work = np.empty((k, most), _unsigned(amax * k * (p - 1) ** 2))
    tested = np.empty(most, bool)
    want = [math.inf if limit is None else limit] * len(cuts)
    kept = [[] for _ in cuts]  # per cut: its rows, chart by chart
    size = max(1, SLAB >> 5)  # cells in the next chunk
    for lead, mask in masks.items():
        active = [c for c in range(len(cuts)) if want[c] > 0]
        if not active:
            break
        if lead == b:
            for c in active:
                if mask[0, 0] and not any(f.chart(b).any()
                                          for f in terms[c]):
                    kept[c].append(chart_rows(q, b, b, np.zeros(1, np.int64)))
                    want[c] -= 1
            continue
        cells, grid = mask.reshape(-1), mask.shape[1]
        ts = [[None] * len(forms) for forms in terms]  # on first use
        c0 = 0
        while c0 < len(cells) and active:
            idx = np.flatnonzero(cells[c0:c0 + size]) + c0
            c0, size = min(c0 + size, len(cells)), min(2 * size, SLAB)
            if len(idx) > most:
                idx, c0 = idx[:most], int(idx[most])
            x1, g = np.divmod(idx, grid)
            if inner is None:  # the powers at these x_1
                w = _power_matrix(spec, amax, x1).reshape(amax * k, k, -1)
            else:
                w = inner.reshape(amax * k, k, q).take(x1, axis=2)
            for c in active:
                live = None  # positions in idx that the cut keeps; None: all
                for i, f in enumerate(terms[c]):
                    if ts[c][i] is None:
                        ts[c][i] = _inner_contraction(spec, f.chart(lead),
                                                      inner, f.a)
                    wl, gl = (w, g) if live is None else (
                        w.take(live, axis=2), g.take(live))
                    vals = np.einsum("ejr,er->jr", wl[:f.a * k],
                                     ts[c][i].take(gl, axis=1))
                    ok = _zero_mask(vals, p, work[:, :len(gl)],
                                    tested[:len(gl)])
                    live = np.flatnonzero(ok) if live is None else live[ok]
                hits = idx if live is None else idx.take(live)
                if len(hits) > want[c]:
                    hits = hits[:want[c]]
                kept[c].append(chart_rows(q, b, lead, hits))
                want[c] -= len(hits)
            active = [c for c in active if want[c] > 0]
    return [np.concatenate(rows) if rows else np.zeros((0, b + 1), np.int64)
            for rows in kept]


def _weighted_count(var: VarietySpec, cap: int, xs: np.ndarray,
                    sizes: np.ndarray) -> int:
    """Points of `var` if x_1 = xs[i] stands for sizes[i] values of x_1;
    chart b's one point is a cell at index 0, where sizes[0] is 1."""
    total = 0
    for _, x0, cells in _zero_cells(var, cap, xs):
        if cells.shape[1] < 1024:  # many short rows: one row-wise count
            total += int(np.count_nonzero(cells, axis=1)
                         @ sizes[x0:x0 + len(cells)])
        else:  # a flat count per long row takes a fraction of the time
            total += sum(int(np.count_nonzero(row)) * int(n)
                         for row, n in zip(cells, sizes[x0:]))
    return total


def count_points(var: VarietySpec, cap: int = DEFAULT_POINT_BUDGET) -> int:
    """len(fq_point_array(var, cap)), without building the rows."""
    q = var.spec.order
    return _weighted_count(var, cap, np.arange(q), np.ones(q, dtype=np.int64))


def extend_variety(var: VarietySpec, ext: FieldSpec) -> VarietySpec:
    """The same forms with coefficients pushed through the field embedding,
    whose table is built once for all of them."""
    table = var.spec.embed_table(ext)
    forms = [HomPoly(ext, f.b, f.m, table[f.coeffs]) for f in var.forms]
    return VarietySpec(ext, var.b, tuple(forms))


def _frobenius_orbits(ext: FieldSpec, q: int) -> tuple:
    """(representatives, sizes) of the orbits of x -> x^q on ext = F_{q^e}.

    With g the primitive element of the log tables, g^i -> g^(iq), so the
    orbit of g^i is {g^(i q^j mod (Q-1))}, Q = q^e; its representative is
    its element of least log, and 0 is an orbit of its own.  Every size
    divides e, and the size-1 orbits are F_q.  Representatives ascend.
    """
    _, log = ext.log_tables()
    n = ext.order - 1
    logs = log[1:]  # of the encodings 1..Q-1
    least, t = logs, q % n
    while t != 1:
        least = np.minimum(least, logs * t % n)
        t = t * q % n
    rep = least == logs
    sizes = np.bincount(least, minlength=n)[logs[rep]]
    return (np.concatenate([[0], np.flatnonzero(rep) + 1]),
            np.concatenate([[1], sizes]))


def count_points_ext(var: VarietySpec, ext_degree: int,
                     cap: int = DEFAULT_POINT_BUDGET) -> int:
    """Rational point count over the extension of the given degree.

    The count walks one x_1 per Frobenius orbit (`_frobenius_orbits`),
    weighted by the orbit's size.  Lemma: in each chart, the zeros of the
    lift with x_1 = alpha and those with x_1 = alpha^q are equinumerous.
    Proof: sigma(x) = x^q is a field automorphism of F_{q^e} that fixes
    F_q.  It fixes 0 and 1, so applied coordinatewise it maps the chart
    {x_0..x_{L-1} = 0, x_L = 1} onto itself, bijectively (sigma^e = 1),
    sending x_1 = alpha to x_1 = alpha^q.  The forms have coefficients in
    F_q, so f(sigma(x)) = sigma(f(x)), which is 0 iff f(x) is.  Hence the
    slice at any alpha holds as many zeros as the slice at the orbit's
    representative, and the count is the sum over orbits of |orbit| times
    the zeros at its representative: (Q+q)/2 of the Q = q^2 values of x_1
    for e = 2.
    """
    if ext_degree < 1:
        raise ValueError("extension degree must be >= 1")
    if ext_degree == 1:
        return count_points(var, cap=cap)
    ext = make_field(var.spec.p, var.spec.k * ext_degree)
    orbits = _frobenius_orbits(ext, var.spec.order)
    return _weighted_count(extend_variety(var, ext), cap, *orbits)


@dataclass
class DimensionProbe:
    counts: dict              # extension degree -> rational point count
    estimate: int | None      # best-fitting dimension, None when all are 0


def dimension_probe(counts: dict, q: int) -> DimensionProbe:
    """Dimension estimate from rational point counts across extensions.

    counts maps each extension degree e >= 1 to the count c_e over
    F_{q^e}.  The estimate is the d that minimises
    sum_e (ln c_e - ln |P^d(F_{q^e})|)^2 over the nonzero counts, the
    smallest such d on a tie.  |P^d|, not q^(ed), is the scale: a random
    zero set of codimension Z in P^b has about |P^b| q^(-eZ) points, which
    is |P^(b-Z)| up to lower-order terms.  Past the first d whose |P^d|
    reaches every count each term only grows, so the search stops there.
    """
    counts = dict(sorted(counts.items()))
    if not counts or min(counts) < 1:
        raise ValueError("extension degrees must be positive")
    seen = {e: c for e, c in counts.items() if c}
    if not seen:
        return DimensionProbe(counts, None)

    def misfit(d):
        return sum((math.log(c) - math.log(projective_count(q**e, d))) ** 2
                   for e, c in seen.items())

    top = 0
    while any(projective_count(q**e, top) < c for e, c in seen.items()):
        top += 1
    return DimensionProbe(counts, min(range(top + 1), key=misfit))


# ---------------------------------------------------------------------------
# certified builder

PROBE_EXTENSION = 2   # besides F_q itself, count over F_{q^2} when it fits
                      # the field order cap and the point budget
MAX_ATTEMPTS = 10     # draws the builder tries before it gives up


@dataclass
class BuildConfig:
    b: int                    # ambient projective dimension
    num_forms: int            # how many forms to draw
    degree: int               # their common degree
    s: int                    # independence arity to certify
    point_cap: int = DEFAULT_POINT_BUDGET
    subset_budget: int = DEFAULT_SUBSET_BUDGET


@dataclass
class BuildResult:
    certified: bool
    attempts: int
    variety: VarietySpec | None
    masks: dict | None        # the variety's `zero_masks`
    n_points: int
    target_dim: int
    swise: SWiseCheck | None
    probe: DimensionProbe | None
    failure_tally: dict = field(default_factory=dict)

    @cached_property
    def points(self) -> np.ndarray:
        """The variety's rows in canonical order, built on first read."""
        return _mask_rows(self.variety.spec.order, self.variety.b,
                          self.masks)


def _count_ok(n_points: int, q: int, target_dim: int) -> bool:
    # at least half the first-order prediction q^dim, exactly compared
    return 2 * n_points >= q**target_dim


def _check_draw(var: VarietySpec, masks: dict, n: int, cfg: BuildConfig,
                target_dim: int, by_theorem: bool, probe_ext: bool):
    """(first failed check or None, s-wise certificate, probe) of one draw
    of n points, held as chart masks.

    Without the theorem the s-subsets are searched only within the subset
    budget, on the points' rows; a draw with more of them is rejected
    unsearched, as it could not be certified.
    """
    q = var.spec.order
    if not _count_ok(n, q, target_dim):
        return "count", None, None
    if by_theorem:
        sw = SWiseCheck(None, 0, math.comb(n, cfg.s), "interpolation")
    elif math.comb(n, cfg.s) > cfg.subset_budget:
        return "swise", None, None
    else:
        sw = s_wise_independent(var.spec, _mask_rows(q, var.b, masks),
                                cfg.s, cfg.degree, budget=cfg.subset_budget)
    if not sw.certified:
        return "swise", sw, None
    counts = {1: n}
    if probe_ext:
        counts[PROBE_EXTENSION] = count_points_ext(var, PROBE_EXTENSION,
                                                   cap=cfg.point_cap)
    probe = dimension_probe(counts, q)
    return (None if probe.estimate == target_dim else "probe"), sw, probe


def build_independent_variety(spec: FieldSpec, cfg: BuildConfig,
                              rng: SeededRng) -> BuildResult:
    """Draw forms until the zero set passes count, s-wise, and probe checks.

    Attempt j always uses rng.derive(j), so retries are reproducible and
    independent of how earlier attempts consumed their stream.  With no
    forms to draw every attempt would see the same W, so the first one
    is the only one.
    """
    if cfg.num_forms < 0 or cfg.degree < 1 or cfg.b < 1 or cfg.s < 1:
        raise ValueError("bad builder configuration")
    target_dim = cfg.b - cfg.num_forms
    if target_dim < 0:
        raise ValueError("more forms than dimensions available")

    z_rep = z_condition(cfg.b, cfg.degree, cfg.num_forms, cfg.s) if cfg.s >= 2 else None
    if z_rep is not None and z_rep.verdict == "false":
        raise ValueError(
            "form count %d is too small for certified %d-wise independence "
            "at degree %d in dimension %d" % (cfg.num_forms, cfg.s,
                                              cfg.degree, cfg.b)
        )
    # interpolation: at most degree+1 points are never degree-dependent, so
    # no s-subset is dependent when s <= degree + 1 (every z_condition row
    # is then empty)
    by_theorem = cfg.s <= cfg.degree + 1
    ext_order = spec.order**PROBE_EXTENSION
    probe_ext = (ext_order <= DEFAULT_ORDER_CAP
                 and projective_count(ext_order, cfg.b) <= cfg.point_cap)

    tally = {"count": 0, "swise": 0, "probe": 0}
    last = None
    for attempt in range(MAX_ATTEMPTS):
        sub = rng.derive(attempt)
        forms = tuple(
            random_hom(spec, cfg.b, cfg.degree, sub) for _ in range(cfg.num_forms)
        )
        var = VarietySpec(spec, cfg.b, forms)
        masks = zero_masks(var, cap=cfg.point_cap)
        n = sum(int(np.count_nonzero(m)) for m in masks.values())
        failed, sw, probe = _check_draw(var, masks, n, cfg, target_dim,
                                        by_theorem, probe_ext)
        if failed:
            tally[failed] += 1
        last = BuildResult(failed is None, attempt + 1, var, masks, n,
                           target_dim, sw, probe, dict(tally))
        if failed is None or not forms:
            return last
    assert last is not None
    return last

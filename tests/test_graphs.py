import itertools
import json
import re
from dataclasses import replace
from fractions import Fraction
from math import comb, factorial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kstfree.graphs
import kstfree.variety
from kstfree.acceptance import joint_uniformity_test
from kstfree.gf import make_field
from kstfree.independence import hilbert_rank
from kstfree.jsonio import dump_doc
from kstfree.graphs import (
    STREAM_LEFT_CUT,
    STREAM_RIGHT_CUT,
    STREAM_VARIETY,
    CertificationError,
    ConstructionPlan,
    SidedGraph,
    construct_turan,
    construct_zar,
    density_report,
    kst_verdict,
    max_common_neighborhood,
    plan_construction,
    trial_report,
)
from kstfree.polyrand import SeededRng, evaluate, random_hom
from kstfree.projgeom import ProjPoint, projective_array
from kstfree.util import BudgetExceeded, floor_scaled_power
from kstfree.variety import BuildConfig, build_independent_variety
from references import (enumerate_projective, point_from_str, point_to_str,
                        verify_witness)


def fano_graph():
    # incidence of the 7 points and 7 lines of the plane over F_2
    spec = make_field(2, 1)
    pts = enumerate_projective(spec, 2)
    adj = np.array([[sum(a * b for a, b in zip(p.coords, l.coords)) % 2 == 0
                     for l in pts] for p in pts])
    left = ["p%d" % i for i in range(7)]
    right = ["l%d" % i for i in range(7)]
    return SidedGraph(spec, left, right, adj)


def complete_bipartite(nl, nr):
    spec = make_field(2, 1)
    return SidedGraph(spec, ["u%d" % i for i in range(nl)],
                      ["v%d" % j for j in range(nr)],
                      np.ones((nl, nr), dtype=bool))


# --- container --------------------------------------------------------------


def test_graph_validation():
    spec = make_field(2, 1)
    with pytest.raises(ValueError):
        SidedGraph(spec, ["a", "a"], ["b"], np.zeros((2, 1), dtype=bool))
    with pytest.raises(ValueError):  # one row too many
        SidedGraph(spec, ["a"], ["b"], np.zeros((2, 1), dtype=bool))
    with pytest.raises(ValueError):  # a column for a missing right vertex
        SidedGraph(spec, ["a"], ["b"], np.zeros((1, 2), dtype=bool))
    with pytest.raises(ValueError):  # 0/1 integers are not a bool matrix
        SidedGraph(spec, ["a"], ["b"], np.ones((1, 1), dtype=np.int64))
    with pytest.raises(ValueError):
        SidedGraph(spec, ["a"], ["b"], np.ones(1, dtype=bool))


def test_graph_json_roundtrip():
    g = fano_graph()
    doc = g.to_json()
    back = SidedGraph.from_json(doc)
    assert back.left == g.left and back.right == g.right
    assert np.array_equal(back.adj, g.adj)
    assert back.to_json() == doc
    assert doc["edges"] == sorted(doc["edges"])


def test_graph_edges_and_columns():
    g = complete_bipartite(2, 3)
    assert g.num_edges == 6
    assert g.to_json()["edges"] == [[0, 0], [0, 1], [0, 2],
                                    [1, 0], [1, 1], [1, 2]]


F2 = make_field(2, 1)
TURAN_F2 = plan_construction("turan", 2, m=3, r=1, Z=1, q=2)  # on P^4(F_2)
P4_IDS = [point_to_str(pt) for pt in enumerate_projective(F2, 4)]


@st.composite
def sided_docs(draw):
    """Well-formed graph documents, with or without a plan, edges unsorted."""
    planned = draw(st.booleans())
    ids = st.sampled_from(P4_IDS) if planned else st.text(max_size=3)
    left = draw(st.lists(ids, unique=True, max_size=5))
    right = draw(st.lists(ids, unique=True, max_size=5))
    edges = []
    if left and right:
        pairs = st.tuples(st.integers(0, len(left) - 1),
                          st.integers(0, len(right) - 1))
        edges = [list(e) for e in draw(st.lists(pairs, unique=True))]
    return {"kind": "sided", "field": {"p": 2, "k": 1},
            "plan": TURAN_F2.to_json() if planned else None,
            "seed": draw(st.none() | st.integers()),
            "left": left, "right": right, "edges": edges}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


def bad_edges(doc):
    n_left, n_right = len(doc["left"]), len(doc["right"])
    out_of_range = st.one_of(
        st.tuples(st.integers(max_value=-1), st.integers()),
        st.tuples(st.integers(min_value=n_left), st.integers()),
        st.tuples(st.integers(), st.integers(max_value=-1)),
        st.tuples(st.integers(), st.integers(min_value=n_right))).map(list)
    edge = st.one_of(
        st.lists(st.booleans(), min_size=2, max_size=2),
        st.tuples(st.floats(), st.integers()).map(list),
        st.tuples(st.integers(), st.floats()).map(list),
        out_of_range,
        st.lists(st.integers(), max_size=4).filter(lambda e: len(e) != 2),
        st.tuples(st.integers(), st.integers()),  # a tuple is no JSON list
        JSON_VALUES.filter(lambda e: not isinstance(e, list)))
    if doc["edges"]:
        edge = edge | st.sampled_from(doc["edges"])  # a duplicate
    return edge


@st.composite
def malformed_docs(draw):
    doc = draw(sided_docs())
    where = draw(st.sampled_from(("edge", "edges", "field", "top", "plan",
                                  "ids")))
    if where == "edge":
        edges = list(doc["edges"])
        edges.insert(draw(st.integers(0, len(edges))), draw(bad_edges(doc)))
        doc["edges"] = edges
    elif where == "edges":
        doc["edges"] = draw(JSON_VALUES.filter(lambda v: not isinstance(v, list)))
    elif where == "field":
        field = dict(doc["field"])
        key = draw(st.sampled_from(("p", "k")))
        if draw(st.booleans()):
            del field[key]
        else:
            field[key] = draw(JSON_VALUES)
        doc["field"] = draw(st.just(field) | JSON_VALUES)
    elif where == "top":
        key = draw(st.sampled_from(sorted(doc)) | st.text(max_size=3))
        if key in doc and draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(JSON_VALUES)
    elif where == "plan":
        plan = TURAN_F2.to_json()
        key = draw(st.sampled_from(sorted(plan)) | st.text(max_size=3))
        if key in plan and draw(st.booleans()):
            del plan[key]
        else:
            # c = 1/4 also as a bool, unreduced, or a decimal
            plan[key] = draw(JSON_VALUES | st.sampled_from(
                [True, "2/8", "0.25", " 1/4", 0]))
        doc["plan"] = plan
    else:
        side = draw(st.sampled_from(("left", "right")))
        ids = list(doc[side])
        bad = JSON_VALUES if doc["plan"] is None else JSON_VALUES | st.text()
        ids.insert(draw(st.integers(0, len(ids))), draw(bad))
        doc[side] = ids
    return doc


@pytest.mark.parametrize("key, value", [
    ("field", {"p": (1 << 61) - 1, "k": 1}),  # is_prime divides up to sqrt(p)
    ("field", {"p": 2, "k": 10**8}),          # p^k grows with k
    ("field", {"p": 4, "k": 1}),
    ("plan", dict(TURAN_F2.to_json(), c="1/0")),
    ("plan", dict(TURAN_F2.to_json(), c="1e100000000")),
    # plans and fields that would not be written back as they were read
    ("plan", dict(TURAN_F2.to_json(), c="2/8")),
    ("plan", dict(TURAN_F2.to_json(), c="0.25")),
    ("plan", dict(TURAN_F2.to_json(), c=True)),
    ("plan", dict(TURAN_F2.to_json(), extra=1)),
    ("plan", dict(TURAN_F2.to_json(), headline_log10=1.5)),
    ("field", {"p": 2, "k": 1, "extra": 1}),
    ("extra", 1),
])
def test_graph_loader_refuses_unbuildable_fields_and_plans(key, value):
    doc = {"kind": "sided", "field": {"p": 2, "k": 1}, "plan": None,
           "seed": None, "left": [], "right": [], "edges": []}
    doc[key] = value
    with pytest.raises(ValueError):
        SidedGraph.from_json(doc)
    if key == "plan":
        with pytest.raises(ValueError):
            ConstructionPlan.from_json(value)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sided_docs())
def test_graph_loader_round_trips_what_it_accepts(doc):
    out = SidedGraph.from_json(doc).to_json()
    assert out == dict(doc, edges=sorted(doc["edges"]))
    assert json.loads(json.dumps(out)) == out


@settings(max_examples=600, deadline=None, derandomize=True)
@given(malformed_docs())
def test_graph_loader_refuses_with_value_or_key_errors(doc):
    # cli.main maps exactly these two to exit code 1
    try:
        g = SidedGraph.from_json(doc)
    except (ValueError, KeyError):
        return
    # what is accepted is written back byte for byte, up to edge order
    assert (dump_doc(g.to_json())
            == dump_doc(dict(doc, edges=sorted(doc["edges"]))))


F11 = make_field(11, 1)
TURAN_F11 = plan_construction("turan", 2, m=3, r=1, Z=1, q=11)
P4_F11_IDS = [point_to_str(pt) for pt in enumerate_projective(F11, 4)][:2000]


def f11_doc(edges=(), left=P4_F11_IDS[:6], right=P4_F11_IDS[:6]):
    return {"kind": "sided", "field": {"p": 11, "k": 1},
            "plan": TURAN_F11.to_json(), "seed": 1, "left": list(left),
            "right": list(right), "edges": [list(e) for e in edges]}


GOOD_EDGES = [(i, j) for i in range(6) for j in range(6) if (i + j) % 3]


@pytest.mark.parametrize("bad, message", [
    ([2 ** 70, 0], "edge [1180591620717411303424, 0] names a missing vertex"),
    ([0, -(2 ** 64)], "edge [0, -18446744073709551616] names a missing "
                      "vertex"),
    ([True, 0], "edge [True, 0] is not a pair of integers"),
    ([0, 1.0], "edge [0, 1.0] is not a pair of integers"),
    ([0, 1], "duplicate edge in document"),
    ([6, 0], "edge [6, 0] names a missing vertex"),
])
def test_graph_loader_names_a_bad_edge(bad, message):
    doc = f11_doc(GOOD_EDGES + [bad])
    with pytest.raises(ValueError) as err:
        SidedGraph.from_json(doc)
    assert str(err.value) == message


def test_graph_loader_names_the_first_of_two_bad_edges():
    # an out-of-range edge before a mistyped one, and the reverse
    for edges, first in (([[0, 9], [0, True]], "[0, 9]"),
                         ([[0, True], [0, 9]], "[0, True]")):
        with pytest.raises(ValueError) as err:
            SidedGraph.from_json(f11_doc(GOOD_EDGES + edges))
        assert str(err.value).startswith("edge %s " % first)


@pytest.mark.parametrize("bad", [
    "2:0:0:0:0",      # not scaled to a leading 1
    "0:0:0:0:0",      # the zero vector
    "1:0:0:0",        # a point of P^3
    "1:0:0:0:0:0",    # a point of P^5
    "1:01:0:0:0",     # a leading zero
    "1:+1:0:0:0",     # a sign
    "1: 1:0:0:0",     # padding
    "1:11:0:0:0",     # out of the field
    "1:0:0:0:x",
    "",
    # text int() reads but that is not written so
    " 1:0:0:0:0",
    "+1:0:0:0:0",
    "1:1_0:0:0:0",
    "1:\u0663:0:0:0",  # ARABIC-INDIC DIGIT THREE
    "1:0,0:0:0:0",    # digits of an extension-field coordinate
])
def test_graph_loader_names_a_bad_id_at_the_end(bad):
    ids = P4_F11_IDS[:-1] + [bad]
    for side in ("left", "right"):
        doc = dict(f11_doc(), **{side: ids})
        with pytest.raises(ValueError) as err:
            SidedGraph.from_json(doc)
        assert str(err.value) == ("%s vertex id %r is not a canonical point "
                                  "of P^4(F_11)" % (side, bad))
    # a second bad id further on does not hide the first
    doc = f11_doc(left=P4_F11_IDS[:1000] + [bad] + P4_F11_IDS[1000:]
                  + ["3:0:0:0:0"])
    with pytest.raises(ValueError) as err:
        SidedGraph.from_json(doc)
    assert str(err.value).startswith("left vertex id %r " % bad)


F4 = make_field(2, 2)
P4_F4_IDS = [point_to_str(pt) for pt in enumerate_projective(F4, 4)]


@pytest.mark.parametrize("bad", [
    "1,0:0,0:0,0:0,0:1",        # a coordinate short of a digit
    "1,0:0,0:0,0:0,0:1,0,0",    # a coordinate with a digit too many
    "1,0:0,0:0,0:0,0:1,0:0,0",  # a point of P^5
    "1:0,0:0,0:0,0:1,0,0",      # digits that add up but sit wrong
    "1,0:0,0:0,0:0,0:2,0",      # a digit out of GF(2)
    "0,1:0,0:0,0:0,0:0,0",      # not scaled to a leading 1
    "1,0:0,0:0,0:0,0:0, 1",     # padding
])
def test_graph_loader_names_a_bad_extension_field_id(bad):
    plan = plan_construction("turan", 2, m=3, r=1, Z=1, q=4)
    doc = {"kind": "sided", "field": {"p": 2, "k": 2}, "plan": plan.to_json(),
           "seed": 1, "left": P4_F4_IDS, "right": P4_F4_IDS[:3], "edges": []}
    assert SidedGraph.from_json(doc).to_json() == doc
    for i in (0, 100, len(P4_F4_IDS) - 1):
        ids = P4_F4_IDS[:i] + [bad] + P4_F4_IDS[i + 1:] + ["junk"]
        with pytest.raises(ValueError) as err:
            SidedGraph.from_json(dict(doc, left=ids))
        assert str(err.value) == ("left vertex id %r is not a canonical point "
                                  "of P^4(F_4)" % bad)


def test_graph_loader_takes_a_long_planned_document():
    doc = f11_doc(GOOD_EDGES, left=P4_F11_IDS, right=P4_F11_IDS[:50])
    g = SidedGraph.from_json(doc)
    assert g.num_edges == len(GOOD_EDGES)
    assert g.to_json() == doc


# --- neighborhoods and verdicts ----------------------------------------------


def test_max_common_complete_bipartite():
    g = complete_bipartite(2, 3)
    res = max_common_neighborhood(g, 2, "left")
    assert res.size == 3 and res.certified
    assert res.subset == (0, 1)


def test_max_common_empty_graph():
    spec = make_field(2, 1)
    g = SidedGraph(spec, ["a", "b"], ["c", "d"], np.zeros((2, 2), dtype=bool))
    res = max_common_neighborhood(g, 2, "left")
    assert res.size == 0


def test_max_common_fano():
    g = fano_graph()
    left = max_common_neighborhood(g, 2, "left")
    right = max_common_neighborhood(g, 2, "right")
    assert left.size == 1 and right.size == 1
    single = max_common_neighborhood(g, 1, "left")
    assert single.size == 3  # every point lies on three lines


def test_max_common_degree_upper_bound():
    g = complete_bipartite(6, 4)
    res = max_common_neighborhood(g, 2, "left", budget=3)
    assert (res.size, res.subset, res.mode) == (4, None, "degree")
    assert res.certified and (res.checked, res.total) == (0, comb(6, 2))


def brute_max_common(adj, s, side):
    """(size, subset) by Python set intersection over every s-subset."""
    rows = (adj if side == "left" else adj.T).tolist()
    sets = [{j for j, x in enumerate(row) if x} for row in rows]
    best, best_sub = -1, None
    for combo in itertools.combinations(range(len(sets)), s):
        size = len(set.intersection(*(sets[i] for i in combo)))
        if size > best:
            best, best_sub = size, combo
    return best, best_sub


def oracle_graphs():
    gen = np.random.default_rng(2107)
    for _ in range(60):
        nl, nr = gen.integers(0, 9, size=2)
        adj = gen.random((nl, nr)) < gen.choice([0.0, 0.3, 0.6, 1.0])
        if nl and gen.random() < 0.5:
            adj[gen.integers(nl)] = False          # an all-zero row
        if nl > 1 and gen.random() < 0.5:
            adj[-1] = adj[0]                       # a forced tie
        if nr > 1 and gen.random() < 0.5:
            adj[:, -1] = adj[:, 0]                 # a tie on the right
        yield SidedGraph(F2, ["u%d" % i for i in range(nl)],
                         ["v%d" % j for j in range(nr)], adj)


def test_max_common_matches_set_oracle():
    seen = set()
    for g in oracle_graphs():
        for s in (1, 2, 3):
            for side in ("left", "right"):
                res = max_common_neighborhood(g, s, side)
                n = g.adj.shape[0 if side == "left" else 1]
                if n < s:
                    assert (res.size, res.subset, res.mode) == (0, None, "empty")
                    assert res.checked == res.total == 0
                    seen.add("empty")
                    continue
                assert (res.size, res.subset) == brute_max_common(g.adj, s, side)
                assert res.mode == "exhaustive" and res.certified
                assert res.checked == res.total == comb(n, s)
                seen.add(s)
    assert seen == {1, 2, 3, "empty"}


def test_gram_float32_agrees_with_float64():
    # random 0/1 rows with repeated rows and columns, so pairs tie
    gen = np.random.default_rng(5)
    for n, width in ((6, 40), (12, 7), (30, 240), (5, 1)):
        for density in (0.2, 0.5, 0.9):
            rows = gen.random((n, width)) < density
            rows[-1] = rows[0]
            rows[:, -1] = rows[:, 0]
            for s in (2, 3):
                got = kstfree.graphs._exhaustive_max(rows, s)
                with mock.patch.object(kstfree.graphs, "_gram_dtype",
                                       return_value=np.float64):
                    assert kstfree.graphs._exhaustive_max(rows, s) == got
                assert got == brute_max_common(rows, s, "left")


def test_gram_dtype_holds_the_row_length_exactly():
    assert kstfree.graphs._gram_dtype(1 << 24) is np.float32
    assert kstfree.graphs._gram_dtype((1 << 24) + 1) is np.float64
    # float32 stops holding every integer just past 2^24
    assert np.float32(1 << 24) + np.float32(1) == np.float32(1 << 24)


def test_max_common_degree_bound_matches_set_oracle():
    strict = set()
    for g in oracle_graphs():
        for s, side in ((2, "left"), (3, "right")):
            n = g.adj.shape[0 if side == "left" else 1]
            if n < s or comb(n, s) <= 4:
                continue
            res = max_common_neighborhood(g, s, side, budget=4)
            rows = (g.adj if side == "left" else g.adj.T).tolist()
            degrees = sorted((sum(row) for row in rows), reverse=True)
            exact, _ = brute_max_common(g.adj, s, side)
            assert res.size == degrees[s - 1] >= exact
            assert (res.subset, res.mode, res.certified) == (None, "degree",
                                                             True)
            assert (res.checked, res.total) == (0, comb(n, s))
            strict.add(res.size > exact)
    assert strict == {True, False}


def searches(g, s, **kw):
    return {side: max_common_neighborhood(g, s, side, **kw)
            for side in ("left", "right")}


def test_kst_k22_found():
    g = complete_bipartite(2, 2)
    v = kst_verdict(g, 2, 2, searches(g, 2), "both")
    assert v.free is False and v.certified
    assert v.witness is not None
    assert verify_witness(g, v)


def test_kst_fano_free():
    g = fano_graph()
    v = kst_verdict(g, 2, 2, searches(g, 2), "both")
    assert v.free is True and v.certified
    assert v.witness is None


def test_kst_pigeonhole():
    g = complete_bipartite(8, 3)
    # over budget on the left, and t exceeds the right side: the degree
    # bound, at most the opposite side, settles it
    found = searches(g, 2, budget=5)
    assert (found["left"].mode, found["left"].size) == ("degree", 3)
    v = kst_verdict(g, 2, 4, found, "left_only")
    assert v.free is True and v.certified
    assert v.sides == {"left": found["left"]}
    # an exhaustive search is read as it is, even when t exceeds the side
    found = searches(g, 2)
    v = kst_verdict(g, 2, 4, found, "left_only")
    assert v.sides["left"] is found["left"] and v.free is True


def test_kst_degree_bound_at_t_is_undetermined():
    g = fano_graph()
    found = searches(g, 2, budget=5)
    assert [found[side].size for side in ("left", "right")] == [3, 3]
    v = kst_verdict(g, 2, 2, found, "both")
    assert v.free is None and not v.certified and v.witness is None
    # the same bound certifies every t above it
    v = kst_verdict(g, 2, 4, found, "both")
    assert v.free is True and v.certified


def test_verdict_depends_on_the_adjacency_alone():
    adj = np.random.default_rng(11).random((9, 4)) < 0.5
    docs = []
    for seed in (1, 2):
        g = SidedGraph(F2, ["u%d" % i for i in range(9)],
                       ["v%d" % j for j in range(4)], adj, seed=seed)
        found = searches(g, 2, budget=10)
        assert [found[side].mode
                for side in ("left", "right")] == ["degree", "exhaustive"]
        docs.append(kst_verdict(g, 2, 3, found, "both").to_json())
    assert docs[0] == docs[1]
    # a left_only verdict reads only the side it anchors
    assert list(kst_verdict(g, 2, 3, found, "left_only").sides) == ["left"]


def test_trial_report_copies_the_seed_and_reads_only_the_plan():
    plan = plan_construction("zarankiewicz", 2, T=3, r=1, m=2, q=8,
                             c=Fraction(1, 4))
    graph, report = construct_zar(plan, 4, subset_budget=5)
    assert report.builder is None and report.seed == 4
    # left_only: the report searches the left side alone
    assert list(report.kst.sides) == ["left"]
    unseeded = SidedGraph(graph.spec, graph.left, graph.right, graph.adj,
                          plan=plan)
    assert trial_report(unseeded, 5).to_json() == dict(report.to_json(),
                                                       seed=None)


def test_kst_monotone_in_t():
    rng = SeededRng(77)
    spec = make_field(2, 1)
    for _ in range(20):
        nl, nr = 3 + rng.randbelow(4), 3 + rng.randbelow(4)
        rows = [rng.randbelow(1 << nr) for _ in range(nl)]
        adj = np.array([[row >> j & 1 == 1 for j in range(nr)]
                        for row in rows], dtype=bool)
        g = SidedGraph(spec, ["u%d" % i for i in range(nl)],
                       ["v%d" % j for j in range(nr)], adj)
        found = searches(g, 2)
        prev = None
        for t in range(1, nr + 2):
            v = kst_verdict(g, 2, t, found, "both")
            assert v.free in (True, False)
            if prev is True:
                assert v.free is True
            prev = v.free


def norm_graph(p, s):
    """The bipartite projective norm graph over F_p with parameter s.

    A vertex is (X, x) with X in F_{p^(s-1)} and x in F_p^*; (X, x) and
    (Y, y) are adjacent iff N(X+Y) = xy, N the norm down to F_p.  It is
    K_{s,(s-1)!+1}-free (Kollar-Ronyai-Szabo 1996, Alon-Ronyai-Szabo
    1999), and each vertex has p^(s-1) - 1 neighbours.
    """
    spec = make_field(p, s - 1)
    q = spec.order
    norm = np.array([spec.pow(z, (q - 1) // (p - 1)) for z in range(q)])
    assert (norm < p).all()  # F_p is encoded as the constants 0..p-1
    plus = np.array([[spec.add(u, w) for w in range(q)] for u in range(q)])
    big, small = np.divmod(np.arange(q * (p - 1)), p - 1)
    small = small + 1
    adj = norm[plus[np.ix_(big, big)]] == np.outer(small, small) % p
    ids = ["%d:%d" % v for v in zip(big, small)]
    return SidedGraph(spec, ids, ids, adj)


@pytest.mark.parametrize("p,s", [(7, 2), (11, 2), (3, 3), (5, 3), (2, 4),
                                 (3, 4)])
def test_norm_graphs_never_exceed_the_known_bound(p, s):
    g = norm_graph(p, s)
    n = len(g.left)
    assert (np.count_nonzero(g.adj, axis=1) == p ** (s - 1) - 1).all()
    bound = factorial(s - 1)
    found = searches(g, s, budget=comb(n, s))
    for mc in found.values():
        assert mc.mode == "exhaustive" and 1 <= mc.size <= bound
    v = kst_verdict(g, s, bound + 1, found, "both")
    assert v.free is True and v.certified
    # the size found is attained, by a witness of its own
    size = found["left"].size
    v = kst_verdict(g, s, size, found, "both")
    assert v.free is False and verify_witness(g, v)


# --- density -----------------------------------------------------------------


def test_density_empty_graph():
    spec = make_field(2, 1)
    g = SidedGraph(spec, ["a"], ["b"], np.zeros((1, 1), dtype=bool))
    rep = density_report(g, None)
    assert rep.edges == 0
    assert rep.kst_ratio == 0.0


def test_density_complete_bipartite_kst_ratio():
    g = complete_bipartite(4, 9)
    rep = density_report(g, None)
    assert abs(rep.kst_ratio - 3.0) < 1e-12  # |R|^(1/2)


# --- plans -------------------------------------------------------------------


def test_plan_turan_desk_frozen():
    plan = plan_construction("turan", 2, m=3, r=1, Z=1, q=7)
    assert plan.b == 4
    assert plan.delta == (3,)
    assert plan.t_threshold == 82
    assert plan.c == Fraction(1, 4)
    assert plan.mode == "desk"


def test_plan_zar_desk_frozen():
    plan = plan_construction("zarankiewicz", 2, T=3, r=1, m=2, q=8)
    assert plan.b == 3
    assert plan.delta == (2,)
    assert plan.t_threshold == 9
    assert plan.a == 5
    plan11 = plan_construction("zarankiewicz", 2, T=3, r=1, m=2, q=11)
    assert plan11.a == 9


def test_plan_theorem_turan():
    plan = plan_construction("turan", 100, mode="theorem")
    assert (plan.m, plan.r, plan.Z) == (3, 39, 142)
    assert plan.b == 100 + 39 + 142
    assert len(plan.delta) == 39
    assert plan.headline_log10 is not None
    plan200 = plan_construction("turan", 200, mode="theorem")
    assert (plan200.r, plan200.Z) == (62, 265)


def test_plan_theorem_zar():
    plan = plan_construction("zarankiewicz", 2, mode="theorem")
    assert plan.r == 3 and plan.m == 3
    assert plan.T == 35
    assert plan.b == 5


def test_plan_validation_errors():
    with pytest.raises(ValueError, match="C\\(m\\+1\\+r, m\\)"):
        plan_construction("turan", 4, m=1, r=1, Z=1)
    with pytest.raises(ValueError, match="T <= C"):
        plan_construction("zarankiewicz", 2, T=7, r=1, m=2)
    with pytest.raises(ValueError, match="Z >"):
        plan_construction("turan", 5, m=3, r=3, Z=4)
    with pytest.raises(ValueError, match="no theorem certifies 4-wise "
                                         "independence at degree 2 over F_3"):
        plan_construction("turan", 4, m=2, r=4, Z=0, q=3)
    # the same plan without a field order, or over F_2, is accepted
    assert plan_construction("turan", 4, m=2, r=4, Z=0).q is None
    assert plan_construction("turan", 4, m=2, r=4, Z=0, q=2).b == 8
    with pytest.raises(ValueError):
        plan_construction("turan", 2)  # desk needs m, r, Z
    with pytest.raises(ValueError):
        plan_construction("nope", 2, mode="theorem")
    with pytest.raises(ValueError):
        plan_construction("turan", 1, mode="theorem")


def test_plan_refuses_a_zero_truncation_target():
    # floor(c * 7^2) is 0 below c = 1/49, whatever the seed
    for c in (0, Fraction(1, 50)):
        with pytest.raises(ValueError, match="truncation target"):
            plan_construction("turan", 2, m=3, r=1, Z=1, q=7, c=c)
    assert plan_construction("turan", 2, m=3, r=1, Z=1, q=7,
                             c=Fraction(1, 49)).c == Fraction(1, 49)
    # without a field order there is no target yet
    assert plan_construction("turan", 2, m=3, r=1, Z=1, c=0).q is None


def test_plan_refuses_a_space_past_int64_grid_indices():
    # 3^39 < 2^63 < 3^40: q^b is computed only near the boundary, and
    # 8^b is refused from q's bit length alone, however large b is
    def zar(s, q):
        return plan_construction("zarankiewicz", s, T=6, r=2, m=2, q=q, c=2)

    assert zar(37, 3).b == 39
    assert plan_construction("turan", 2, m=3, r=1, Z=36, q=3).b == 39
    for plan in (lambda: zar(38, 3),
                 lambda: plan_construction("turan", 2, m=3, r=1, Z=37, q=3),
                 lambda: plan_construction("zarankiewicz", 6_400_000, T=1,
                                           r=0, m=1, q=8, c=Fraction(5, 4))):
        with pytest.raises(ValueError, match="at least 2\\^63"):
            plan()
    # without a field order nothing is walked yet
    assert plan_construction("turan", 2, m=3, r=1, Z=37).b == 40


def test_plan_json_roundtrip():
    for plan in (plan_construction("turan", 2, m=3, r=1, Z=1, q=7),
                 plan_construction("zarankiewicz", 2, T=3, r=1, m=2, q=8)):
        doc = plan.to_json()
        assert json.loads(json.dumps(doc)) == doc
        back = ConstructionPlan.from_json(doc)
        assert back == plan
    # a graph is built from a desk plan, so a theorem plan is not loaded
    theorem = plan_construction("turan", 10, mode="theorem").to_json()
    with pytest.raises(ValueError, match="plan.mode = 'theorem' is not"):
        ConstructionPlan.from_json(theorem)


ZAR_F8 = plan_construction("zarankiewicz", 2, T=3, r=1, m=2, q=8)


@pytest.mark.parametrize("plan, change, named", [
    (TURAN_F11, {"b": 5}, "plan.b = 5 is not 4"),
    (TURAN_F11, {"delta": [99]}, "plan.delta = [99] is not [3]"),
    (TURAN_F11, {"t_threshold": 83}, "plan.t_threshold = 83 is not 82"),
    (TURAN_F11, {"a": 1}, "plan.a = 1 is not None"),
    (TURAN_F11, {"headline_log10": "9"}, "plan.headline_log10 = '9' is not"),
    (TURAN_F11, {"mode": "theorem"}, "plan.mode = 'theorem' is not 'desk'"),
    (ZAR_F8, {"a": 6}, "plan.a = 6 is not 5"),
    (ZAR_F8, {"b": 4}, "plan.b = 4 is not 3"),
    (ZAR_F8, {"t_threshold": 10}, "plan.t_threshold = 10 is not 9"),
    # refused before deriving: a delta that is not r long, a threshold
    # shorter than m^(s+Z), a width shorter than c * q^(T/s)
    (TURAN_F11, {"delta": [3, 3]}, "plan.delta has 2 entries, not r = 1"),
    (TURAN_F11, {"t_threshold": 3, "delta": [99]},
     "plan.t_threshold has 2 bits, fewer than the 3"),
    (TURAN_F11, {"Z": 10**9}, "fewer than the 1000000002 that m^"),
    (ZAR_F8, {"T": 10**9}, "plan.a = 5 is too short"),
])
def test_plan_loader_refuses_a_derived_field_that_differs(plan, change,
                                                          named):
    doc = dict(plan.to_json(), **change)
    with pytest.raises(ValueError, match=re.escape(named)):
        ConstructionPlan.from_json(doc)


# --- pipelines ---------------------------------------------------------------


def test_construct_turan_q7():
    plan = plan_construction("turan", 2, m=3, r=1, Z=1, q=7)
    graph, report = construct_turan(plan, 2024)
    assert len(graph.left) <= 12 and len(graph.right) <= 12
    assert graph.adj.shape == (len(graph.left), len(graph.right))
    assert report.kind == "turan"
    assert report.t_threshold == 82
    assert report.kst.orientation == "both"
    # t = 82 exceeds both sides, so freeness is certain
    assert report.kst.free is True and report.kst.certified
    assert verify_witness(graph, report.kst)
    assert report.builder is not None
    assert report.builder["attempts"] >= 1


@pytest.mark.parametrize("q", [7, 9])
def test_turan_sides_are_slices_of_the_variety(q):
    # each side: the points of W where its cutting forms vanish, evaluated
    # one point at a time, in canonical order, cut to the plan's n_target
    plan = plan_construction("turan", 2, m=3, r=1, Z=1, q=q)
    seed = 1
    graph, _ = construct_turan(plan, seed)
    spec = graph.spec
    base = SeededRng(seed)
    cfg = BuildConfig(b=plan.b, num_forms=plan.Z, degree=plan.m, s=plan.s)
    built = build_independent_variety(spec, cfg, base.derive(STREAM_VARIETY))
    w = [ProjPoint(spec, tuple(int(c) for c in row)) for row in built.points]
    n_target = floor_scaled_power(plan.c, plan.q, plan.s, 1)
    for stream, side in ((STREAM_LEFT_CUT, graph.left),
                         (STREAM_RIGHT_CUT, graph.right)):
        rng = base.derive(stream)
        hs = [random_hom(spec, plan.b, d, rng) for d in plan.delta]
        kept = [point_to_str(pt) for pt in w
                if all(evaluate(h, pt) == 0 for h in hs)]
        assert list(side) == kept[:n_target]


@pytest.mark.parametrize("q, seed", [(7, 1), (11, 2)])
def test_construct_turan_walks_p_b_once_per_builder_attempt(q, seed):
    # the builder walks P^b for W's chart masks once per attempt; both
    # sides are cut from those masks, so neither side walks P^b again
    plan = plan_construction("turan", 2, m=3, r=1, Z=1, q=q)
    real = kstfree.variety.zero_masks
    calls = []

    def spy(var, *args, **kwargs):
        calls.append(len(var.forms))
        return real(var, *args, **kwargs)

    with mock.patch.object(kstfree.variety, "zero_masks", spy):
        _, report = construct_turan(plan, seed)
    assert calls == [plan.Z] * report.builder["attempts"]


@pytest.mark.parametrize("q, seed", [(7, 1), (11, 2), (23, 1)])
def test_construct_turan_builds_rows_only_for_its_vertices(q, seed):
    plan = plan_construction("turan", 2, m=3, r=1, Z=1, q=q)
    real = kstfree.variety.chart_rows
    rows = []

    def spy(q, b, lead, idx):
        rows.append(len(idx))
        return real(q, b, lead, idx)

    with mock.patch.object(kstfree.variety, "chart_rows", spy):
        graph, report = construct_turan(plan, seed)
    assert sum(rows) == len(graph.left) + len(graph.right)
    assert report.builder["n_points"] > 2 * sum(rows)


def test_build_result_points_are_the_varietys_rows_built_once():
    spec = make_field(11, 1)
    res = build_independent_variety(spec, BuildConfig(b=3, num_forms=1,
                                                      degree=3, s=3),
                                    SeededRng(4))
    real = kstfree.variety.chart_rows
    with mock.patch.object(kstfree.variety, "chart_rows",
                           side_effect=real) as spy:
        pts = res.points
        assert spy.call_count == len(res.masks)
        assert res.points is pts and spy.call_count == len(res.masks)
    want = kstfree.variety.fq_point_array(res.variety)
    assert pts.shape == want.shape == (res.n_points, 4)
    assert (pts == want).all()


def test_construct_turan_deterministic():
    plan = plan_construction("turan", 2, m=3, r=1, Z=1, q=7)
    g1, r1 = construct_turan(plan, 99)
    g2, r2 = construct_turan(plan, 99)
    assert g1.to_json() == g2.to_json()
    assert r1.to_json() == r2.to_json()
    g3, _ = construct_turan(plan, 100)
    assert g3.to_json() != g1.to_json()


def test_construct_turan_density_sweep():
    plan = plan_construction("turan", 2, m=3, r=1, Z=1, q=7)
    hits = 0
    for seed in range(8):
        try:
            _, report = construct_turan(plan, seed)
        except CertificationError:
            continue
        if report.density.turan_ok and report.kst.free:
            hits += 1
    assert hits >= 1


def test_construct_turan_zero_c():
    # refused before W is drawn: nothing is built for an empty target.
    # plan_construction refuses such a plan, so this one is edited in.
    plan = replace(plan_construction("turan", 2, m=3, r=1, Z=1, q=7),
                   c=Fraction(0))
    with mock.patch.object(kstfree.graphs, "build_independent_variety",
                           side_effect=AssertionError("W was built")):
        with pytest.raises(CertificationError, match="target is zero"):
            construct_turan(plan, 1)


def test_oversized_forms_are_refused_before_any_draw():
    # the degree-48 cutting form has C(57, 9) coefficients, and the
    # zarankiewicz adjacency form C(40265, 3) * C(8, 3) (a = 40,262, b = 5)
    turan = plan_construction("turan", 7, m=6, r=2, Z=0, q=2)
    zar = plan_construction("zarankiewicz", 2, T=10, r=3, m=3, q=11)
    desk = plan_construction("turan", 2, m=3, r=1, Z=1, q=7)
    with mock.patch.object(kstfree.graphs, "build_independent_variety",
                           side_effect=AssertionError("W was built")), \
            mock.patch.object(kstfree.graphs, "random_hom",
                              side_effect=AssertionError("a form was drawn")):
        with pytest.raises(BudgetExceeded, match="the degree-48 cutting form "
                           "holds %d coefficients" % comb(57, 9)):
            construct_turan(turan, 1)
        with pytest.raises(BudgetExceeded, match="the adjacency form holds "
                           "%d coefficients" % (comb(40265, 3) * comb(8, 3))):
            construct_zar(zar, 1)
        # the desk plan's adjacency form, C(7, 3)^2 = 1,225 coefficients,
        # is the largest it draws
        with pytest.raises(BudgetExceeded, match="adjacency form holds 1225 "
                           "coefficients, over the point budget 1224"):
            construct_turan(desk, 1, point_cap=1224)


def test_construct_turan_rejects_wrong_plan():
    plan = plan_construction("zarankiewicz", 2, T=3, r=1, m=2, q=8)
    with pytest.raises(ValueError):
        construct_turan(plan, 1)
    theorem = plan_construction("turan", 2, mode="theorem")
    with pytest.raises(ValueError):
        construct_turan(theorem, 1)


def test_construct_zar_q8():
    plan = plan_construction("zarankiewicz", 2, T=3, r=1, m=2, q=8)
    graph, report = construct_zar(plan, 11)
    assert len(graph.left) == 5
    spec8 = make_field(2, 3)
    assert point_from_str(spec8, graph.left[0]).coords == (1, 0, 0, 0, 0, 0)
    assert report.kind == "zarankiewicz"
    assert report.kst.orientation == "left_only"
    assert report.t_threshold == 9
    assert verify_witness(graph, report.kst)


def test_construct_zar_q11_cross_check():
    plan = plan_construction("zarankiewicz", 2, T=3, r=1, m=2, q=11)
    graph, _ = construct_zar(plan, 5)
    assert len(graph.left) == 9


def test_construct_zar_deterministic():
    plan = plan_construction("zarankiewicz", 2, T=3, r=1, m=2, q=8)
    g1, r1 = construct_zar(plan, 4)
    g2, r2 = construct_zar(plan, 4)
    assert g1.to_json() == g2.to_json()
    assert r1.to_json() == r2.to_json()


def test_construct_zar_r0_full_space():
    plan = plan_construction("zarankiewicz", 2, T=2, r=0, m=2, q=5)
    assert plan.a == 1
    graph, report = construct_zar(plan, 1)
    assert len(graph.right) == 31  # all of the plane over F_5
    assert report.sides_full


def test_construct_zar_empty_left():
    # floor(c * 8^(3/2)) is 0 below c = 1/22, whatever the seed
    for c in (0, Fraction(1, 23)):
        with pytest.raises(ValueError, match="left width"):
            plan_construction("zarankiewicz", 2, T=3, r=1, m=2, q=8, c=c)
    assert plan_construction("zarankiewicz", 2, T=3, r=1, m=2, q=8,
                             c=Fraction(1, 22)).a == 1
    # construct_zar keeps its own check for a plan edited past the planner
    plan = replace(plan_construction("zarankiewicz", 2, T=3, r=1, m=2, q=8),
                   a=0)
    with pytest.raises(CertificationError, match="left side is empty"):
        construct_zar(plan, 1)


# --- joint uniformity ----------------------------------------------------------


def test_joint_uniformity_disjoint_blocks():
    spec = make_field(2, 1)
    res = joint_uniformity_test(spec, [(1, 0), (0, 1)], 1, 1, 1)
    assert res.ok
    assert res.total == 16 and res.cells == 16
    assert res.detail["expected_multiplicity"] == 1


def test_joint_uniformity_overlapping_anchors():
    spec = make_field(2, 1)
    res = joint_uniformity_test(spec, [(1, 0), (1, 1)], 1, 1, 1)
    assert res.ok


def test_joint_uniformity_negative_control():
    spec = make_field(2, 1)
    # the three points of the line, dependent at degree 1
    res = joint_uniformity_test(spec, projective_array(spec, 1), 1, 1, 1)
    assert not res.ok
    assert not res.detail["independent_anchors"]


def test_joint_uniformity_exhaustive_cap():
    spec = make_field(5, 1)
    with pytest.raises(BudgetExceeded):
        joint_uniformity_test(spec, [(1, 0, 0), (0, 1, 0)], 2, 2, 2)


def test_joint_uniformity_grid_exhaustive():
    # every feasible small case is exactly uniform for independent anchors
    for p in (2, 3):
        spec = make_field(p, 1)
        pts = projective_array(spec, 1)
        for m in (1, 2):
            for mp in (1, 2):
                ncoef = (m + 1) * (mp + 1)
                if p**ncoef > 1 << 14:
                    continue
                anchors = pts[: min(2, m + 1)]
                res = joint_uniformity_test(spec, anchors, 1, m, mp)
                assert res.ok, (p, m, mp)


def test_joint_uniformity_matches_rank():
    # the enumerated tally agrees with the rank theorem of selftest check 4:
    # uniform iff the anchors impose independent conditions at degree m
    checked = dependent = 0
    for spec in (make_field(2, 1), make_field(3, 1), make_field(2, 2)):
        q = spec.order
        for a in (1, 2):
            pts = projective_array(spec, a).tolist()
            for m, mp in itertools.product((1, 2), repeat=2):
                if q ** (comb(a + m, m) * (mp + 1)) > 1 << 10:
                    continue
                for size in (1, 2, 3):
                    for anchors in itertools.combinations(pts, size):
                        res = joint_uniformity_test(spec, anchors, 1, m, mp)
                        independent = hilbert_rank(spec, anchors, m) == size
                        assert res.ok == independent, (q, a, m, mp, anchors)
                        checked += 1
                        dependent += not independent
    assert (checked, dependent) == (598, 86)

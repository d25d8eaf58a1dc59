import json
from fractions import Fraction

import pytest

from kstfree.gf import make_field
from kstfree.graphs import (
    CertificationError,
    ConstructionPlan,
    SidedGraph,
    construct_turan,
    construct_zar,
    density_report,
    joint_uniformity_test,
    kst_verdict,
    max_common_neighborhood,
    plan_construction,
    verify_witness,
)
from kstfree.polyrand import SeededRng
from kstfree.projgeom import ProjPoint, enumerate_projective, point_from_str
from kstfree.util import BudgetExceeded


def fano_graph():
    # incidence of the 7 points and 7 lines of the plane over F_2
    spec = make_field(2, 1)
    pts = enumerate_projective(spec, 2)
    rows = []
    for p in pts:
        bits = 0
        for j, l in enumerate(pts):
            if sum(a * b for a, b in zip(p.coords, l.coords)) % 2 == 0:
                bits |= 1 << j
        rows.append(bits)
    left = ["p%d" % i for i in range(7)]
    right = ["l%d" % i for i in range(7)]
    return SidedGraph(spec, left, right, rows)


def complete_bipartite(nl, nr):
    spec = make_field(2, 1)
    full = (1 << nr) - 1
    return SidedGraph(spec, ["u%d" % i for i in range(nl)],
                      ["v%d" % j for j in range(nr)], [full] * nl)


# --- container --------------------------------------------------------------


def test_graph_validation():
    spec = make_field(2, 1)
    with pytest.raises(ValueError):
        SidedGraph(spec, ["a", "a"], ["b"], [0, 0])
    with pytest.raises(ValueError):
        SidedGraph(spec, ["a"], ["b"], [0, 1])
    with pytest.raises(ValueError):
        SidedGraph(spec, ["a"], ["b"], [2])  # bit 1 has no right vertex


def test_graph_json_roundtrip():
    g = fano_graph()
    doc = g.to_json()
    back = SidedGraph.from_json(doc)
    assert back.left == g.left and back.right == g.right
    assert back.rows == g.rows
    assert back.to_json() == doc
    assert doc["edges"] == sorted(doc["edges"])


def test_graph_edges_and_columns():
    g = complete_bipartite(2, 3)
    assert g.num_edges == 6
    assert list(g.edges()) == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]] \
        or list(g.edges()) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert g.columns() == [3, 3, 3]


# --- neighborhoods and verdicts ----------------------------------------------


def test_max_common_complete_bipartite():
    g = complete_bipartite(2, 3)
    res = max_common_neighborhood(g, 2, "left")
    assert res.size == 3 and res.certified
    assert res.subset == (0, 1)


def test_max_common_empty_graph():
    spec = make_field(2, 1)
    g = SidedGraph(spec, ["a", "b"], ["c", "d"], [0, 0])
    res = max_common_neighborhood(g, 2, "left")
    assert res.size == 0


def test_max_common_fano():
    g = fano_graph()
    left = max_common_neighborhood(g, 2, "left")
    right = max_common_neighborhood(g, 2, "right")
    assert left.size == 1 and right.size == 1
    single = max_common_neighborhood(g, 1, "left")
    assert single.size == 3  # every point lies on three lines


def test_max_common_sampled_lower_bound():
    g = complete_bipartite(6, 4)
    res = max_common_neighborhood(g, 2, "left", budget=3, rng=SeededRng(1),
                                  samples=5)
    assert res.mode == "sampled" and not res.certified
    assert res.size == 4  # every pair sees everything
    with pytest.raises(BudgetExceeded):
        max_common_neighborhood(g, 2, "left", budget=3)


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
    # over budget on the left, but t exceeds the right side: no search needed
    v = kst_verdict(g, 2, 4, {}, "left_only", budget=5)
    assert v.free is True and v.certified
    assert v.sides["left"]["mode"] == "pigeonhole"


def test_kst_sampled_never_certifies_freeness():
    g = fano_graph()
    found = searches(g, 2, budget=5, rng=SeededRng(3), samples=4)
    v = kst_verdict(g, 2, 2, found, "both", budget=5)
    assert v.free is None and not v.certified


def test_kst_monotone_in_t():
    rng = SeededRng(77)
    spec = make_field(2, 1)
    for _ in range(20):
        nl, nr = 3 + rng.randbelow(4), 3 + rng.randbelow(4)
        rows = [rng.randbelow(1 << nr) for _ in range(nl)]
        g = SidedGraph(spec, ["u%d" % i for i in range(nl)],
                       ["v%d" % j for j in range(nr)], rows)
        found = searches(g, 2)
        prev = None
        for t in range(1, nr + 2):
            v = kst_verdict(g, 2, t, found, "both")
            assert v.free in (True, False)
            if prev is True:
                assert v.free is True
            prev = v.free


# --- density -----------------------------------------------------------------


def test_density_empty_graph():
    spec = make_field(2, 1)
    g = SidedGraph(spec, ["a"], ["b"], [0])
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
    with pytest.raises(ValueError):
        plan_construction("turan", 2)  # desk needs m, r, Z
    with pytest.raises(ValueError):
        plan_construction("nope", 2, mode="theorem")
    with pytest.raises(ValueError):
        plan_construction("turan", 1, mode="theorem")


def test_plan_json_roundtrip():
    for plan in (plan_construction("turan", 2, m=3, r=1, Z=1, q=7),
                 plan_construction("zarankiewicz", 2, T=3, r=1, m=2, q=8),
                 plan_construction("turan", 10, mode="theorem")):
        doc = plan.to_json()
        assert json.loads(json.dumps(doc)) == doc
        back = ConstructionPlan.from_json(doc)
        assert back == plan


# --- pipelines ---------------------------------------------------------------


def test_construct_turan_q7():
    plan = plan_construction("turan", 2, m=3, r=1, Z=1, q=7)
    graph, report = construct_turan(plan, 2024)
    assert len(graph.left) <= 12 and len(graph.right) <= 12
    assert len(graph.rows) == len(graph.left)
    assert report.kind == "turan"
    assert report.t_threshold == 82
    assert report.kst.orientation == "both"
    # t = 82 exceeds both sides, so freeness is certain
    assert report.kst.free is True and report.kst.certified
    assert verify_witness(graph, report.kst)
    assert report.builder is not None
    assert report.builder["attempts"] >= 1


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
    plan = plan_construction("turan", 2, m=3, r=1, Z=1, q=7, c=0)
    with pytest.raises(CertificationError):
        construct_turan(plan, 1)


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
    assert report.cross_check is None  # characteristic 2 at degree 2
    assert report.t_threshold == 9
    assert verify_witness(graph, report.kst)


def test_construct_zar_q11_cross_check():
    plan = plan_construction("zarankiewicz", 2, T=3, r=1, m=2, q=11)
    graph, report = construct_zar(plan, 5)
    assert len(graph.left) == 9
    assert report.cross_check is True


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
    plan = plan_construction("zarankiewicz", 2, T=3, r=1, m=2, q=8, c=0)
    assert plan.a == 0
    with pytest.raises(CertificationError):
        construct_zar(plan, 1)


# --- joint uniformity ----------------------------------------------------------


def line_points(spec):
    return enumerate_projective(spec, 1)


def test_joint_uniformity_disjoint_blocks():
    spec = make_field(2, 1)
    anchors = [ProjPoint(spec, (1, 0)), ProjPoint(spec, (0, 1))]
    res = joint_uniformity_test(1, 1, 1, 1, anchors, "exhaustive")
    assert res.ok
    assert res.total == 16 and res.cells == 16
    assert res.detail["expected_multiplicity"] == 1


def test_joint_uniformity_overlapping_anchors():
    spec = make_field(2, 1)
    anchors = [ProjPoint(spec, (1, 0)), ProjPoint(spec, (1, 1))]
    res = joint_uniformity_test(1, 1, 1, 1, anchors, "exhaustive")
    assert res.ok


def test_joint_uniformity_dependent_rejected():
    spec = make_field(2, 1)
    anchors = line_points(spec)  # three points, dependent at degree 1
    with pytest.raises(ValueError):
        joint_uniformity_test(1, 1, 1, 1, anchors, "exhaustive")


def test_joint_uniformity_negative_control():
    spec = make_field(2, 1)
    anchors = line_points(spec)
    res = joint_uniformity_test(1, 1, 1, 1, anchors, "exhaustive",
                                require_independent=False)
    assert not res.ok
    assert not res.detail["independent_anchors"]


def test_joint_uniformity_exhaustive_cap():
    spec = make_field(5, 1)
    anchors = [ProjPoint(spec, (1, 0, 0)), ProjPoint(spec, (0, 1, 0))]
    with pytest.raises(BudgetExceeded):
        joint_uniformity_test(2, 2, 2, 2, anchors, "exhaustive")


def test_joint_uniformity_sampled():
    spec = make_field(5, 1)
    anchors = [ProjPoint(spec, (1, 0, 3)), ProjPoint(spec, (0, 1, 2))]
    res = joint_uniformity_test(2, 2, 2, 2, anchors, "sampled",
                                rng=SeededRng(505), draws=10_000)
    assert res.ok
    assert res.mode == "sampled"
    assert res.cells == 25
    assert float(res.detail["worst_stat"]) <= float(res.detail["threshold"])


def test_joint_uniformity_grid_exhaustive():
    # every feasible small case is exactly uniform for independent anchors
    for p in (2, 3):
        spec = make_field(p, 1)
        pts = enumerate_projective(spec, 1)
        for m in (1, 2):
            for mp in (1, 2):
                ncoef = (m + 1) * (mp + 1)
                if p**ncoef > 1 << 14:
                    continue
                anchors = pts[: min(2, m + 1)]
                res = joint_uniformity_test(1, 1, m, mp, anchors,
                                            "exhaustive")
                assert res.ok, (p, m, mp)

"""Scalar references that tests hold the package's bulk code to.

Nothing in `src/kstfree` needs these, so they live beside the tests.
"""
from kstfree.graphs import KstVerdict, SidedGraph, _common, _side_adj
from kstfree.polyrand import BiHomPoly
from kstfree.projgeom import enumerate_multiindices, monomial_eval


def evaluate_bi(g: BiHomPoly, v, w) -> int:
    """g at a pair of canonical points, one monomial at a time."""
    spec = g.spec
    mis_x = enumerate_multiindices(g.a, g.m)
    mis_y = enumerate_multiindices(g.b, g.mp)
    acc = 0
    for row, alpha in zip(g.coeffs, mis_x):
        xa = monomial_eval(v, alpha)
        if xa == 0:
            continue
        inner = 0
        for c, beta in zip(row, mis_y):
            if c:
                inner = spec.add(inner, spec.mul(c, monomial_eval(w, beta)))
        acc = spec.add(acc, spec.mul(xa, inner))
    return acc


def verify_witness(g: SidedGraph, verdict: KstVerdict) -> bool:
    """Re-check a violation witness against the adjacency data."""
    if verdict.witness is None:
        return True
    w = verdict.witness
    common = _common(_side_adj(g, w["side"]), w["anchors"])
    return (len(w["anchors"]) == verdict.s
            and len(set(w["neighbors"])) == verdict.t
            and all(common[j] for j in w["neighbors"]))

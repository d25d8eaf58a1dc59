"""Seeded random-variety constructions of K_{s,t}-free bipartite graphs.

The stack, bottom up: exact finite-field arithmetic (gf), projective
points and monomials (projgeom), seeded random forms (polyrand),
dependence and rank diagnostics (independence), certified variety
building (variety), graph pipelines and verdicts (graphs), and the CLI
plus built-in check suite (cli, acceptance).
"""

from .gf import FieldSpec, field_for_order, make_field
from .graphs import (
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
)
from .independence import (
    dependence_classify,
    disjoint_span_subset,
    hilbert_rank,
    independent_set_third,
    m_cap,
    phi_upper_bound,
    power_rank,
    s_wise_independent,
    strong_dependence_witness,
    z_condition,
)
from .polyrand import BiHomPoly, HomPoly, SeededRng, random_bihom, random_hom
from .projgeom import (
    ProjPoint,
    enumerate_multiindices,
    enumerate_projective,
    point_from_str,
    point_to_str,
)
from .util import BudgetExceeded
from .variety import (
    BuildConfig,
    VarietySpec,
    build_independent_variety,
    concentration_study,
    count_points,
    dimension_probe,
    fq_point_array,
)

__version__ = "0.1.0"

__all__ = [
    "BiHomPoly",
    "BudgetExceeded",
    "BuildConfig",
    "CertificationError",
    "ConstructionPlan",
    "FieldSpec",
    "HomPoly",
    "ProjPoint",
    "SeededRng",
    "SidedGraph",
    "VarietySpec",
    "build_independent_variety",
    "concentration_study",
    "construct_turan",
    "construct_zar",
    "count_points",
    "density_report",
    "dependence_classify",
    "dimension_probe",
    "disjoint_span_subset",
    "enumerate_multiindices",
    "enumerate_projective",
    "field_for_order",
    "fq_point_array",
    "hilbert_rank",
    "independent_set_third",
    "joint_uniformity_test",
    "kst_verdict",
    "m_cap",
    "make_field",
    "max_common_neighborhood",
    "phi_upper_bound",
    "plan_construction",
    "point_from_str",
    "point_to_str",
    "power_rank",
    "random_bihom",
    "random_hom",
    "s_wise_independent",
    "strong_dependence_witness",
    "z_condition",
]

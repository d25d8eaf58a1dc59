"""Seeded random-variety constructions of K_{s,t}-free bipartite graphs.

The stack, bottom up: exact finite-field arithmetic (gf), projective
points and monomials (projgeom), seeded random forms (polyrand),
dependence and rank diagnostics (independence), certified variety
building (variety), graph pipelines and verdicts (graphs), and the CLI
plus built-in check suite (cli, acceptance).  A point set is an
(n, b+1) int64 array of canonical encodings throughout; `ProjPoint` is
one point, for scalar evaluation.  The lemma experiments that only the
check suite runs (power-form rows, joint uniformity, slice moments,
strong witnesses, two-basis selection) live in acceptance and are not
exported here.
"""

from .gf import FieldSpec, field_for_order, make_field
from .graphs import (
    CertificationError,
    ConstructionPlan,
    SidedGraph,
    construct_turan,
    construct_zar,
    density_report,
    kst_verdict,
    max_common_neighborhood,
    plan_construction,
)
from .independence import (
    dependence_classify,
    hilbert_rank,
    m_cap,
    phi_upper_bound,
    s_wise_independent,
    z_condition,
)
from .polyrand import BiHomPoly, HomPoly, SeededRng, random_bihom, random_hom
from .projgeom import ProjPoint
from .util import BudgetExceeded
from .variety import (
    BuildConfig,
    VarietySpec,
    build_independent_variety,
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
    "construct_turan",
    "construct_zar",
    "count_points",
    "density_report",
    "dependence_classify",
    "dimension_probe",
    "field_for_order",
    "fq_point_array",
    "hilbert_rank",
    "kst_verdict",
    "m_cap",
    "make_field",
    "max_common_neighborhood",
    "phi_upper_bound",
    "plan_construction",
    "random_bihom",
    "random_hom",
    "s_wise_independent",
    "z_condition",
]

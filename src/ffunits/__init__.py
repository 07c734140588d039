"""Exact arithmetic and certified decision procedures for linear equations
over finitely generated unit subgroups of rational function fields F_q(t)."""

from .field import GF
from .poly import Factorization, Poly, factor, is_irreducible, poly_divmod, poly_gcd, poly_powmod
from .ratfunc import (
    Divisor,
    Modulus,
    Place,
    RatFunc,
    divisor_vector,
    reduce_mod,
    valuation,
)
from .hasse import TaylorJet, hasse_derivative, in_power_subfield, taylor_jet
from .wronskian import (
    IndependenceCertificate,
    candidate_solution,
    coordinate_matrix,
    independence_test,
    wronskian_det_adj,
)
from .unitgroup import (
    MembershipWitness,
    SubgroupPresentation,
    build_presentation,
    kernel_element_check,
    member,
    radical_member,
    representatives,
)
from .solver import (
    CertifiedReport,
    Equation,
    auto_m,
    decide,
    m2_shortcut,
    phi,
    psi,
    with_unit_rhs,
)
from .localprobe import (
    ObstructionWitness,
    ResidueGroup,
    closure_probe,
    find_local_obstruction,
    residue_group,
    sg_search,
    sl_search,
)
from .exprio import eval_expr, parse_element, parse_expr, print_expr

__version__ = "0.1.0"

__all__ = [
    "GF",
    "Poly",
    "Factorization",
    "factor",
    "is_irreducible",
    "poly_divmod",
    "poly_gcd",
    "poly_powmod",
    "RatFunc",
    "Place",
    "Divisor",
    "Modulus",
    "valuation",
    "divisor_vector",
    "reduce_mod",
    "TaylorJet",
    "taylor_jet",
    "hasse_derivative",
    "in_power_subfield",
    "IndependenceCertificate",
    "coordinate_matrix",
    "independence_test",
    "wronskian_det_adj",
    "candidate_solution",
    "SubgroupPresentation",
    "MembershipWitness",
    "build_presentation",
    "member",
    "radical_member",
    "representatives",
    "kernel_element_check",
    "Equation",
    "CertifiedReport",
    "psi",
    "phi",
    "with_unit_rhs",
    "decide",
    "auto_m",
    "m2_shortcut",
    "ResidueGroup",
    "ObstructionWitness",
    "residue_group",
    "sl_search",
    "find_local_obstruction",
    "sg_search",
    "closure_probe",
    "parse_expr",
    "eval_expr",
    "parse_element",
    "print_expr",
    "__version__",
]

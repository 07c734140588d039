"""Exact arithmetic and certified decision procedures for linear equations
over finitely generated unit subgroups of rational function fields F_q(t)."""

from .field import GF
from .poly import Factorization, Poly, factor, is_irreducible, poly_divmod, poly_gcd, poly_powmod
from .ratfunc import Modulus, RatFunc, divisor_vector, reduce_mod, valuation
from .hasse import hasse_derivative, in_power_subfield, taylor_jet
from .wronskian import (
    IndependenceCertificate,
    candidate_solution,
    coordinate_matrix,
    independence_test,
    psi,
    wronskian_det_adj,
)
from .unitgroup import (
    MembershipWitness,
    SubgroupPresentation,
    build_presentation,
    member,
    representatives,
)
from .solver import (
    CertifiedReport,
    Equation,
    auto_m,
    decide,
)
from .localprobe import (
    ObstructionWitness,
    closure_probe,
    find_local_obstruction,
    residue_group,
    sg_search,
    sl_search,
)
from .exprio import parse_element, print_expr

__version__ = "0.1.0"

# the public names are the classes and functions bound above, each declared once
__all__ = [
    name for name, value in list(globals().items()) if callable(value) and not name.startswith("_")
] + ["__version__"]

"""Exact certificates for rank, strength and regular-sequence properties of
quadric and cubic forms, over the rationals and prime fields."""

from .domains import GF, QQ, domain_from_name
from .groebner import (
    GroebnerBasis,
    Ideal,
    codimension,
    dimension,
    groebner_basis,
    ideal_intersection,
    ideal_quotient,
    is_regular_sequence_codim,
    is_regular_sequence_direct,
    normal_form,
)
from .minors import (
    GenericMatrix,
    column_multidegree,
    determinant_laplace,
    laplace_strength_bound,
    maximal_minors,
)
from .orders import DEGREVLEX, LEX
from .parse import format_poly, load_ideal_file, parse_poly
from .poly import Poly, Ring
from .polygcd import multivariate_gcd, regular_pair_gcd_check
from .quadratic import (
    QuadraticForm,
    collective_strength_quadrics,
    jacobian_minor_ideal,
    minrank_bruteforce,
    minrank_formula,
    prime_certificate,
    simultaneous_diagonalize,
    strength_from_rank,
)
from .strength import (
    class_ideals,
    exclusion_matrix,
    strength_bruteforce_small,
)
from .certificates import (
    Certificate,
    build_certificate,
    certify_n32_lower,
    certify_n32_upper_sample,
    certify_n33,
    certify_small_r,
    recheck_certificate,
)
from .version import __version__

__all__ = [name for name in dir() if not name.startswith("_")]

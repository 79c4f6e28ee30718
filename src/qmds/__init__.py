"""Exact construction and verification of Hermitian self-orthogonal GRS
codes over GF(q^2) and the quantum MDS parameters they yield."""

from .construct import (
    AdditiveCosetDesign,
    ConstructionResult,
    ExcludedParameters,
    MultiplicativeCosetDesign,
    ParameterError,
    QuantumParams,
    additive_coset_code,
    dimension_bound,
    grid,
    multiplicative_coset_code,
    quantum_params_for_distance,
)
from .field import (
    DEFAULT_ELEMENT_BOUND,
    FieldTower,
    field_for_prime_power,
    make_field,
)
from .grs import (
    GRSCode,
    LinearCode,
    encode,
    generator_matrix,
    in_hermitian_dual,
    is_hermitian_self_orthogonal,
    is_mds_by_rank,
    min_distance_bruteforce,
    nullspace_dual,
    w_vector,
)
from .poly import Poly, lagrange_interpolate, root_free_monic
from .verify import (
    SweepRow,
    VerificationReport,
    derive_quantum,
    emit,
    five_one_five_search,
    identity_suites,
    sweep,
    verify_code,
    verify_construction,
)

__version__ = "0.1.0"

__all__ = [
    "AdditiveCosetDesign",
    "ConstructionResult",
    "DEFAULT_ELEMENT_BOUND",
    "ExcludedParameters",
    "FieldTower",
    "GRSCode",
    "LinearCode",
    "MultiplicativeCosetDesign",
    "ParameterError",
    "Poly",
    "QuantumParams",
    "SweepRow",
    "VerificationReport",
    "additive_coset_code",
    "derive_quantum",
    "dimension_bound",
    "emit",
    "encode",
    "field_for_prime_power",
    "five_one_five_search",
    "generator_matrix",
    "grid",
    "identity_suites",
    "in_hermitian_dual",
    "is_hermitian_self_orthogonal",
    "is_mds_by_rank",
    "lagrange_interpolate",
    "make_field",
    "min_distance_bruteforce",
    "multiplicative_coset_code",
    "nullspace_dual",
    "quantum_params_for_distance",
    "root_free_monic",
    "sweep",
    "verify_code",
    "verify_construction",
    "w_vector",
]

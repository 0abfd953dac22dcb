"""matconj: exact recovery of the matrix behind an inner automorphism.

Every algebra automorphism of the full n x n matrix algebra over a field is
conjugation by an invertible matrix.  This package recovers that matrix
explicitly from just two evaluations of the map, verifies every identity the
construction stands on, and ships a seeded fuzzing harness plus a CLI with
exact JSON interchange formats.  All arithmetic is exact: arbitrary-precision
rationals or prime fields GF(p).
"""

from .automorphism import AutomorphismOracle, ConjugationWitness, ValidationReport
from .errors import (
    DimensionMismatch,
    DivisionByZero,
    EmptyKernel,
    FieldMismatch,
    GenerationExhausted,
    IndexOutOfRange,
    MatconjError,
    OutputError,
    ParseError,
    SingularConjugator,
    SingularMatrix,
    UnsupportedQuery,
    ValueTooLarge,
)
from .field import FieldElement, FieldSpec, is_prime, prime_field, rationals
from .fuzz import (
    RNG_ALGORITHM,
    FuzzConfig,
    IdentitySummary,
    derive_trial_seed,
    random_invertible,
    random_matrix,
    run_identity_suite,
    run_roundtrip_suite,
)
from .matrix import (
    ColumnVector,
    Matrix,
    RrefResult,
    elementary_matrix,
    outer_product,
    shift_matrix,
)
from .skolem_noether import (
    Outcome,
    RecoveryReport,
    StructureCheckReport,
    build_conjugator,
    certify,
    check_structure_identities,
    decide_automorphism,
    kernel_vector,
    projected_idempotent,
    scalar_relation,
    verify_conjugation,
)

__version__ = "0.1.0"

__all__ = [
    "AutomorphismOracle",
    "ColumnVector",
    "ConjugationWitness",
    "DimensionMismatch",
    "DivisionByZero",
    "EmptyKernel",
    "FieldElement",
    "FieldMismatch",
    "FieldSpec",
    "FuzzConfig",
    "GenerationExhausted",
    "IdentitySummary",
    "IndexOutOfRange",
    "Matrix",
    "MatconjError",
    "Outcome",
    "OutputError",
    "ParseError",
    "RNG_ALGORITHM",
    "RecoveryReport",
    "RrefResult",
    "SingularConjugator",
    "SingularMatrix",
    "StructureCheckReport",
    "UnsupportedQuery",
    "ValidationReport",
    "ValueTooLarge",
    "build_conjugator",
    "certify",
    "check_structure_identities",
    "decide_automorphism",
    "derive_trial_seed",
    "elementary_matrix",
    "is_prime",
    "kernel_vector",
    "outer_product",
    "prime_field",
    "projected_idempotent",
    "random_invertible",
    "random_matrix",
    "rationals",
    "run_identity_suite",
    "run_roundtrip_suite",
    "scalar_relation",
    "shift_matrix",
    "verify_conjugation",
]

"""The package's public names and the fields its value types store."""

import dataclasses
import inspect

import matconj

PUBLIC_NAMES = [
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
    "MatconjError",
    "Matrix",
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


def test_public_names_are_pinned_and_resolve():
    # a name added to or cut from the package shows in this list's diff
    assert sorted(matconj.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(matconj, name) is not None, name


def _fields(cls) -> tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))


def test_value_types_store_no_derived_field():
    # a value another field fixes is a property, so no object can hold a
    # contradiction: the kernel vector is column 1 of A, n and the field are
    # A's, Q is the absent modulus, the rank counts the pivots, and every
    # backing defines a linear map
    # A^-1 is computed from A, never passed in
    assert _fields(matconj.ConjugationWitness) == ("conjugator", "conjugator_inv")
    init = [field.name for field in dataclasses.fields(matconj.ConjugationWitness) if field.init]
    assert init == ["conjugator"]
    assert _fields(matconj.FieldSpec) == ("modulus",)
    assert matconj.RrefResult._fields == ("matrix", "pivots")
    assert "linear_ok" not in _fields(matconj.ValidationReport)
    assert not hasattr(matconj.field, "FieldKind")


def test_constructors_take_only_what_fixes_the_map():
    # n and the field are facts of the matrices, never passed beside them
    oracle = matconj.AutomorphismOracle
    assert list(inspect.signature(oracle).parameters) == ["backing"]
    assert list(inspect.signature(oracle.from_table).parameters) == ["images"]


def test_one_conjugation_type():
    # the recovery's witness is the oracle's conjugation backing, defined once
    witness = matconj.automorphism.ConjugationWitness
    assert matconj.skolem_noether.ConjugationWitness is witness
    assert matconj.ConjugationWitness is witness

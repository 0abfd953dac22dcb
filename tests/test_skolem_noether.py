"""The recovery construction itself: projector, kernel, conjugator, checks."""

import dataclasses
import random
from fractions import Fraction

import pytest

from matconj import (
    AutomorphismOracle,
    ColumnVector,
    ConjugationWitness,
    EmptyKernel,
    Matrix,
    Outcome,
    SingularConjugator,
    SingularMatrix,
    build_conjugator,
    certify,
    check_structure_identities,
    elementary_matrix,
    kernel_vector,
    outer_product,
    prime_field,
    projected_idempotent,
    random_invertible,
    random_matrix,
    rationals,
    scalar_relation,
    shift_matrix,
    verify_conjugation,
)

QQ = rationals()


def identity_generators(n, spec=QQ):
    return elementary_matrix(spec, n, n, 1), shift_matrix(spec, n)


# -- projected_idempotent ----------------------------------------------------


def test_projector_identity_map():
    h, g = identity_generators(2)
    assert projected_idempotent(h, g, 2) == elementary_matrix(QQ, 2, 1, 1)


def test_projector_diag_conjugation():
    # H = 3 E_{3,1}, G = (1/2)E_{1,2} + (2/3)E_{2,3}: the images under
    # conjugation by diag(1,2,3); G^2 H collapses back to E_{1,1}.
    h = elementary_matrix(QQ, 3, 3, 1).scale(3)
    g = Matrix.from_rows(QQ, [[0, Fraction(1, 2), 0], [0, 0, Fraction(2, 3)], [0, 0, 0]])
    assert projected_idempotent(h, g, 3) == elementary_matrix(QQ, 3, 1, 1)


def test_projector_n1_is_h():
    h = Matrix.from_rows(QQ, [[1]])
    g = Matrix.zero(QQ, 1, 1)
    assert projected_idempotent(h, g, 1) == h


# -- kernel_vector -----------------------------------------------------------


def test_kernel_vector_corner():
    assert kernel_vector(elementary_matrix(QQ, 2, 1, 1)) == ColumnVector.standard_basis(
        QQ, 2, 1
    )


def test_kernel_vector_swapped_corner():
    # conjugation by the swap sends the corner idempotent to E_{2,2}
    assert kernel_vector(elementary_matrix(QQ, 2, 2, 2)) == ColumnVector.standard_basis(
        QQ, 2, 2
    )


def test_kernel_vector_empty():
    with pytest.raises(EmptyKernel):
        kernel_vector(Matrix.zero(QQ, 2, 2))


# -- build_conjugator --------------------------------------------------------


def test_build_identity_map():
    # a = e_1, Ha = e_2, GHa = e_1, so A = [e_1 | e_2] = I
    h, g = identity_generators(2)
    witness = build_conjugator(h, g, 2)
    assert witness.conjugator == Matrix.identity(QQ, 2)
    assert witness.kernel_vector == ColumnVector.standard_basis(QQ, 2, 1)


def test_build_swap_conjugation():
    # conjugation by the swap matrix: H = E_{1,2}, G = E_{2,1};
    # a = e_2, Ha = e_1, GHa = e_2, so A = [e_2 | e_1] = the swap itself
    h = elementary_matrix(QQ, 2, 1, 2)
    g = elementary_matrix(QQ, 2, 2, 1)
    witness = build_conjugator(h, g, 2)
    swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert witness.conjugator == swap
    assert witness.kernel_vector == ColumnVector.standard_basis(QQ, 2, 2)


def test_build_diag_conjugation():
    # a = e_1, Ha = 3e_3, GHa = 2e_2, G^2Ha = e_1: A = diag(1,2,3) exactly
    b = Matrix.from_rows(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    h, g = AutomorphismOracle.conjugation_by(b).query_generators()
    witness = build_conjugator(h, g, 3)
    assert witness.conjugator == b
    assert witness.conjugator @ witness.conjugator_inv == Matrix.identity(QQ, 3)


def test_build_empty_kernel():
    # H = E_{1,1}, G = 0 gives projector 0, and I - 0 is injective
    with pytest.raises(EmptyKernel):
        build_conjugator(elementary_matrix(QQ, 2, 1, 1), Matrix.zero(QQ, 2, 2), 2)


def test_build_singular_conjugator():
    # H = G = E_{1,1}: a = e_1, both columns come out equal to e_1
    e11 = elementary_matrix(QQ, 2, 1, 1)
    with pytest.raises(SingularConjugator):
        build_conjugator(e11, e11, 2)


def test_build_n1():
    witness = build_conjugator(Matrix.from_rows(QQ, [[1]]), Matrix.zero(QQ, 1, 1), 1)
    assert witness.conjugator == Matrix.identity(QQ, 1)


# -- check_structure_identities ---------------------------------------------


def test_structure_checks_pass_for_genuine_maps():
    rng = random.Random(41)
    for spec in (QQ, prime_field(7)):
        for n in range(1, 6):
            b = random_invertible(spec, n, rng, 4)
            h, g = AutomorphismOracle.conjugation_by(b).query_generators()
            witness = build_conjugator(h, g, n)
            report = check_structure_identities(h, g, witness)
            assert report.all_ok, report.first_failing


def test_structure_checks_forced_non_automorphism():
    # H = E_{1,1}, G = 0 never builds (empty kernel); force a witness with
    # a = e_1 anyway and record which identities survive.  Observed flags:
    # the chain H G^0 H = H^2 = E_{1,1} != 0, the projector G H = 0 is
    # trivially idempotent, I - 0 has full rank, A = [GHa | Ha] = [0 | e_1]
    # breaks the corner intertwine but 0 = 0 keeps the shift one.
    h = elementary_matrix(QQ, 2, 1, 1)
    g = Matrix.zero(QQ, 2, 2)
    a = ColumnVector.standard_basis(QQ, 2, 1)
    ha = h @ a
    forced = Matrix.from_columns([g @ ha, ha])
    witness = ConjugationWitness(forced, forced, a, 2, QQ)  # inverse unused
    report = check_structure_identities(h, g, witness)
    assert report.shift_nilpotent_ok
    assert not report.corner_chain_ok
    assert not report.nilpotent_ok
    assert report.idempotent_ok
    assert not report.kernel_rank_ok
    assert not report.intertwine_E_ok
    assert report.intertwine_S_ok
    assert report.first_failing == "nilpotent"
    assert not report.all_ok


def test_structure_checks_n1_trivial():
    h = Matrix.from_rows(QQ, [[1]])
    g = Matrix.zero(QQ, 1, 1)
    witness = build_conjugator(h, g, 1)
    report = check_structure_identities(h, g, witness)
    assert report.all_ok
    assert report.first_failing is None


# -- verify_conjugation ------------------------------------------------------


def test_verify_genuine_witness():
    rng = random.Random(43)
    b = random_invertible(QQ, 3, rng, 4)
    phi = AutomorphismOracle.conjugation_by(b)
    h, g = phi.query_generators()
    witness = build_conjugator(h, g, 3)
    report = verify_conjugation(phi, witness)
    assert report.outcome is Outcome.RECOVERED
    assert report.verified_pairs == 9
    assert report.failing_pair is None
    assert report.query_count == phi.query_count == 11  # 2 recovery + n^2 sweep


def test_verify_scalar_multiple_still_passes():
    # conjugation cannot see scalars: 2A realizes exactly the same map
    rng = random.Random(47)
    b = random_invertible(QQ, 2, rng, 4)
    phi = AutomorphismOracle.conjugation_by(b)
    h, g = phi.query_generators()
    witness = build_conjugator(h, g, 2)
    doubled = ConjugationWitness(
        witness.conjugator.scale(2),
        witness.conjugator_inv.scale(Fraction(1, 2)),
        witness.kernel_vector,
        2,
        QQ,
    )
    assert verify_conjugation(phi, doubled).outcome is Outcome.RECOVERED


def test_verify_perturbed_witness_fails():
    # fuzz for a perturbation A + E_{1,1} that stays invertible, then demand
    # verification rejects it with a concrete witness pair
    rng = random.Random(53)
    e11 = elementary_matrix(QQ, 2, 1, 1)
    found = False
    for _ in range(50):
        b = random_invertible(QQ, 2, rng, 4)
        phi = AutomorphismOracle.conjugation_by(b)
        h, g = phi.query_generators()
        witness = build_conjugator(h, g, 2)
        perturbed_matrix = witness.conjugator + e11
        if perturbed_matrix.det().is_zero():
            continue
        if scalar_relation(perturbed_matrix, witness.conjugator) is not None:
            continue  # by chance still a scalar multiple: no failure expected
        perturbed = ConjugationWitness(
            perturbed_matrix,
            perturbed_matrix.inverse(),
            witness.kernel_vector,
            2,
            QQ,
        )
        report = verify_conjugation(phi, perturbed)
        assert report.outcome is Outcome.VERIFICATION_FAILED
        assert report.failing_pair is not None
        assert 1 <= report.failing_pair[0] <= 2 and 1 <= report.failing_pair[1] <= 2
        found = True
        break
    assert found, "never found an invertible non-scalar perturbation"


def test_verify_uses_outer_product_identity():
    rng = random.Random(59)
    b = random_invertible(QQ, 3, rng, 3)
    phi = AutomorphismOracle.conjugation_by(b)
    h, g = phi.query_generators()
    w = build_conjugator(h, g, 3)
    for i in range(1, 4):
        for j in range(1, 4):
            lhs = w.conjugator @ elementary_matrix(QQ, 3, i, j) @ w.conjugator_inv
            rhs = outer_product(w.conjugator.column(i), w.conjugator_inv.row_vector(j))
            assert lhs == rhs


# -- certify -----------------------------------------------------------------


def reference_pair_certificate(oracle, witness, h, g):
    """Sweep the pair's expansion, then demand that conjugation by A
    reproduces (H, G): the route certify shortcuts when both intertwines hold."""
    report = verify_conjugation(oracle.to_full_table(), witness)
    report = dataclasses.replace(report, query_count=oracle.query_count)
    a_mat, n, spec = witness.conjugator, witness.n, witness.spec
    reproduces = (
        a_mat @ elementary_matrix(spec, n, n, 1) == h @ a_mat
        and a_mat @ shift_matrix(spec, n) == g @ a_mat
    )
    if report.outcome is Outcome.RECOVERED and not reproduces:
        report.outcome = Outcome.VERIFICATION_FAILED
        report.detail = "conjugation does not reproduce the generator images"
    return report


def generated_pairs(spec, n, rng):
    """A genuine pair, the same pair with one entry of H or G bumped, a
    genuine H with a random G, and a random pair."""
    b = random_invertible(spec, n, rng, 3)
    h, g = AutomorphismOracle.conjugation_by(b).query_generators()
    bump = elementary_matrix(spec, n, rng.randint(1, n), rng.randint(1, n))
    yield h, g
    yield h + bump, g
    yield h, g + bump
    yield h, random_matrix(spec, n, rng, 3)
    yield random_matrix(spec, n, rng, 3), random_matrix(spec, n, rng, 3)


def test_certify_matches_sweep_then_intertwines_on_pairs():
    rng = random.Random(73)
    kinds = set()
    for spec in (QQ, prime_field(2), prime_field(3)):
        for n in range(1, 5):
            for _ in range(6):
                for h, g in generated_pairs(spec, n, rng):
                    try:
                        witness = build_conjugator(h, g, n)
                    except (EmptyKernel, SingularConjugator):
                        continue
                    oracle = AutomorphismOracle.from_generator_pair(h, g)
                    report = certify(oracle, witness, h, g)
                    assert report == reference_pair_certificate(oracle, witness, h, g)
                    assert oracle.query_count == 0
                    if report.outcome is Outcome.RECOVERED:
                        kinds.add("recovered")
                    elif report.failing_pair is not None:
                        kinds.add("sweep_failure")
                    else:
                        kinds.add("reproduce_failure")
    assert kinds == {"recovered", "sweep_failure", "reproduce_failure"}


def test_certify_genuine_pair_skips_expansion_and_sweep(monkeypatch):
    import matconj.skolem_noether as sn

    def forbidden(*args):
        raise AssertionError("a genuine pair needs no basis sweep")

    monkeypatch.setattr(AutomorphismOracle, "to_full_table", forbidden)
    monkeypatch.setattr(sn, "verify_conjugation", forbidden)
    b = random_invertible(QQ, 4, random.Random(79), 4)
    h, g = AutomorphismOracle.conjugation_by(b).query_generators()
    witness = build_conjugator(h, g, 4)
    oracle = AutomorphismOracle.from_generator_pair(h, g)
    report = certify(oracle, witness, h, g)
    assert report.outcome is Outcome.RECOVERED
    assert report.verified_pairs == 16
    assert report.failing_pair is None and report.detail is None


def test_certify_sweeps_conjugation_oracle():
    b = random_invertible(QQ, 3, random.Random(83), 4)
    phi = AutomorphismOracle.conjugation_by(b)
    h, g = phi.query_generators()
    witness = build_conjugator(h, g, 3)
    report = certify(phi, witness, h, g)
    assert report.outcome is Outcome.RECOVERED
    assert report.query_count == phi.query_count == 11  # 2 recovery + n^2 sweep


# -- scalar_relation ---------------------------------------------------------


def test_scalar_relation_doubling():
    assert scalar_relation(
        Matrix.identity(QQ, 3).scale(2), Matrix.identity(QQ, 3)
    ) == QQ.element(2)


def test_scalar_relation_self():
    rng = random.Random(61)
    b = random_invertible(QQ, 3, rng, 4)
    assert scalar_relation(b, b) == QQ.element(1)


def test_scalar_relation_none_for_swap():
    swap = shift_matrix(QQ, 2) + elementary_matrix(QQ, 2, 2, 1)
    assert swap == Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert scalar_relation(swap, Matrix.identity(QQ, 2)) is None


def test_scalar_relation_singular_inputs():
    with pytest.raises(SingularMatrix):
        scalar_relation(Matrix.identity(QQ, 2), elementary_matrix(QQ, 2, 1, 1))
    with pytest.raises(SingularMatrix):
        scalar_relation(Matrix.zero(QQ, 2, 2), Matrix.identity(QQ, 2))


# -- roundtrip properties ----------------------------------------------------


@pytest.mark.parametrize(
    "spec", [QQ, prime_field(2), prime_field(5)], ids=str
)
def test_roundtrip_recovery_up_to_scalar(spec):
    rng = random.Random(67)
    for n in range(1, 6):
        for _ in range(5):
            b = random_invertible(spec, n, rng, 4)
            phi = AutomorphismOracle.conjugation_by(b)
            h, g = phi.query_generators()
            assert phi.query_count == 2
            witness = build_conjugator(h, g, n)
            scalar = scalar_relation(witness.conjugator, b)
            assert scalar is not None and not scalar.is_zero()
            projector = projected_idempotent(h, g, n)
            assert projector @ witness.kernel_vector == witness.kernel_vector
            assert verify_conjugation(phi, witness).outcome is Outcome.RECOVERED


def test_dropping_any_column_leaves_rank_n_minus_1():
    rng = random.Random(71)
    for n in range(2, 6):
        b = random_invertible(QQ, n, rng, 4)
        h, g = AutomorphismOracle.conjugation_by(b).query_generators()
        witness = build_conjugator(h, g, n)
        cols = [witness.conjugator.column(j) for j in range(1, n + 1)]
        for drop in range(n):
            kept = [c for j, c in enumerate(cols) if j != drop]
            assert Matrix.from_columns(kept).rank() == n - 1


def test_kernel_of_projector_difference_is_one_dimensional():
    rng = random.Random(73)
    for n in range(1, 6):
        b = random_invertible(prime_field(3), n, rng, 4)
        h, g = AutomorphismOracle.conjugation_by(b).query_generators()
        projector = projected_idempotent(h, g, n)
        diff = Matrix.identity(prime_field(3), n) - projector
        assert diff.rank() == n - 1
        assert len(diff.nullspace_basis()) == 1

"""Oracle backings, query accounting, and automorphism-axiom validation."""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import random
import re
import threading
from collections import Counter
from fractions import Fraction

import pytest

import matconj.skolem_noether as sn
from matconj import (
    AutomorphismOracle,
    ConjugationWitness,
    DimensionMismatch,
    EmptyKernel,
    FieldMismatch,
    MatconjError,
    Matrix,
    SingularConjugator,
    SingularMatrix,
    UnsupportedQuery,
    elementary_matrix,
    prime_field,
    random_invertible,
    rationals,
    shift_matrix,
)
from matconj.cli import field_descriptor, main, validation_to_json

from helpers import (
    full_multiplicativity,
    naive_mul,
    pair_table,
    problem_json,
    random_dense,
    random_scalar,
    vectorized_rank_bijective,
)

QQ = rationals()
GF7 = prime_field(7)
GF2 = prime_field(2)
GF3 = prime_field(3)
GF_P61 = prime_field(2**61 - 1)


def transpose_table(spec, n):
    return {
        (i, j): elementary_matrix(spec, n, j, i)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    }


def identity_table(spec, n):
    return {
        (i, j): elementary_matrix(spec, n, i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    }


# -- apply -------------------------------------------------------------------


def test_apply_conjugation_by_swap():
    swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    phi = AutomorphismOracle.conjugation_by(swap)
    assert phi.apply(elementary_matrix(QQ, 2, 1, 1)) == elementary_matrix(QQ, 2, 2, 2)


def test_apply_preserves_identity():
    rng = random.Random(1)
    b = random_invertible(QQ, 3, rng, 5)
    phi = AutomorphismOracle.conjugation_by(b)
    assert phi.apply(Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 3)


def test_apply_full_table_identity_map():
    phi = AutomorphismOracle.from_table(identity_table(QQ, 2))
    x = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert phi.apply(x) == x


def test_apply_conjugation_matches_direct_product():
    rng = random.Random(2)
    b = random_invertible(QQ, 3, rng, 4)
    phi = AutomorphismOracle.conjugation_by(b)
    x = random_dense(QQ, 3, 3, rng)
    assert phi.apply(x) == naive_mul(naive_mul(b, x), b.inverse())


def test_apply_is_linear():
    rng = random.Random(3)
    for backing in ("conjugation", "table"):
        if backing == "conjugation":
            phi = AutomorphismOracle.conjugation_by(random_invertible(QQ, 3, rng, 4))
        else:
            phi = AutomorphismOracle.conjugation_by(
                random_invertible(QQ, 3, rng, 4)
            ).to_full_table()
        for _ in range(10):
            alpha = QQ.element(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
            beta = QQ.element(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
            x = random_dense(QQ, 3, 3, rng)
            y = random_dense(QQ, 3, 3, rng)
            combo = x.scale(alpha) + y.scale(beta)
            assert phi.apply(combo) == phi.apply(x).scale(alpha) + phi.apply(y).scale(beta)


def test_apply_dimension_checks():
    phi = AutomorphismOracle.conjugation_by(Matrix.identity(QQ, 2))
    with pytest.raises(DimensionMismatch):
        phi.apply(Matrix.identity(QQ, 3))


def test_conjugation_requires_invertible():
    with pytest.raises(SingularMatrix):
        AutomorphismOracle.conjugation_by(elementary_matrix(QQ, 2, 1, 1))


def test_generator_pair_apply_surface():
    h = elementary_matrix(QQ, 2, 2, 1)
    g = shift_matrix(QQ, 2)
    phi = AutomorphismOracle.from_generator_pair(h, g)
    assert phi.apply(elementary_matrix(QQ, 2, 2, 1)) == h
    assert phi.apply(shift_matrix(QQ, 2)) == g
    # a pair answers only its two generators: not E_{1,1}, nor the identity
    for x in (elementary_matrix(QQ, 2, 1, 1), Matrix.identity(QQ, 2)):
        with pytest.raises(UnsupportedQuery, match="only the corner unit and the shift"):
            phi.apply(x)
    assert phi.query_count == 2
    # the identity's image is the pair's own to give: with H = G = 0 the
    # table it spans maps I to 0, so no answer of I could agree with it
    zero = Matrix.zero(QQ, 2, 2)
    zero_pair = AutomorphismOracle.from_generator_pair(zero, zero)
    assert AutomorphismOracle.from_table(pair_table(zero, zero)).apply(
        Matrix.identity(QQ, 2)
    ) == zero
    with pytest.raises(UnsupportedQuery):
        zero_pair.apply(Matrix.identity(QQ, 2))
    # at n = 1 the identity is E_{1,1}, the corner unit, so it gets H
    h1 = Matrix.from_rows(QQ, [[3]])
    single = AutomorphismOracle.from_generator_pair(h1, Matrix.zero(QQ, 1, 1))
    assert single.apply(Matrix.identity(QQ, 1)) == h1


def test_from_table_shape_validation():
    images = identity_table(QQ, 2)
    del images[(2, 2)]
    with pytest.raises(DimensionMismatch):
        AutomorphismOracle.from_table(images)
    images = identity_table(QQ, 2)
    images[(1, 1)] = Matrix.identity(QQ, 3)
    with pytest.raises(DimensionMismatch):
        AutomorphismOracle.from_table(images)
    with pytest.raises(DimensionMismatch, match=re.escape("pair (1,1) is missing")):
        AutomorphismOracle.from_table({})
    images = identity_table(QQ, 2)
    images[(2, 1)] = elementary_matrix(GF7, 2, 2, 1)
    with pytest.raises(FieldMismatch, match=re.escape("image for (2,1) over the wrong field")):
        AutomorphismOracle.from_table(images)


@pytest.mark.parametrize("key", [(1, 1), (2, 2)])
def test_from_table_refuses_a_non_matrix_image(key):
    # n and the field are read off image (1, 1), so any image may be junk
    images = identity_table(QQ, 2)
    images[key] = "junk"
    i, j = key
    with pytest.raises(MatconjError, match=re.escape(f"pair ({i},{j}) is not a matrix")):
        AutomorphismOracle.from_table(images)


def test_oracle_takes_its_backing_alone():
    # n and the field are the backing's: an oracle cannot disagree with it
    witness = ConjugationWitness(Matrix.identity(QQ, 2))
    with pytest.raises(TypeError):
        AutomorphismOracle(QQ, 3, witness)
    phi = AutomorphismOracle(witness)
    assert (phi.spec, phi.n, phi.backing) == (QQ, 2, witness)
    assert phi.query_generators() == (elementary_matrix(QQ, 2, 2, 1), shift_matrix(QQ, 2))
    assert phi.query_count == 2
    # a table's are image (1, 1)'s, a pair's are H's
    for spec, n in ((QQ, 1), (GF7, 3)):
        table = AutomorphismOracle.from_table(identity_table(spec, n))
        pair = AutomorphismOracle.from_generator_pair(*table.query_generators())
        assert (table.spec, table.n) == (pair.spec, pair.n) == (spec, n)


@pytest.mark.parametrize("extra", [(3, 3), (0, 1), (1, 3), ("x", 0)])
def test_from_table_refuses_a_key_outside_the_basis(extra):
    # every n^2 image present, and one more key that names no basis pair
    images = identity_table(QQ, 2)
    images[extra] = "junk" if extra == ("x", 0) else Matrix.identity(QQ, 2)
    with pytest.raises(DimensionMismatch, match=re.escape(f"image keyed {extra!r}")):
        AutomorphismOracle.from_table(images)


def test_from_generator_pair_refusals():
    # the one generator-pair check: the field first, then the shapes
    h, g = elementary_matrix(QQ, 2, 2, 1), shift_matrix(QQ, 2)
    unequal = "generator images must be square and equal-sized"
    for pair in ((h, shift_matrix(GF7, 2)), (h, shift_matrix(GF7, 3))):
        with pytest.raises(FieldMismatch, match="generator images over different fields"):
            AutomorphismOracle.from_generator_pair(*pair)
    wide = Matrix.zero(QQ, 2, 3)
    for pair in ((wide, g), (h, shift_matrix(QQ, 3)), (h, wide), (wide, wide)):
        with pytest.raises(DimensionMismatch, match=unequal):
            AutomorphismOracle.from_generator_pair(*pair)


def test_backing_kind_of_each_constructor():
    h, g = elementary_matrix(QQ, 2, 2, 1), shift_matrix(QQ, 2)
    assert AutomorphismOracle.conjugation_by(g + h).backing.kind == "conjugation"
    table = AutomorphismOracle.from_table(identity_table(QQ, 2))
    assert table.backing.kind == "full_table"
    pair = AutomorphismOracle.from_generator_pair(h, g)
    assert pair.backing.kind == "generator_pair"


def test_conjugation_backing_is_the_witness():
    # the oracle's conjugation backing is the recovery's witness type, whose
    # image(i, j) is B E_{i,j} B^-1 and whose table is the oracle's expansion
    rng = random.Random(12)
    for spec in (QQ, GF7):
        b = random_invertible(spec, 3, rng, 4)
        phi = AutomorphismOracle.conjugation_by(b)
        witness = phi.backing
        assert witness == ConjugationWitness(b)
        assert witness.conjugator_inv == b.inverse()
        images = witness.images()
        assert sorted(images) == [(i, j) for i in range(1, 4) for j in range(1, 4)]
        table = phi.to_full_table()
        for (i, j), image in images.items():
            unit = elementary_matrix(spec, 3, i, j)
            assert image == witness.image(i, j) == b @ unit @ b.inverse()
            assert table.apply(unit) == image
        x = random_dense(spec, 3, 3, rng)
        assert witness.apply(x) == table.apply(x) == phi.apply(x)


def test_witness_computes_its_own_inverse():
    # A is the one init field; A^-1 is A's, cannot be set or replaced, and a
    # singular A has no witness
    b = Matrix.from_rows(GF7, [[1, 2], [3, 4]])
    witness = ConjugationWitness(b)
    assert witness.conjugator_inv == b.inverse()
    assert [f.name for f in dataclasses.fields(witness) if f.init] == ["conjugator"]
    with pytest.raises(TypeError):
        ConjugationWitness(b, b.inverse())
    with pytest.raises(ValueError, match="conjugator_inv"):
        dataclasses.replace(witness, conjugator_inv=b)
    assert dataclasses.replace(witness, conjugator=b.scale(2)).conjugator_inv == (
        b.inverse().scale(4)  # 1/2 = 4 in GF(7)
    )
    for singular in (Matrix.zero(GF7, 2, 2), elementary_matrix(GF7, 2, 1, 2)):
        with pytest.raises(SingularMatrix):
            ConjugationWitness(singular)
    # conjugation_by refuses a non-square B through its witness
    with pytest.raises(DimensionMismatch, match="inverse needs a square matrix"):
        AutomorphismOracle.conjugation_by(Matrix.zero(GF7, 2, 3))


def test_to_full_table_refuses_a_table():
    phi = AutomorphismOracle.from_table(identity_table(QQ, 2))
    with pytest.raises(UnsupportedQuery, match="oracle already carries a full table"):
        phi.to_full_table()
    assert phi.query_count == 0


# -- query_generators --------------------------------------------------------


def test_query_generators_identity_map():
    phi = AutomorphismOracle.conjugation_by(Matrix.identity(QQ, 3))
    h, g = phi.query_generators()
    assert h == elementary_matrix(QQ, 3, 3, 1)
    assert g == shift_matrix(QQ, 3)


def test_query_generators_diag_123():
    # Hand evaluation of B E_{3,1} B^-1 and B S B^-1 for B = diag(1,2,3),
    # confirmed against an independent product reference.
    b = Matrix.from_rows(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    phi = AutomorphismOracle.conjugation_by(b)
    h, g = phi.query_generators()
    assert h == elementary_matrix(QQ, 3, 3, 1).scale(3)
    expected_g = Matrix.from_rows(
        QQ, [[0, Fraction(1, 2), 0], [0, 0, Fraction(2, 3)], [0, 0, 0]]
    )
    assert g == expected_g
    b_inv = b.inverse()
    assert h == naive_mul(naive_mul(b, elementary_matrix(QQ, 3, 3, 1)), b_inv)
    assert g == naive_mul(naive_mul(b, shift_matrix(QQ, 3)), b_inv)


def test_query_generators_costs_two():
    phi = AutomorphismOracle.conjugation_by(Matrix.identity(QQ, 4))
    before = phi.query_count
    phi.query_generators()
    assert phi.query_count == before + 2
    phi.query_generators()
    assert phi.query_count == before + 4


def test_query_generators_n1():
    phi = AutomorphismOracle.conjugation_by(Matrix.from_rows(QQ, [[5]]))
    h, g = phi.query_generators()
    assert h == Matrix.identity(QQ, 1)
    assert g == Matrix.zero(QQ, 1, 1)
    assert phi.query_count == 2


def test_full_sweep_costs_n_squared():
    phi = AutomorphismOracle.conjugation_by(Matrix.identity(QQ, 3))
    for i in range(1, 4):
        for j in range(1, 4):
            phi.apply(elementary_matrix(QQ, 3, i, j))
    assert phi.query_count == 9


def test_to_full_table_counts_no_queries():
    phi = AutomorphismOracle.conjugation_by(Matrix.identity(QQ, 3))
    phi.to_full_table()
    assert phi.query_count == 0


def test_query_counter_thread_safe():
    phi = AutomorphismOracle.conjugation_by(Matrix.identity(QQ, 2))
    x = Matrix.identity(QQ, 2)

    def worker():
        for _ in range(200):
            phi.apply(x)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert phi.query_count == 800


# -- validate ----------------------------------------------------------------


def test_validate_inner_maps_pass():
    rng = random.Random(5)
    for spec in (QQ, GF7):
        for n in range(1, 5):
            b = random_invertible(spec, n, rng, 4)
            report = AutomorphismOracle.conjugation_by(b).validate()
            assert report.is_automorphism, report.first_violation


def test_validate_transpose_fails_multiplicativity():
    report = AutomorphismOracle.from_table(transpose_table(QQ, 2)).validate()
    assert report.unital_ok
    assert not report.multiplicative_ok
    assert not report.is_automorphism
    assert report.first_violation is not None
    # the transpose really does flip this product, independent of the checker
    e12 = elementary_matrix(QQ, 2, 1, 2)
    e21 = elementary_matrix(QQ, 2, 2, 1)
    assert naive_mul(e21, e12) == elementary_matrix(QQ, 2, 2, 2)
    assert e12 @ e21 == elementary_matrix(QQ, 2, 1, 1)


def test_validate_zero_map():
    images = {
        (i, j): Matrix.zero(QQ, 2, 2) for i in range(1, 3) for j in range(1, 3)
    }
    report = AutomorphismOracle.from_table(images).validate()
    assert not report.unital_ok
    assert not report.bijective_ok


def test_validate_rejects_generator_pair():
    # a pair is never tabulated: validate() and to_full_table() refuse it at
    # one check, with one text, and query nothing
    phi = AutomorphismOracle.from_generator_pair(
        elementary_matrix(QQ, 2, 2, 1), shift_matrix(QQ, 2)
    )
    text = "a generator pair carries too little information to validate"
    for refused in (phi.validate, phi.to_full_table):
        with pytest.raises(UnsupportedQuery, match=f"^{text}$"):
            refused()
    assert not hasattr(phi.backing, "images") and phi.query_count == 0


def test_validate_scaled_map_not_unital():
    rng = random.Random(8)
    b = random_invertible(QQ, 2, rng, 4)
    doubled = {
        key: img.scale(2)
        for key, img in AutomorphismOracle.conjugation_by(b)
        ._images_for_validation()
        .items()
    }
    report = AutomorphismOracle.from_table(doubled).validate()
    assert not report.unital_ok
    assert not report.multiplicative_ok
    assert report.bijective_ok


_PRODUCT_VIOLATION = re.compile(
    r"image\((\d+),(\d+)\) \* image\((\d+),(\d+)\) is not "
    r"(?:image\((\d+),(\d+)\)|zero)"
)


def _zero_table(spec, n):
    return {
        (i, j): Matrix.zero(spec, n, n) for i in range(1, n + 1) for j in range(1, n + 1)
    }


def _equivalence_tables(spec, n, rng):
    """Genuine, perturbed, transposed, random, adversarial and zero tables.

    Two adversarial kinds each satisfy all generator products but one
    family: a table with phi(E_ij) = R_i^-1 R_j and R_1 = I passes every
    phi(E_i1) phi(E_1j) check and the j = k checks, while the first-column
    table (zero except phi(E_i1) for i >= 2) passes all but the j = 1 case.
    """
    one = Matrix.identity(spec, n)
    for _ in range(12):
        rows = [one] + [random_invertible(spec, n, rng, 3) for _ in range(n - 1)]
        yield {
            (i, j): rows[i - 1].inverse() @ rows[j - 1]
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        }
        column = _zero_table(spec, n)
        for i in range(2, n + 1):
            column[(i, 1)] = random_invertible(spec, n, rng, 3)
        yield column
        genuine = AutomorphismOracle.conjugation_by(
            random_invertible(spec, n, rng, 4)
        )._images_for_validation()
        yield genuine
        yield {(i, j): genuine[(j, i)] for (i, j) in genuine}
        for _ in range(2):
            perturbed = dict(genuine)
            key = (rng.randint(1, n), rng.randint(1, n))
            delta = spec.element(0)
            while delta.is_zero():
                delta = random_scalar(spec, rng)
            bump = elementary_matrix(spec, n, rng.randint(1, n), rng.randint(1, n))
            perturbed[key] = perturbed[key] + bump.scale(delta)
            yield perturbed
        for _ in range(2):
            yield {
                (i, j): random_dense(spec, n, n, rng, 2)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
            }
    yield _zero_table(spec, n)


def _assert_names_failing_product(images, n, violation):
    match = _PRODUCT_VIOLATION.fullmatch(violation)
    assert match, violation
    i, j, k, l = (int(g) for g in match.groups()[:4])
    if match.group(5) is None:
        assert j != k, violation
        expected = Matrix.zero(images[(1, 1)].spec, n, n)
    else:
        assert (j, int(match.group(5)), int(match.group(6))) == (k, i, l), violation
        expected = images[(i, l)]
    assert naive_mul(images[(i, j)], images[(k, l)]) != expected, violation


def test_generator_products_match_full_multiplicativity():
    rng = random.Random(13)
    seen = {True: 0, False: 0}
    named = 0
    for spec in (QQ, GF2, GF3):
        for n in range(1, 4):
            for images in _equivalence_tables(spec, n, rng):
                report = AutomorphismOracle.from_table(images).validate()
                assert report.multiplicative_ok == full_multiplicativity(images, n)
                seen[report.multiplicative_ok] += 1
                violation = report.first_violation
                if violation and violation.startswith("image("):
                    _assert_names_failing_product(images, n, violation)
                    named += 1
                elif report.unital_ok:
                    assert report.multiplicative_ok, violation
    assert seen[True] >= 100 and seen[False] >= 100, seen
    assert named >= 100


def _diagonal_projection(spec, n):
    """X -> diag(X): unital, not multiplicative for n >= 2, of rank n."""
    return {
        (i, j): elementary_matrix(spec, n, i, i) if i == j else Matrix.zero(spec, n, n)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    }


def _genuine_transposed_zero_diagonal(spec, n, rng):
    genuine = AutomorphismOracle.conjugation_by(
        random_invertible(spec, n, rng, 4)
    )._images_for_validation()
    yield genuine
    yield {(i, j): genuine[(j, i)] for (i, j) in genuine}
    yield _zero_table(spec, n)
    yield _diagonal_projection(spec, n)


def test_bijectivity_matches_vectorized_rank():
    # a multiplicative table is bijective iff phi(I) != 0; every table,
    # multiplicative or not, must agree with the n^2 x n^2 rank, and the
    # unital diagonal projection is not bijective
    rng = random.Random(17)
    batteries = [
        (spec, n, _equivalence_tables(spec, n, rng))
        for spec in (QQ, GF2, GF3)
        for n in range(1, 4)
    ]
    batteries += [
        (spec, n, _genuine_transposed_zero_diagonal(spec, n, rng))
        for spec in (QQ, GF_P61)
        for n in range(1, 5)
    ]
    seen = {"phi(I) != 0": 0, "phi(I) = 0": 0, "not multiplicative": 0}
    for spec, n, tables in batteries:
        for images in tables:
            report = AutomorphismOracle.from_table(images).validate()
            assert report.bijective_ok == vectorized_rank_bijective(images, n)
            if not report.multiplicative_ok:
                seen["not multiplicative"] += 1
            elif all(images[(i, i)].is_zero() for i in range(1, n + 1)):
                seen["phi(I) = 0"] += 1
            else:
                seen["phi(I) != 0"] += 1
    assert seen["phi(I) != 0"] >= 200 and seen["phi(I) = 0"] >= 100, seen
    assert seen["not multiplicative"] >= 500, seen


@pytest.mark.parametrize("spec", [QQ, GF_P61], ids=str)
def test_validate_ranks_only_a_map_that_is_not_multiplicative(spec, monkeypatch):
    # a multiplicative table reads bijectivity off phi(I): no elimination;
    # any other table takes one rank of its n^2 x n^2 matrix
    rng = random.Random(19)
    cases = []
    for n in range(1, 5):
        b = random_invertible(spec, n, rng, 4)
        conjugation = AutomorphismOracle.conjugation_by(b)
        table = conjugation.to_full_table()
        cases += [(conjugation, 0), (table, 0)]
        cases.append((AutomorphismOracle.from_table(_zero_table(spec, n)), 0))
        if n >= 2:
            images = table._images_for_validation()
            transposed = {(i, j): images[(j, i)] for (i, j) in images}
            cases.append((AutomorphismOracle.from_table(transposed), 1))
            diagonal = _diagonal_projection(spec, n)
            cases.append((AutomorphismOracle.from_table(diagonal), 1))
    eliminate = Matrix._eliminate
    eliminations = []

    def counted_eliminate(self, reduced):
        eliminations.append(reduced)
        return eliminate(self, reduced)

    monkeypatch.setattr(Matrix, "_eliminate", counted_eliminate)
    for oracle, expected in cases:
        eliminations.clear()
        report = oracle.validate()
        assert len(eliminations) == expected, (oracle.n, report)
        assert report.multiplicative_ok == (expected == 0)


# -- check-aut: the construction route ----------------------------------------


def _check_aut_oracles(spec, n, rng):
    """The oracles of the equivalence battery; genuine, transposed, zero and
    diagonal-projection tables; a genuine table with one random entry bumped
    and one whose image (n, n) alone is bumped, so the construction's sweep
    fails at its last pair; and conjugator files."""
    kinds = list(_genuine_transposed_zero_diagonal(spec, n, rng))
    genuine = kinds[0]
    bumped, last = dict(genuine), dict(genuine)
    key = (rng.randint(1, n), rng.randint(1, n))
    bumped[key] = bumped[key] + elementary_matrix(spec, n, rng.randint(1, n), 1)
    last[(n, n)] = last[(n, n)] + elementary_matrix(spec, n, 1, n)
    tables = [*_equivalence_tables(spec, n, rng), *kinds, bumped, last]
    oracles = [AutomorphismOracle.from_table(images) for images in tables]
    for _ in range(3):
        b = random_invertible(spec, n, rng, 4)
        oracles.append(AutomorphismOracle.conjugation_by(b))
    return oracles


def _check_aut(path, monkeypatch, counted):
    """check-aut's exit code and stdout, with ``counted`` methods spied on:
    a dict from (class, name) to a list each call appends to."""
    out = io.StringIO()
    with monkeypatch.context() as patch, contextlib.redirect_stdout(out):
        for (cls, name), calls in counted.items():
            method = getattr(cls, name)

            def spy(self, *args, _method=method, _calls=calls, **kwargs):
                _calls.append(self)
                return _method(self, *args, **kwargs)

            patch.setattr(cls, name, spy)
        code = main(["check-aut", str(path)])
    return code, out.getvalue()


def test_check_aut_matches_validate(tmp_path, monkeypatch):
    # check-aut accepts a conjugator file by its witness, a table by
    # construction and sweep, and runs validate() only for a rejection, so
    # its exit code and bytes are those of validate() alone on every file
    rng = random.Random(29)
    path = tmp_path / "problem.json"
    validated, stages = [], []
    build, certify = sn.build_conjugator, sn.certify

    def spied_build(h, g):
        try:
            witness = build(h, g)
        except (EmptyKernel, SingularConjugator) as exc:
            stages.append(f"{type(exc).__name__}: {exc}")
            raise
        stages.append("built")
        return witness

    def spied_certify(*args):
        report = certify(*args)
        stages.append("sweep " + report.outcome.value)
        return report

    seen = Counter()
    for spec, n in itertools.product((QQ, GF2, GF3, GF_P61), range(1, 5)):
        for oracle in _check_aut_oracles(spec, n, rng):
            raw = json.dumps(problem_json(oracle)).encode()
            path.write_bytes(raw)
            report = oracle.validate()
            expected = {
                "command": "check-aut",
                "input_sha256": hashlib.sha256(raw).hexdigest(),
                "field": field_descriptor(spec),
                "n": n,
                **validation_to_json(report),
            }
            validated.clear()
            stages.clear()
            queried = []
            spied = {
                (AutomorphismOracle, "validate"): validated,
                (AutomorphismOracle, "apply"): queried,
            }
            with monkeypatch.context() as patch:
                patch.setattr(sn, "build_conjugator", spied_build)
                patch.setattr(sn, "certify", spied_certify)
                code, out = _check_aut(path, monkeypatch, spied)
            assert code == (0 if report.is_automorphism else 1), (n, report)
            assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
            if oracle.backing.kind == "conjugation":
                # an automorphism by its witness: no query, no build, no
                # certificate and no validate()
                assert report.is_automorphism
                assert (validated, stages, queried) == ([], [], []), n
                seen["conjugation"] += 1
                continue
            # validate() runs exactly for a rejection: every automorphism
            # passes the construction and its sweep
            assert len(validated) == (not report.is_automorphism), (n, report)
            accepted = stages == ["built", "sweep recovered"]
            assert accepted == report.is_automorphism, (n, stages)
            seen["full_table" if accepted else stages[-1]] += 1
            # the build refuses exactly the tables whose corner image is not
            # of rank 1, before any kernel or conjugator is formed
            corner_rank = oracle.query_generators()[0].rank()
            refused = stages[0].endswith("corner image is not of rank 1")
            assert refused == (corner_rank >= 2), (n, corner_rank, stages)
    assert seen["full_table"] >= 300 and seen["conjugation"] == 48, seen
    not_rank_one = "EmptyKernel: corner image is not of rank 1"
    injective = "EmptyKernel: identity minus projector is injective"
    assert seen[not_rank_one] >= 500 and seen[injective] >= 300, seen
    assert seen["SingularConjugator: assembled candidate conjugator is singular"] >= 5, seen
    assert seen["sweep verification_failed"] >= 350, seen


@pytest.mark.parametrize("spec", [QQ, GF_P61], ids=str)
def test_check_aut_genuine_table_costs_one_elimination(spec, tmp_path, monkeypatch):
    # a genuine table: two queries, the build with A^-1 and the n^2-pair
    # sweep, and no validate() and no dense product
    rng = random.Random(31)
    path = tmp_path / "problem.json"
    for n in range(1, 7):
        b = random_invertible(spec, n, rng, 4)
        images = AutomorphismOracle.conjugation_by(b).backing.images()
        table = AutomorphismOracle.from_table(images)
        path.write_text(json.dumps(problem_json(table)))
        counted = {
            (AutomorphismOracle, "validate"): [],
            (AutomorphismOracle, "_first_generator_violation"): [],
            (Matrix, "__matmul__"): [],
            (Matrix, "_eliminate"): [],
        }
        code, out = _check_aut(path, monkeypatch, counted)
        assert code == 0 and json.loads(out)["is_automorphism"] is True
        assert [len(calls) for calls in counted.values()] == [0, 0, 0, 1], n


@pytest.mark.slow
@pytest.mark.parametrize("spec", [QQ, GF7], ids=str)
@pytest.mark.parametrize("n", range(1, 7))
def test_validate_inner_maps_full_battery(spec, n):
    rng = random.Random(n * 1000 + (spec.modulus or 0))
    for _ in range(500):
        b = random_invertible(spec, n, rng, 5)
        report = AutomorphismOracle.conjugation_by(b).validate()
        assert report.is_automorphism, report.first_violation


# -- to_full_table -----------------------------------------------------------


def test_pair_expansion_of_identity_generators():
    # helpers.pair_table: G^{n-i} H G^{j-1} with H = E_{n,1}, G = S is the
    # identity table, and the pair of conjugation by B spans B's own table
    for spec, n in ((QQ, 1), (QQ, 2), (GF7, 4)):
        h, g = elementary_matrix(spec, n, n, 1), shift_matrix(spec, n)
        assert pair_table(h, g) == identity_table(spec, n)
    rng = random.Random(13)
    for spec, n in ((QQ, 3), (GF7, 4)):
        witness = ConjugationWitness(random_invertible(spec, n, rng, 4))
        pair = AutomorphismOracle(witness).query_generators()
        assert pair_table(*pair) == witness.images()


def test_conjugation_tabulates_pointwise():
    rng = random.Random(9)
    b = random_invertible(GF7, 3, rng, 5)
    phi = AutomorphismOracle.conjugation_by(b)
    table = phi.to_full_table()
    for i in range(1, 4):
        for j in range(1, 4):
            x = elementary_matrix(GF7, 3, i, j)
            assert table.apply(x) == naive_mul(naive_mul(b, x), b.inverse())


def test_table_roundtrip_validates():
    rng = random.Random(10)
    b = random_invertible(QQ, 3, rng, 4)
    table = AutomorphismOracle.conjugation_by(b).to_full_table()
    assert table.validate().is_automorphism


def test_multiplicativity_extends_to_dense_matrices():
    rng = random.Random(12)
    b = random_invertible(QQ, 3, rng, 3)
    table = AutomorphismOracle.conjugation_by(b).to_full_table()
    assert table.validate().is_automorphism
    for _ in range(10):
        x = random_dense(QQ, 3, 3, rng)
        y = random_dense(QQ, 3, 3, rng)
        assert table.apply(x @ y) == table.apply(x) @ table.apply(y)

"""Exact dense matrices: generators, elimination, kernels, determinants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matconj import (
    ColumnVector,
    DimensionMismatch,
    IndexOutOfRange,
    Matrix,
    SingularMatrix,
    elementary_matrix,
    outer_product,
    prime_field,
    rationals,
    shift_matrix,
)

from helpers import det_bareiss, leibniz_det, naive_mul, random_dense

QQ = rationals()
GF5 = prime_field(5)


# -- generator matrices ------------------------------------------------------


def test_corner_unit_n2():
    assert elementary_matrix(QQ, 2, 2, 1) == Matrix.from_rows(QQ, [[0, 0], [1, 0]])


def test_unit_diag():
    assert elementary_matrix(QQ, 3, 1, 1) == Matrix.from_rows(
        QQ, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    )


def test_unit_product_collapses():
    e12 = elementary_matrix(GF5, 2, 1, 2)
    e21 = elementary_matrix(GF5, 2, 2, 1)
    assert e12 @ e21 == elementary_matrix(GF5, 2, 1, 1)


def test_unit_bounds():
    with pytest.raises(IndexOutOfRange):
        elementary_matrix(QQ, 3, 0, 1)
    with pytest.raises(IndexOutOfRange):
        elementary_matrix(QQ, 3, 1, 4)


def test_shift_n3():
    assert shift_matrix(QQ, 3) == Matrix.from_rows(
        QQ, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    )


def test_shift_n1_is_zero():
    assert shift_matrix(QQ, 1) == Matrix.zero(QQ, 1, 1)


def test_shift_cubed_vanishes():
    assert shift_matrix(QQ, 3).power(3).is_zero()


@pytest.mark.parametrize("n", range(1, 9))
def test_shift_identities(n):
    s = shift_matrix(QQ, n)
    assert s.power(n - 1) == elementary_matrix(QQ, n, 1, n)
    assert s.power(n).is_zero()
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            assert s.power(i) @ elementary_matrix(QQ, n, j, 1) == elementary_matrix(
                QQ, n, j - i, 1
            )


# -- products ----------------------------------------------------------------


def test_shift_products_n3():
    s = shift_matrix(QQ, 3)
    assert s.power(2) == elementary_matrix(QQ, 3, 1, 3)
    assert s.power(2) @ elementary_matrix(QQ, 3, 3, 1) == elementary_matrix(QQ, 3, 1, 1)


def test_power_zero_is_identity():
    a = Matrix.from_rows(QQ, [[2, 1], [0, 3]])
    assert a.power(0) == Matrix.identity(QQ, 2)


def test_power_rejects_negative_and_rectangular():
    with pytest.raises(ValueError):
        Matrix.identity(QQ, 2).power(-1)
    with pytest.raises(DimensionMismatch):
        Matrix.zero(QQ, 2, 3).power(2)


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Matrix.zero(QQ, 2, 3) @ Matrix.zero(QQ, 2, 3)


@pytest.mark.parametrize("spec", [QQ, GF5], ids=str)
def test_mul_matches_naive_reference(spec):
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randint(1, 5)
        inner = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = random_dense(spec, rows, inner, rng)
        b = random_dense(spec, inner, cols, rng)
        assert a @ b == naive_mul(a, b)


@pytest.mark.parametrize("spec", [QQ, GF5], ids=str)
def test_mul_associative_distributive(spec):
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        a, b, c = (random_dense(spec, n, n, rng) for _ in range(3))
        assert (a @ b) @ c == a @ (b @ c)
        assert a @ (b + c) == a @ b + a @ c


def test_mat_vec():
    m = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    v = ColumnVector(QQ, [5, 6])
    assert m @ v == ColumnVector(QQ, [17, 39])


# -- rref and nullspace ------------------------------------------------------


def test_rref_identity():
    res = Matrix.identity(QQ, 4).rref()
    assert res.matrix == Matrix.identity(QQ, 4)
    assert res.pivots == (1, 2, 3, 4)
    assert res.rank == 4


def test_rref_corner_projector():
    m = Matrix.identity(QQ, 2) - elementary_matrix(QQ, 2, 1, 1)
    res = m.rref()
    assert res.matrix == Matrix.from_rows(QQ, [[0, 1], [0, 0]])
    assert res.pivots == (2,)
    assert res.rank == 1


def test_rref_zero():
    res = Matrix.zero(QQ, 3, 3).rref()
    assert res.matrix.is_zero()
    assert res.pivots == ()
    assert res.rank == 0


def test_nullspace_corner_projector():
    m = Matrix.identity(QQ, 2) - elementary_matrix(QQ, 2, 1, 1)
    assert m.nullspace_basis() == [ColumnVector.standard_basis(QQ, 2, 1)]


def test_nullspace_injective():
    assert Matrix.identity(QQ, 3).nullspace_basis() == []


def test_nullspace_zero_matrix():
    assert Matrix.zero(QQ, 2, 2).nullspace_basis() == [
        ColumnVector.standard_basis(QQ, 2, 1),
        ColumnVector.standard_basis(QQ, 2, 2),
    ]


def test_nullspace_leading_coordinate_is_one():
    m = Matrix.from_rows(QQ, [[2, 4, 6], [1, 2, 3], [0, 0, 0]])
    for vec in m.nullspace_basis():
        lead = vec.first_nonzero_index()
        assert vec.entry(lead).is_one()
        assert (m @ vec).is_zero()


@pytest.mark.parametrize("spec", [QQ, GF5, prime_field(2)], ids=str)
def test_rank_nullity(spec):
    rng = random.Random(13)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_dense(spec, rows, cols, rng, bound=3)
        basis = m.nullspace_basis()
        assert m.rank() + len(basis) == cols
        for vec in basis:
            assert (m @ vec).is_zero()


# -- determinant and inverse -------------------------------------------------


def test_det_rank_one_projector():
    m = elementary_matrix(QQ, 3, 2, 2) + elementary_matrix(QQ, 3, 3, 3)
    assert m.det().is_zero()


def test_det_diag():
    assert Matrix.from_rows(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]]).det() == QQ.element(6)


def test_inverse_involution():
    swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert swap.inverse() == swap


def test_inverse_of_singular():
    with pytest.raises(SingularMatrix):
        (elementary_matrix(QQ, 2, 1, 1)).inverse()


@pytest.mark.parametrize("spec", [QQ, GF5], ids=str)
def test_det_multiplicative_and_inverse(spec):
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = random_dense(spec, n, n, rng)
        b = random_dense(spec, n, n, rng)
        assert (a @ b).det() == a.det() * b.det()
        if a.det().is_zero():
            with pytest.raises(SingularMatrix):
                a.inverse()
        else:
            assert a @ a.inverse() == Matrix.identity(spec, n)
            assert a.inverse() @ a == Matrix.identity(spec, n)


@pytest.mark.parametrize("spec", [QQ, GF5], ids=str)
def test_det_matches_leibniz(spec):
    rng = random.Random(19)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = random_dense(spec, n, n, rng)
        assert m.det() == leibniz_det(m)


def test_det_bareiss_cross_check():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = random_dense(QQ, n, n, rng)
        assert det_bareiss(m) == m.det()


def test_det_bareiss_rational_only():
    with pytest.raises(ValueError):
        det_bareiss(Matrix.identity(GF5, 2))


# -- assembly ----------------------------------------------------------------


def test_from_columns_identity():
    e1 = ColumnVector.standard_basis(QQ, 2, 1)
    e2 = ColumnVector.standard_basis(QQ, 2, 2)
    assert Matrix.from_columns([e1, e2]) == Matrix.identity(QQ, 2)
    assert Matrix.from_columns([e2, e1]) == Matrix.from_rows(QQ, [[0, 1], [1, 0]])


def test_from_columns_single():
    v = ColumnVector(QQ, [1, 2, 3])
    m = Matrix.from_columns([v])
    assert (m.rows, m.cols) == (3, 1)
    assert m.column(1) == v


def test_from_columns_mismatch():
    with pytest.raises(DimensionMismatch):
        Matrix.from_columns([ColumnVector(QQ, [1]), ColumnVector(QQ, [1, 2])])
    with pytest.raises(DimensionMismatch):
        Matrix.from_columns([])


def test_outer_product():
    v = ColumnVector(QQ, [1, 2])
    w = ColumnVector(QQ, [3, 4, 5])
    assert outer_product(v, w) == Matrix.from_rows(QQ, [[3, 4, 5], [6, 8, 10]])


def test_outer_product_matches_unit_conjugation():
    # A E_{i,j} B == column_i(A) x row_j(B) for n x n A, B
    rng = random.Random(29)
    a = random_dense(QQ, 3, 3, rng)
    b = random_dense(QQ, 3, 3, rng)
    for i in range(1, 4):
        for j in range(1, 4):
            direct = a @ elementary_matrix(QQ, 3, i, j) @ b
            assert direct == outer_product(a.column(i), b.row_vector(j))


# -- structure ---------------------------------------------------------------


def test_entries_and_indexing():
    m = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert m.entry(1, 2) == QQ.element(2)
    assert m.entry(2, 1) == QQ.element(3)
    with pytest.raises(IndexOutOfRange):
        m.entry(0, 1)
    with pytest.raises(IndexOutOfRange):
        m.entry(1, 3)


def test_ragged_rows_rejected():
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows(QQ, [[1, 2], [3]])


def test_matrices_immutable_hashable():
    m = Matrix.identity(QQ, 2)
    with pytest.raises(Exception):
        m.rows = 3
    assert hash(m) == hash(Matrix.identity(QQ, 2))


def test_transpose_and_trace():
    m = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert m.transpose() == Matrix.from_rows(QQ, [[1, 3], [2, 4]])
    assert m.trace() == QQ.element(5)


@given(st.integers(1, 5), st.integers(0, 3))
def test_power_agrees_with_repeated_product(n, k):
    rng = random.Random(n * 31 + k)
    m = random_dense(QQ, n, n, rng, bound=2)
    expected = Matrix.identity(QQ, n)
    for _ in range(k):
        expected = expected @ m
    assert m.power(k) == expected


@given(
    st.lists(
        st.lists(st.fractions(max_denominator=50), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_rational_matmul_matches_naive(rows):
    m = Matrix.from_rows(QQ, rows)
    assert m @ m == naive_mul(m, m)
    assert det_bareiss(m) == m.det() == leibniz_det(m)

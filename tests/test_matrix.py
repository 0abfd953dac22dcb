"""Exact dense matrices: generators, elimination, kernels, determinants."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matconj import (
    AutomorphismOracle,
    ColumnVector,
    ConjugationWitness,
    DimensionMismatch,
    IndexOutOfRange,
    Matrix,
    SingularMatrix,
    elementary_matrix,
    outer_product,
    prime_field,
    random_invertible,
    rationals,
    shift_matrix,
)
from matconj.matrix import from_integer_form, integer_form, krylov_sequence

from helpers import (
    det_bareiss,
    leibniz_det,
    matrix_krylov_chain,
    naive_mul,
    random_dense,
    random_scalar,
)

QQ = rationals()
GF2 = prime_field(2)
GF5 = prime_field(5)
GF_BIG = prime_field(2**61 - 1)


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


@pytest.mark.parametrize("spec", [QQ, GF2, GF5, GF_BIG], ids=str)
def test_mul_matches_naive_reference(spec):
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randint(1, 5)
        inner = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = random_dense(spec, rows, inner, rng)
        b = random_dense(spec, inner, cols, rng)
        # one-column right factors: a ColumnVector and a plain n x 1 Matrix
        for right in (b, b.column(1), Matrix.from_columns([b.column(cols)])):
            assert a @ right == naive_mul(a, right)


@pytest.mark.parametrize("spec", [QQ, GF5], ids=str)
def test_mul_associative_distributive(spec):
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        a, b, c = (random_dense(spec, n, n, rng) for _ in range(3))
        assert (a @ b) @ c == a @ (b @ c)
        assert a @ (b + c) == a @ b + a @ c


def test_mat_vec():
    for spec in (QQ, GF_BIG):
        m = Matrix.from_rows(spec, [[1, 2], [3, 4]])
        v = ColumnVector(spec, [5, 6])
        w = m @ v
        assert w == ColumnVector(spec, [17, 39])
        assert w == Matrix.from_rows(spec, [[17], [39]])
        assert type(w) is ColumnVector
        for result in (v + w, w - v, -v, v.scale(3)):
            assert type(result) is ColumnVector
        assert v + w == ColumnVector(spec, [22, 45])
        assert v - w == ColumnVector(spec, [-12, -33])
        basis = Matrix.from_rows(spec, [[1, 2, 3], [2, 4, 6]]).nullspace_basis()
        assert len(basis) == 2
        assert all(type(vec) is ColumnVector for vec in basis)


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


def test_singular_inverse_reports_the_rank_of_the_matrix():
    # the rank is A's, not that of [A | I], which is always n
    gf7 = prime_field(7)
    rank_two = Matrix.from_rows(gf7, [[1, 2, 0], [0, 1, 3], [1, 0, 1]])  # det 7 = 0
    for a, rank in ((rank_two, 2), (Matrix.zero(gf7, 3, 3), 0)):
        message = f"matrix of rank {rank} is not invertible"
        with pytest.raises(SingularMatrix, match=message):
            a.inverse()
        with pytest.raises(SingularMatrix, match=message):
            ConjugationWitness(a)


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


# -- GF(p) elimination with unreduced row updates ------------------------------

# (p, rows, pivots, rref rows).  In each, a row update leaves a nonzero
# multiple of p (-2 over GF(2), -3 over GF(3)) in the next pivot column, so
# the candidate must be reduced before its zero test.
UNREDUCED_PIVOT_CASES = [
    # the -2 in column 3 is no pivot: singular
    (2, [[1, 0, 1], [0, 1, 1], [1, 1, 0]], (1, 2), [[1, 0, 1], [0, 1, 1], [0, 0, 0]]),
    # the -2 in row 3 is passed over for the 1 in row 4: a row swap
    (
        2,
        [[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1], [0, 0, 1, 1]],
        (1, 2, 3, 4),
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    ),
    (3, [[1, 2], [2, 1]], (1,), [[1, 2], [0, 0]]),
    (3, [[1, 2, 0], [2, 1, 1], [0, 1, 1]], (1, 2, 3), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    # wide: the rows above the last pivots end unreduced (-4, and the -3
    # left in row 3) until the rref is read out
    (
        3,
        [[1, 2, 0, 1], [2, 1, 1, 0], [0, 1, 1, 2]],
        (1, 2, 3),
        [[1, 0, 0, 2], [0, 1, 0, 1], [0, 0, 1, 1]],
    ),
]


def _sympy_rref(m: Matrix):
    """(rref rows as residues, 0-based pivots) from sympy's DomainMatrix."""
    matrices = pytest.importorskip("sympy.polys.matrices")
    domains = pytest.importorskip("sympy.polys.domains")
    p = m.spec.modulus
    dom = domains.GF(p)
    rows = [[dom(m.entry(i, j).value) for j in range(1, m.cols + 1)] for i in range(1, m.rows + 1)]
    ref, pivots = matrices.DomainMatrix(rows, (m.rows, m.cols), dom).rref()
    return [[int(x) % p for x in row] for row in ref.to_list()], pivots


@pytest.mark.parametrize("p, rows, pivots, rref", UNREDUCED_PIVOT_CASES)
def test_gfp_multiple_of_p_in_pivot_column(p, rows, pivots, rref):
    spec = prime_field(p)
    m = Matrix.from_rows(spec, rows)
    res = m.rref()
    assert res.pivots == pivots
    assert res.rank == m.rank() == len(pivots)
    assert res.matrix == Matrix.from_rows(spec, rref)
    assert _sympy_rref(m) == (rref, tuple(c - 1 for c in pivots))
    if not m.is_square:
        return
    assert m.det() == leibniz_det(m)
    if len(pivots) < m.rows:
        assert m.det().is_zero()
        with pytest.raises(SingularMatrix):
            m.inverse()
    else:
        assert m @ m.inverse() == Matrix.identity(spec, m.rows)


@pytest.mark.parametrize("p", [2, 3, 7, 101, 2**61 - 1])
def test_gfp_elimination_entries_are_residues(p):
    spec = prime_field(p)
    rng = random.Random(127 + p % 1000)
    for _ in range(60):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = random_dense(spec, rows, cols, rng)
        if rng.random() < 0.4:
            inner = rng.randint(1, min(rows, cols))
            m = random_dense(spec, rows, inner, rng) @ random_dense(spec, inner, cols, rng)
        res = m.rref()
        outputs = [res.matrix, *m.nullspace_basis()]
        assert res.rank == m.rank()
        if m.is_square and res.rank == rows:
            inv = m.inverse()
            assert m @ inv == Matrix.identity(spec, rows)
            outputs.append(inv)
        for out in outputs:
            assert all(type(v) is int and 0 <= v < p for v in out._data), m


class _LongestInt(int):
    """An int whose differences, products and residues stay of this class and
    record the longest bit length of any result."""

    longest = 0

    @classmethod
    def _keep(cls, value: int) -> "_LongestInt":
        cls.longest = max(cls.longest, value.bit_length())
        return cls(value)

    def __sub__(self, other):
        return self._keep(int(self) - other)

    def __rsub__(self, other):
        return self._keep(other - int(self))

    def __mul__(self, other):
        return self._keep(int(self) * other)

    __rmul__ = __mul__

    def __mod__(self, other):
        return self._keep(int(self) % other)


@pytest.mark.parametrize("p", [2, 3, 101, 2**61 - 1])
def test_gfp_elimination_size_bound(p):
    # An entry that k <= min(rows, cols) updates have touched lies in
    # (-k (p-1)^2, p), and scaling it by a pivot's inverse adds at most
    # bit_length(p) bits: no intermediate int passes the bound below.
    spec = prime_field(p)
    rng = random.Random(131)
    for rows, cols in ((12, 12), (8, 16), (16, 8)):
        m = random_dense(spec, rows, cols, rng)
        tracked = Matrix._raw_new(spec, rows, cols, tuple(_LongestInt(v) for v in m._data))
        bound = 3 * p.bit_length() + min(rows, cols).bit_length() + 1
        _LongestInt.longest = 0
        assert tracked.rank() == m.rank()
        assert tracked.rref() == m.rref()
        assert 0 < _LongestInt.longest <= bound, (rows, cols, _LongestInt.longest, bound)


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


def test_from_columns_takes_any_n_by_1_matrix():
    # a ColumnVector equals the n x 1 Matrix, so either serves as a column
    m = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    plain = [Matrix.from_rows(QQ, [[2], [4]]), Matrix.from_rows(QQ, [[1], [3]])]
    assert Matrix.from_columns(plain) == Matrix.from_rows(QQ, [[2, 1], [4, 3]])
    assert Matrix.from_columns([m.column(2), plain[1]]) == Matrix.from_columns(plain)
    with pytest.raises(DimensionMismatch):
        Matrix.from_columns([m])
    with pytest.raises(DimensionMismatch):
        Matrix.from_columns([plain[0], m])


def test_from_columns_mismatch():
    with pytest.raises(DimensionMismatch):
        Matrix.from_columns([ColumnVector(QQ, [1]), ColumnVector(QQ, [1, 2])])
    with pytest.raises(DimensionMismatch):
        Matrix.from_columns([])


def test_outer_product():
    v = ColumnVector(QQ, [1, 2])
    w = ColumnVector(QQ, [3, 4, 5])
    assert outer_product(v, w) == Matrix.from_rows(QQ, [[3, 4, 5], [6, 8, 10]])


def test_outer_product_of_n_by_1_matrices():
    # a ColumnVector equals the n x 1 Matrix with the same entries, so either
    # is an argument; a matrix of more than one column is refused
    v, w = Matrix(QQ, 2, 1, [1, 2]), Matrix(QQ, 3, 1, [3, 4, 5])
    expected = Matrix.from_rows(QQ, [[3, 4, 5], [6, 8, 10]])
    assert outer_product(v, w) == expected
    assert outer_product(ColumnVector(QQ, [1, 2]), w) == expected
    assert outer_product(v, ColumnVector(QQ, [3, 4, 5])) == expected
    gf = prime_field(7)
    assert outer_product(Matrix(gf, 2, 1, [3, 5]), Matrix(gf, 2, 1, [4, 6])) == (
        Matrix.from_rows(gf, [[5, 4], [6, 2]])
    )
    square = Matrix.identity(QQ, 2)
    for col, row in ((square, v), (v, square), (square, square)):
        with pytest.raises(DimensionMismatch, match="n x 1"):
            outer_product(col, row)


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


def test_power_starts_from_lowest_set_bit(monkeypatch):
    # no product with the identity: k >= 1 takes bit_length(k) - 1 squarings
    # and popcount(k) - 1 multiplications into the result
    rng = random.Random(37)
    m = random_dense(GF5, 3, 3, rng)
    expected = [Matrix.identity(GF5, 3)]
    for _ in range(40):
        expected.append(expected[-1] @ m)
    matmul, products = Matrix.__matmul__, [0]

    def counted_matmul(left, right):
        products[0] += 1
        return matmul(left, right)

    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    for k in range(41):
        products[0] = 0
        assert m.power(k) == expected[k], k
        assert products[0] == max(k.bit_length() + bin(k).count("1") - 2, 0), k


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
    for j in (1, 2, 3):
        assert m @ m.column(j) == naive_mul(m, m.column(j))
    assert det_bareiss(m) == m.det() == leibniz_det(m)


# -- krylov_sequence ---------------------------------------------------------


def _large_denominators(n, rng):
    """A Q matrix whose entries have numerators and denominators of up to 80
    bits, a quarter of them zero."""
    entries = [
        Fraction(rng.randint(-(2**80), 2**80), rng.randint(1, 2**80))
        if rng.random() < 0.75
        else Fraction(0)
        for _ in range(n * n)
    ]
    return Matrix(QQ, n, n, entries)


def _krylov_inputs(spec, n, rng):
    """(name, G, u) for each kind of krylov_sequence input."""
    b = random_invertible(spec, n, rng, 4)
    h, g = AutomorphismOracle.conjugation_by(b).query_generators()
    j = next(j for j in range(1, n + 1) if not h.column(j).is_zero())
    yield "genuine", g, h.column(j)
    u = ColumnVector(spec, [random_scalar(spec, rng) for _ in range(n)])
    yield "random", random_dense(spec, n, n, rng), u
    yield "zero_u", random_dense(spec, n, n, rng), ColumnVector(spec, [0] * n)
    # G strictly upper triangular and u zero below row m: G^m u = 0, so the
    # chain reaches zero at step m < n; m = 1 is G u = 0
    m = rng.randint(1, max(1, n - 1))
    upper = Matrix.from_rows(
        spec,
        [[random_scalar(spec, rng) if c > r else 0 for c in range(n)] for r in range(n)],
    )
    head = [random_scalar(spec, rng) for _ in range(m)]
    head[-1] = spec.one
    yield "reaches_zero", upper, ColumnVector(spec, head + [0] * (n - m))
    if not spec.is_prime_field:
        big = ColumnVector(QQ, _large_denominators(n, rng).column(1).entries())
        yield "large_denominators", _large_denominators(n, rng), big


@pytest.mark.parametrize("spec", [QQ, GF2, prime_field(3), GF_BIG], ids=str)
def test_krylov_sequence_matches_matrix_chain(spec):
    rng = random.Random(109)
    seen = set()
    for n in range(1, 9):
        for name, g, u in _krylov_inputs(spec, n, rng):
            cs, ys = krylov_sequence(g, u, n)
            expected = matrix_krylov_chain(g, u, n)
            assert len(cs) == len(ys) == n, (name, n)
            for k, (c, y, vec) in enumerate(zip(cs, ys, expected)):
                assert from_integer_form(spec, c, y) == vec, (name, n, k)
                assert all(type(t) is int for t in y), (name, n, k)
                if spec.is_prime_field:
                    # residues: one % p per entry, and no scale
                    assert c == 1 and all(0 <= t < spec.modulus for t in y)
                else:
                    # primitive, and zero exactly when the scale is
                    assert math.gcd(*y) == (1 if any(y) else 0), (name, n, k)
                    assert (c == 0) == vec.is_zero(), (name, n, k)
            seen.add((name, expected[-1].is_zero()))
    assert ("reaches_zero", True) in seen and ("genuine", False) in seen


@pytest.mark.parametrize("spec", [QQ, GF5], ids=str)
def test_integer_form_round_trip(spec):
    rng = random.Random(113)
    for n in range(1, 6):
        values = [random_scalar(spec, rng).value for _ in range(n)]
        for entries in (values, [spec.zero_value] * n):
            c, y = integer_form(spec, entries)
            assert from_integer_form(spec, c, y)._data == tuple(entries)
    assert integer_form(QQ, [Fraction(2, 3), Fraction(-4, 9)]) == (Fraction(2, 9), [3, -2])

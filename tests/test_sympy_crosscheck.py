"""Cross-check of the product and elimination layers against sympy's DomainMatrix.

Everything is compared on seeded matrices over Q, GF(2), GF(3) and
GF(2^61 - 1), with at most 6 rows and columns unless said otherwise.

Products ``a @ b`` are compared with DomainMatrix products for dense factors
of every shape, n x 1 and 1 x n factors included, and for the factors the
product loop treats specially: a matrix unit E_ij on the left and on the
right, a zero matrix, and a factor with an all-zero row and column.

rref (matrix and pivot columns), rank, det, inverse (or SingularMatrix) and
the nullspace (as a span of the same dimension) are compared on square, wide
and tall matrices.  The matrix kinds cover regular and singular inputs, and
permuted triangular matrices force row swaps so that the sign of the
determinant is exercised.  Over the prime fields the elimination is also
compared on larger shapes, where its unreduced row updates pile up the most:
a dense 49 x 49 (the n^2 x n^2 shape ``validate`` ranks at n = 7) and
low-rank 24 x 24, 20 x 30 and 30 x 20 matrices.
"""

import random
from fractions import Fraction

import pytest

from matconj import (
    ColumnVector,
    Matrix,
    SingularMatrix,
    elementary_matrix,
    prime_field,
    rationals,
)

from helpers import random_dense, random_scalar

sympy_matrices = pytest.importorskip("sympy.polys.matrices")
sympy_domains = pytest.importorskip("sympy.polys.domains")
DomainMatrix = sympy_matrices.DomainMatrix
DMNonInvertibleMatrixError = pytest.importorskip(
    "sympy.polys.matrices.exceptions"
).DMNonInvertibleMatrixError

FIELDS = [rationals(), prime_field(2), prime_field(3), prime_field(2**61 - 1)]
KINDS = ("dense", "sparse", "low_rank", "permuted_triangular")
MAX_DIM = 6
# Larger prime-field shapes for the elimination, by kind.
LARGE_SHAPES = {"dense": ((49, 49),), "low_rank": ((24, 24), (20, 30), (30, 20))}


def _domain(spec):
    if spec.is_prime_field:
        return sympy_domains.GF(spec.modulus)
    return sympy_domains.QQ


def _to_sympy(m: Matrix) -> DomainMatrix:
    dom = _domain(m.spec)
    rows = []
    for i in range(1, m.rows + 1):
        row = []
        for j in range(1, m.cols + 1):
            v = m.entry(i, j).value
            row.append(dom(v) if m.spec.is_prime_field else dom(v.numerator, v.denominator))
        rows.append(row)
    return DomainMatrix(rows, (m.rows, m.cols), dom)


def _value(spec, x):
    """A sympy domain element as a matconj raw value."""
    if spec.is_prime_field:
        return int(x) % spec.modulus
    return Fraction(int(x.numerator), int(x.denominator))


def _from_sympy(spec, dm: DomainMatrix) -> Matrix:
    rows, cols = dm.shape
    return Matrix(spec, rows, cols, [_value(spec, x) for row in dm.to_list() for x in row])


def _sample(spec, kind, rows, cols, rng) -> Matrix:
    if kind == "dense":
        return random_dense(spec, rows, cols, rng)
    if kind == "sparse":
        m = random_dense(spec, rows, cols, rng)
        keep = [rng.random() < 0.4 for _ in range(rows * cols)]
        flat = [m.entry(k // cols + 1, k % cols + 1) if keep[k] else 0 for k in range(rows * cols)]
        return Matrix(spec, rows, cols, flat)
    if kind == "low_rank":
        inner = rng.randint(1, max(1, min(rows, cols) - 1))
        return random_dense(spec, rows, inner, rng) @ random_dense(spec, inner, cols, rng)
    # permuted_triangular: an upper triangular matrix with a nonzero diagonal,
    # its rows shuffled, so elimination must swap rows to find its pivots
    order = list(range(rows))
    rng.shuffle(order)
    flat = []
    for i in order:
        for j in range(cols):
            if j < i:
                flat.append(0)
            elif j == i:
                flat.append(spec.coerce(rng.randint(1, 4)) or 1)
            else:
                flat.append(random_scalar(spec, rng))
    return Matrix(spec, rows, cols, flat)


def _cases(spec, kind, seed):
    rng = random.Random(seed)
    for rows in range(1, MAX_DIM + 1):
        for cols in range(1, MAX_DIM + 1):
            for _ in range(2):
                yield _sample(spec, kind, rows, cols, rng)
    if spec.is_prime_field:
        for rows, cols in LARGE_SHAPES.get(kind, ()):
            yield _sample(spec, kind, rows, cols, rng)


def _span_rank(spec, vectors) -> int:
    dim = vectors[0].dim
    flat = [v.entry(i) for v in vectors for i in range(1, dim + 1)]
    return _to_sympy(Matrix(spec, len(vectors), dim, flat)).rank()


def _product_factors(spec, rng):
    """(a, b) factor pairs: dense ones of every shape, then the special factors
    at every square size, each on both sides of a dense matrix."""
    for rows in range(1, MAX_DIM + 1):
        for inner in range(1, MAX_DIM + 1):
            for cols in range(1, MAX_DIM + 1):
                left = random_dense(spec, rows, inner, rng)
                yield left, random_dense(spec, inner, cols, rng)
    for n in range(1, MAX_DIM + 1):
        dense = random_dense(spec, n, n, rng)
        i, j = rng.randint(1, n), rng.randint(1, n)
        holed = [
            [0 if r == i or c == j else dense.entry(r, c) for c in range(1, n + 1)]
            for r in range(1, n + 1)
        ]
        special = (
            elementary_matrix(spec, n, i, j),
            Matrix.zero(spec, n, n),
            Matrix.from_rows(spec, holed),
        )
        for factor in special:
            yield factor, dense
            yield dense, factor
        col, row = random_dense(spec, n, 1, rng), random_dense(spec, 1, n, rng)
        yield dense, col
        yield row, dense
        yield col, row
        yield row, col


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_product_matches_sympy(spec):
    rng = random.Random(2000 + FIELDS.index(spec))
    for a, b in _product_factors(spec, rng):
        assert a @ b == _from_sympy(spec, _to_sympy(a) * _to_sympy(b)), (a, b)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_elimination_matches_sympy(spec, kind):
    seed = 1000 * FIELDS.index(spec) + KINDS.index(kind)
    swaps_seen = 0
    for m in _cases(spec, kind, seed):
        dm = _to_sympy(m)
        ref_rref, ref_pivots = dm.rref()
        res = m.rref()
        assert res.matrix == _from_sympy(spec, ref_rref), m
        assert res.pivots == tuple(p + 1 for p in ref_pivots), m
        assert res.rank == m.rank() == dm.rank() == len(ref_pivots), m

        basis = m.nullspace_basis()
        ref_null = dm.nullspace().to_list()
        assert len(basis) == len(ref_null) == m.cols - res.rank, m
        if basis:
            assert _span_rank(spec, basis) == len(basis), m
            ref_basis = [ColumnVector(spec, [_value(spec, x) for x in r]) for r in ref_null]
            assert all((m @ v).is_zero() for v in basis), m
            assert _span_rank(spec, basis + ref_basis) == len(basis), m

        if not m.is_square:
            continue
        if m.entry(1, 1).is_zero() and res.rank == m.rows:
            swaps_seen += 1
        assert m.det() == spec.element(_value(spec, dm.det())), m
        try:
            ref_inv = dm.inv()
        except DMNonInvertibleMatrixError:
            with pytest.raises(SingularMatrix):
                m.inverse()
        else:
            assert m.inverse() == _from_sympy(spec, ref_inv), m
    if kind == "permuted_triangular":
        assert swaps_seen > 0

"""Independent reference implementations used to cross-check the fast paths.

These deliberately avoid Matrix's elimination and product kernels: products go
through FieldElement dunders entry by entry, and determinants come from the
Leibniz permutation sum.  They share only the scalar arithmetic, which has its
own axiomatic tests.
"""

from fractions import Fraction
from itertools import permutations

from matconj import FieldSpec, Matrix


def naive_mul(a: Matrix, b: Matrix) -> Matrix:
    assert a.cols == b.rows
    rows = []
    for i in range(1, a.rows + 1):
        row = []
        for j in range(1, b.cols + 1):
            acc = a.spec.zero
            for k in range(1, a.cols + 1):
                acc = acc + a.entry(i, k) * b.entry(k, j)
            row.append(acc)
        rows.append(row)
    return Matrix.from_rows(a.spec, rows)


def leibniz_det(m: Matrix):
    """Permutation-sum determinant; only sensible for small n."""
    assert m.is_square
    n = m.rows
    total = m.spec.zero
    for perm in permutations(range(1, n + 1)):
        term = m.spec.one
        for i, j in enumerate(perm, start=1):
            term = term * m.entry(i, j)
        inversions = sum(
            1
            for x in range(n)
            for y in range(x + 1, n)
            if perm[x] > perm[y]
        )
        if inversions % 2:
            term = -term
        total = total + term
    return total


def full_multiplicativity(images, n: int) -> bool:
    """Whether phi(E_ij) phi(E_kl) = delta_jk phi(E_il) for all n^4 basis pairs.

    ``images`` maps 1-based (i, j) to phi(E_ij).  This is the exhaustive check
    that ``AutomorphismOracle.validate`` reduces to 2n^2 generator products.
    """
    zero = Matrix.zero(images[(1, 1)].spec, n, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    expected = images[(i, l)] if j == k else zero
                    if naive_mul(images[(i, j)], images[(k, l)]) != expected:
                        return False
    return True


def random_scalar(spec: FieldSpec, rng, bound: int = 5):
    if spec.is_prime_field:
        return spec.element(rng.randrange(spec.modulus))
    return spec.element(Fraction(rng.randint(-bound, bound), rng.randint(1, bound)))


def random_dense(spec: FieldSpec, rows: int, cols: int, rng, bound: int = 5) -> Matrix:
    return Matrix.from_rows(
        spec,
        [[random_scalar(spec, rng, bound) for _ in range(cols)] for _ in range(rows)],
    )

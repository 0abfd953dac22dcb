"""Independent reference implementations used to cross-check the fast paths.

These deliberately avoid Matrix's elimination and product kernels: products go
through FieldElement dunders entry by entry, and determinants come from the
Leibniz permutation sum or from fraction-free (Bareiss) integer elimination.
They share only the scalar arithmetic, which has its own axiomatic tests.
"""

from fractions import Fraction
from itertools import permutations
from math import gcd

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


def det_bareiss(m: Matrix):
    """Fraction-free (Bareiss) determinant over the rationals.

    A cross-check for :meth:`Matrix.det`: rows are scaled to integers,
    eliminated with exact integer division only, and the scaling is divided
    back out at the end.  Intermediate entries stay integral, which bounds
    coefficient growth; the division-based path and this one must always
    agree.
    """
    if m.spec.is_prime_field:
        raise ValueError("Bareiss path is the rational cross-check only")
    assert m.is_square
    n = m.rows
    rows = []
    scale = 1
    for i in range(1, n + 1):
        row = [m.entry(i, j).value for j in range(1, n + 1)]
        d = 1
        for v in row:
            d = d * v.denominator // gcd(d, v.denominator)
        scale *= d
        rows.append([int(v * d) for v in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return m.spec.element(Fraction(0))
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * pivot - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = pivot
    return m.spec.element(Fraction(sign * rows[n - 1][n - 1], scale))


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

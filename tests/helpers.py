"""Independent reference implementations used to cross-check the fast paths.

These deliberately avoid Matrix's elimination and product kernels: products go
through FieldElement dunders entry by entry, and determinants come from the
Leibniz permutation sum or from fraction-free (Bareiss) integer elimination.
They share only the scalar arithmetic, which has its own axiomatic tests.
"""

from fractions import Fraction
from itertools import permutations
from math import gcd

from matconj import (
    EmptyKernel,
    FieldSpec,
    Matrix,
    StructureCheckReport,
    elementary_matrix,
    shift_matrix,
)


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


def vectorized_rank_bijective(images, n: int) -> bool:
    """Whether the n^2 x n^2 matrix of the vectorized images has full rank.

    The reference for ``AutomorphismOracle.validate``'s bijectivity flag,
    which reads it off phi(I) != 0 when the map is multiplicative.  Row
    (i, j) holds phi(E_ij) entry by entry, and Gaussian elimination runs on
    FieldElement arithmetic, not on ``Matrix.rank``.
    """
    rows = [
        [images[(i, j)].entry(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ]
    size = n * n
    for col in range(size):
        pivot = next((r for r in range(col, size) if not rows[r][col].is_zero()), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col].inv()
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if not factor.is_zero():
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return True


def chain_projector(h: Matrix, g: Matrix, n: int) -> Matrix:
    """G^(n-1) H as the chain of n-1 dense products, whatever H's rank.

    The reference for ``projected_idempotent``, which forms G^(n-1) by
    repeated squaring and then one product with H.
    """
    result = h
    for _ in range(n - 1):
        result = naive_mul(g, result)
    return result


def matrix_krylov_chain(g: Matrix, u, count: int) -> list:
    """u, G u, ..., G^(count-1) u as a chain of ``Matrix.__matmul__`` mat-vecs.

    The reference for ``krylov_sequence``, which runs the chain on integer
    lists: primitive integers times one Fraction over Q, residues over GF(p).
    """
    chain = [u]
    for _ in range(count - 1):
        chain.append(g @ chain[-1])
    return chain


def rref_kernel_vector(p: Matrix):
    """The first vector of the nullspace basis of I - P, whatever P's rank.

    The reference for the kernel vector of ``build_conjugator``, which reads
    it off w = G^(n-1) u when H = u v^T has rank 1.  Raises EmptyKernel, with
    the message ``kernel_vector`` uses, when I - P is injective.
    """
    basis = (Matrix.identity(p.spec, p.rows) - p).nullspace_basis()
    if not basis:
        raise EmptyKernel("identity minus projector is injective")
    return basis[0]


def column_loop_conjugator(h: Matrix, g: Matrix, a) -> Matrix:
    """[G^(n-1)Ha | ... | GHa | Ha] from Ha and n-1 mat-vecs by G.

    The reference for the columns of ``build_conjugator``, which scales the
    Krylov vectors G^(n-i) u by v^T a when H = u v^T has rank 1.
    """
    columns = [h @ a]
    for _ in range(h.rows - 1):
        columns.append(g @ columns[-1])
    return Matrix.from_columns(columns[::-1])


def matrix_structure_identities(h: Matrix, g: Matrix, witness) -> StructureCheckReport:
    """Every flag of ``check_structure_identities`` from its matrix form.

    The reference for the scalar readings off v^T G^k u: G^n, the chain
    H G^k H for 0 <= k <= n-2, P P and the rank of I - P for the P of
    ``chain_projector``, and both intertwines for the witness's A, are
    evaluated whatever the rank of H, with products through ``naive_mul``.
    """
    a = witness.conjugator
    n, spec = a.rows, h.spec
    zero = Matrix.zero(spec, n, n)
    power = Matrix.identity(spec, n)
    for _ in range(n):
        power = naive_mul(power, g)
    corner_chain_ok = True
    left = h
    for _ in range(n - 1):
        if naive_mul(left, h) != zero:
            corner_chain_ok = False
            break
        left = naive_mul(left, g)
    p = chain_projector(h, g, n)
    flags = dict(
        shift_nilpotent_ok=power == zero,
        corner_chain_ok=corner_chain_ok,
        idempotent_ok=naive_mul(p, p) == p,
        kernel_rank_ok=(Matrix.identity(spec, n) - p).rank() == n - 1,
        intertwine_E_ok=naive_mul(a, elementary_matrix(spec, n, n, 1)) == naive_mul(h, a),
        intertwine_S_ok=naive_mul(a, shift_matrix(spec, n)) == naive_mul(g, a),
    )
    named = (
        ("nilpotent", flags["shift_nilpotent_ok"] and corner_chain_ok),
        ("idempotent", flags["idempotent_ok"]),
        ("kernel_rank", flags["kernel_rank_ok"]),
        ("intertwine_E", flags["intertwine_E_ok"]),
        ("intertwine_S", flags["intertwine_S_ok"]),
    )
    return StructureCheckReport(
        **flags, first_failing=next((name for name, ok in named if not ok), None)
    )


def random_scalar(spec: FieldSpec, rng, bound: int = 5):
    if spec.is_prime_field:
        return spec.element(rng.randrange(spec.modulus))
    return spec.element(Fraction(rng.randint(-bound, bound), rng.randint(1, bound)))


def random_dense(spec: FieldSpec, rows: int, cols: int, rng, bound: int = 5) -> Matrix:
    return Matrix.from_rows(
        spec,
        [[random_scalar(spec, rng, bound) for _ in range(cols)] for _ in range(rows)],
    )

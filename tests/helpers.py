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
    AutomorphismOracle,
    EmptyKernel,
    FieldSpec,
    Matrix,
    StructureCheckReport,
    elementary_matrix,
    outer_product,
    shift_matrix,
)
from matconj.cli import field_descriptor, matrix_to_json


def naive_mul(a: Matrix, b: Matrix) -> Matrix:
    assert a.cols == b.rows
    rows = []
    for i in range(1, a.rows + 1):
        row = []
        for j in range(1, b.cols + 1):
            acc = a.spec.element(0)
            for k in range(1, a.cols + 1):
                acc = acc + a.entry(i, k) * b.entry(k, j)
            row.append(acc)
        rows.append(row)
    return Matrix.from_rows(a.spec, rows)


def leibniz_det(m: Matrix):
    """Permutation-sum determinant; only sensible for small n."""
    assert m.is_square
    n = m.rows
    total = m.spec.element(0)
    for perm in permutations(range(1, n + 1)):
        term = m.spec.element(1)
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


def matrix_structure_identities(h: Matrix, g: Matrix, a: Matrix):
    """Every flag of ``check_structure_identities`` from its matrix form, and
    the name of the first failing identity, computed here from the flags.

    The reference for the scalar readings off v^T G^k u: G^n, the chain
    H G^k H for 0 <= k <= n-2, P P and the rank of I - P for the P of
    ``chain_projector``, and both intertwines for A, are
    evaluated whatever the rank of H, with products through ``naive_mul``.
    Returns (report, first_failing).
    """
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
    first_failing = next((name for name, ok in named if not ok), None)
    return StructureCheckReport(**flags), first_failing


def intertwiner_equations(h: Matrix, g: Matrix) -> list:
    """The 2n^2 x n^2 system X E_{n,1} - H X = 0, X S - G X = 0 in the
    entries of X (row-major), as rows of raw field values."""
    spec, n = h.spec, h.rows
    equations = []
    for unit, image in ((elementary_matrix(spec, n, n, 1), h), (shift_matrix(spec, n), g)):
        for r in range(n):
            for c in range(n):
                row = [spec.zero_value] * (n * n)  # (X unit - image X)[r, c]
                for k in range(n):
                    row[r * n + k] += unit._data[k * n + c]
                    row[k * n + c] -= image._data[r * n + k]
                equations.append(row)
    return equations


def intertwiner_reference(h: Matrix, g: Matrix):
    """The solutions X of X E_{n,1} = H X and X S = G X, by sympy's exact
    nullspace, and whether (H, G) comes from an automorphism.

    It does iff the solutions are the multiples of one invertible X.  Given
    a conjugator A, A^-1 X commutes with E_{n,1} and S, which generate
    M_n(K), so it is a scalar (the uniqueness half of Skolem-Noether); and an
    invertible solution X conjugates the generators to (H, G).  The system
    of :func:`intertwiner_equations` is solved by sympy's DomainMatrix: no P,
    no Krylov vector, no table and no elimination of the package.  Returns
    (basis, genuine): the nullspace basis as matrices, and whether it is one
    invertible matrix.
    """
    from sympy.polys.domains import GF, QQ
    from sympy.polys.matrices import DomainMatrix

    spec, n = h.spec, h.rows
    p = spec.modulus
    dom = GF(p) if p else QQ

    def to_dom(x):
        return dom(x) if p else dom(x.numerator, x.denominator)

    def from_dom(x):
        return int(x) % p if p else Fraction(int(x.numerator), int(x.denominator))

    equations = [[to_dom(x) for x in row] for row in intertwiner_equations(h, g)]
    kernel = DomainMatrix(equations, (2 * n * n, n * n), dom).nullspace().to_list()
    basis = [Matrix(spec, n, n, [from_dom(x) for x in vec]) for vec in kernel]
    genuine = len(kernel) == 1 and DomainMatrix(
        [kernel[0][r * n : (r + 1) * n] for r in range(n)], (n, n), dom
    ).rank() == n
    return basis, genuine


def pair_table(h: Matrix, g: Matrix) -> dict:
    """{(i, j): G^(n-i) H G^(j-1)}, the table a generator pair (H, G) spans.

    E_ij = S^(n-i) E_n1 S^(j-1), so this is the only table of a
    multiplicative map that sends E_n1 to H and S to G; it is an
    automorphism's table only if (H, G) came from one.  The package never
    tabulates a pair, so tests expand one here, from the formula.
    """
    n = h.rows
    powers = [Matrix.identity(h.spec, n)]  # powers[k] = G^k
    for _ in range(n - 1):
        powers.append(powers[-1] @ g)
    lefts = {i: powers[n - i] @ h for i in range(1, n + 1)}  # G^(n-i) H
    return {(i, j): lefts[i] @ powers[j - 1] for i in lefts for j in range(1, n + 1)}


def tail_perturbed_pair(b: Matrix, w) -> tuple[Matrix, Matrix]:
    """The generator pair of conjugation by B, with G replaced by
    G' = G + w z^T for z^T the first row of B^-1 and a nonzero vector w.

    H = u v^T with u a multiple of B e_n, and G^k u of B e_(n-k), so
    z^T G^k u = 0 for k < n-1: G' keeps the Krylov vectors u, ..., G^(n-1) u
    and every scalar v^T G^k u, and the pair builds the same A as (H, G).
    But G'^n u = (z^T G^(n-1) u) w != 0, so A S != G' A: no automorphism
    has this pair.
    """
    h, g = AutomorphismOracle.conjugation_by(b).query_generators()
    return h, g + outer_product(w, b.inverse().row_vector(1))


def problem_json(oracle) -> dict:
    """The problem file an oracle parses from, read off its backing.

    The inverse of ``cli.problem_from_json``: a conjugation oracle writes
    its B, a table oracle its n x n array of images, and a generator-pair
    oracle its H and G.
    """
    out = {"field": field_descriptor(oracle.spec), "n": oracle.n}
    backing, units = oracle.backing, range(1, oracle.n + 1)
    if backing.kind == "conjugation":
        out["conjugator"] = matrix_to_json(backing.conjugator)
    elif backing.kind == "generator_pair":
        out["generator_pair"] = {
            "H": matrix_to_json(backing.corner_image),
            "G": matrix_to_json(backing.shift_image),
        }
    else:
        images = backing.images()
        out["full_table"] = [[matrix_to_json(images[(i, j)]) for j in units] for i in units]
    return out


def random_scalar(spec: FieldSpec, rng, bound: int = 5):
    if spec.is_prime_field:
        return spec.element(rng.randrange(spec.modulus))
    return spec.element(Fraction(rng.randint(-bound, bound), rng.randint(1, bound)))


def random_dense(spec: FieldSpec, rows: int, cols: int, rng, bound: int = 5) -> Matrix:
    return Matrix.from_rows(
        spec,
        [[random_scalar(spec, rng, bound) for _ in range(cols)] for _ in range(rows)],
    )

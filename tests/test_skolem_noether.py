"""The recovery construction itself: projector, kernel, conjugator, checks."""

import dataclasses
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import matconj.skolem_noether as sn
from helpers import (
    chain_projector,
    column_loop_conjugator,
    matrix_structure_identities,
    pair_table,
    random_dense,
    random_scalar,
    rref_kernel_vector,
    tail_perturbed_pair,
)
from matconj import (
    AutomorphismOracle,
    ColumnVector,
    ConjugationWitness,
    DimensionMismatch,
    EmptyKernel,
    FieldMismatch,
    Matrix,
    Outcome,
    RecoveryReport,
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
FIELDS = [QQ, prime_field(2), prime_field(3), prime_field(2**61 - 1)]


def identity_generators(n, spec=QQ):
    return elementary_matrix(spec, n, n, 1), shift_matrix(spec, n)


# -- projected_idempotent ----------------------------------------------------


def test_projector_identity_map():
    h, g = identity_generators(2)
    assert projected_idempotent(h, g) == elementary_matrix(QQ, 2, 1, 1)


def test_projector_diag_conjugation():
    # H = 3 E_{3,1}, G = (1/2)E_{1,2} + (2/3)E_{2,3}: the images under
    # conjugation by diag(1,2,3); G^2 H collapses back to E_{1,1}.
    h = elementary_matrix(QQ, 3, 3, 1).scale(3)
    g = Matrix.from_rows(QQ, [[0, Fraction(1, 2), 0], [0, 0, Fraction(2, 3)], [0, 0, 0]])
    assert projected_idempotent(h, g) == elementary_matrix(QQ, 3, 1, 1)


def test_projector_n1_is_h():
    h = Matrix.from_rows(QQ, [[1]])
    g = Matrix.zero(QQ, 1, 1)
    assert projected_idempotent(h, g) == h


def _nonzero_vector(spec, n, rng, zero_head=0, zero_tail=0):
    """A random nonzero vector whose first ``zero_head`` and last
    ``zero_tail`` coordinates are 0."""
    while True:
        body = [random_scalar(spec, rng) for _ in range(n - zero_head - zero_tail)]
        vec = ColumnVector(spec, [spec.zero] * zero_head + body + [spec.zero] * zero_tail)
        if not vec.is_zero():
            return vec


def _strictly_upper(spec, n, rng):
    return Matrix.from_rows(
        spec,
        [[random_scalar(spec, rng) if j > i else 0 for j in range(n)] for i in range(n)],
    )


def _projector_cases(spec, n, rng):
    """(name, H, G, H has rank 1) for each kind of input."""
    b = random_invertible(spec, n, rng, 4)
    h, g = AutomorphismOracle.conjugation_by(b).query_generators()
    yield "genuine", h, g, True
    yield "zero", Matrix.zero(spec, n, n), random_dense(spec, n, n, rng), False
    if n == 1:
        return
    # first nonzero entry of H off row 1 and column 1
    u = _nonzero_vector(spec, n, rng, zero_head=1)
    v = _nonzero_vector(spec, n, rng, zero_head=1)
    yield "rank1_inner", outer_product(u, v), random_dense(spec, n, n, rng), True
    # G strictly upper triangular and u_n = 0, so G^(n-1) u = 0 and P = 0
    g = _strictly_upper(spec, n, rng)
    u = _nonzero_vector(spec, n, rng, zero_tail=1)
    v = _nonzero_vector(spec, n, rng)
    yield "rank1_vanishing", outer_product(u, v), g, True
    # v^T G^(n-1) u != 1: I - P is injective
    for _ in range(100):
        h = outer_product(_nonzero_vector(spec, n, rng), _nonzero_vector(spec, n, rng))
        g = random_dense(spec, n, n, rng)
        if (Matrix.identity(spec, n) - chain_projector(h, g, n)).rank() == n:
            yield "rank1_injective", h, g, True
            break
    else:
        raise AssertionError("no rank-1 H with v^T G^(n-1) u != 1 drawn")
    while True:
        h = random_dense(spec, n, n, rng)
        if h.rank() >= 2:
            yield "rank_ge_2", h, random_dense(spec, n, n, rng), False
            break


def _squaring_products(n):
    """Dense products in G^(n-1) by repeated squaring from the power of the
    lowest set bit of n-1 (none for n <= 2), then one with H."""
    k = n - 1
    return max(bin(k).count("1") + k.bit_length() - 1, 1)


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_projector_matches_chain_reference(spec, monkeypatch):
    rng = random.Random(79)
    factored, products, sequences = [], [], []
    rank_one_factors, matmul = sn._rank_one_factors, Matrix.__matmul__
    sequence = sn.krylov_sequence

    def spied_factors(h):
        factored.append(h)
        return rank_one_factors(h)

    def counted_matmul(left, right):
        products.append(isinstance(right, ColumnVector))
        return matmul(left, right)

    def counted_sequence(g, u, count):
        sequences.append(count)
        return sequence(g, u, count)

    monkeypatch.setattr(sn, "_rank_one_factors", spied_factors)
    monkeypatch.setattr(sn, "krylov_sequence", counted_sequence)
    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    seen = set()
    for n in range(1, 7):
        for name, h, g, rank_one in _projector_cases(spec, n, rng):
            factored.clear()
            products.clear()
            sequences.clear()
            projector = projected_idempotent(h, g)
            # whatever the rank of H: no factoring and no Krylov sequence,
            # only G^(n-1) by repeated squaring and one product with H
            assert factored == [] and sequences == [], (name, n)
            assert products == [False] * _squaring_products(n), (name, n)
            assert projector == chain_projector(h, g, n), (name, n)
            seen.add(rank_one)
            if name in ("rank1_vanishing", "zero"):
                assert projector.is_zero()
            if name == "rank1_injective":
                with pytest.raises(EmptyKernel):
                    kernel_vector(chain_projector(h, g, n))
                with pytest.raises(EmptyKernel):
                    build_conjugator(h, g)
    assert seen == {True, False}


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


def test_kernel_vector_refuses_a_non_square_projector():
    with pytest.raises(DimensionMismatch, match="projector must be square"):
        kernel_vector(Matrix.zero(QQ, 2, 3))


def _outcome(fn, *args):
    """fn(*args), or the type and message of the construction failure."""
    try:
        return fn(*args)
    except (EmptyKernel, SingularConjugator) as exc:
        return type(exc), str(exc)


def _rank_one_with_trace(spec, n, rng, trace, zero_head=0):
    """A rank-1 P = u v^T with tr P = v^T u = ``trace``; u and v start with
    ``zero_head`` zeros.  A zero trace needs two free coordinates."""
    while True:
        u = _nonzero_vector(spec, n, rng, zero_head=zero_head)
        v = _nonzero_vector(spec, n, rng, zero_head=zero_head)
        t = (v.transpose() @ u).entry(1, 1)
        if trace.is_zero():
            # move v off u at u's first nonzero coordinate k
            k = u.first_nonzero_index()
            v = v - ColumnVector.standard_basis(spec, n, k).scale(t / u.entry(k))
            if not v.is_zero():
                return outer_product(u, v)
        elif not t.is_zero():
            return outer_product(u.scale(trace / t), v)


def _other_trace(spec, rng):
    while True:
        t = random_scalar(spec, rng)
        if not (t.is_zero() or t.is_one()):
            return t


def _rank_ge_2_projector(spec, n, rng, singular):
    """P = I - M of rank >= 2, M singular (I - P has a kernel) or not."""
    identity = Matrix.identity(spec, n)
    while True:
        m = random_dense(spec, n, n, rng)
        if singular:
            # the last column of M is a multiple of the first
            x = random_scalar(spec, rng)
            cols = [m.column(j) for j in range(1, n)]
            m = Matrix.from_columns(cols + [cols[0].scale(x)])
        p = identity - m
        if p.rank() >= 2 and (m.rank() < n) == singular:
            return p


def _kernel_cases(spec, n, rng):
    """(name, P) for each kind of kernel_vector input."""
    yield "zero", Matrix.zero(spec, n, n)
    yield "trace_one", _rank_one_with_trace(spec, n, rng, spec.one)
    if spec.modulus != 2:
        yield "trace_other", _rank_one_with_trace(spec, n, rng, _other_trace(spec, rng))
    if n == 1:
        return
    yield "trace_zero", _rank_one_with_trace(spec, n, rng, spec.zero)
    # first nonzero entry of P off row 1 and column 1
    head = rng.randint(1, n - 1)
    yield "inner_one", _rank_one_with_trace(spec, n, rng, spec.one, zero_head=head)
    if spec.modulus != 2:
        other = _other_trace(spec, rng)
        yield "inner_other", _rank_one_with_trace(spec, n, rng, other, zero_head=head)
    yield "rank_ge_2_kernel", _rank_ge_2_projector(spec, n, rng, singular=True)
    yield "rank_ge_2_injective", _rank_ge_2_projector(spec, n, rng, singular=False)
    if n >= 3:
        # an idempotent of rank 2: I - P has a kernel of dimension 2
        yield "rank_2_idempotent", elementary_matrix(spec, n, 1, 1) + elementary_matrix(
            spec, n, n, n
        )


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_kernel_vector_matches_rref_reference(spec, monkeypatch):
    rng = random.Random(101)
    eliminate = Matrix._eliminate
    eliminations = []

    def counted_eliminate(self, reduced):
        eliminations.append(reduced)
        return eliminate(self, reduced)

    paths = set()
    for n in range(1, 7):
        for name, p in _kernel_cases(spec, n, rng):
            expected = _outcome(rref_kernel_vector, p)
            with monkeypatch.context() as patch:
                patch.setattr(Matrix, "_eliminate", counted_eliminate)
                eliminations.clear()
                got = _outcome(kernel_vector, p)
            assert got == expected, (name, n)
            # every P, whatever its rank, takes the rref of I - P
            assert eliminations, (name, n)
            paths.add((p.rank() <= 1, isinstance(got, ColumnVector)))
    assert paths == {(read, found) for read in (True, False) for found in (True, False)}


# -- build_conjugator --------------------------------------------------------


def test_build_identity_map():
    # a = e_1, Ha = e_2, GHa = e_1, so A = [e_1 | e_2] = I
    h, g = identity_generators(2)
    witness = build_conjugator(h, g)
    assert witness.conjugator == Matrix.identity(QQ, 2)
    assert witness.kernel_vector == ColumnVector.standard_basis(QQ, 2, 1)


def test_build_swap_conjugation():
    # conjugation by the swap matrix: H = E_{1,2}, G = E_{2,1};
    # a = e_2, Ha = e_1, GHa = e_2, so A = [e_2 | e_1] = the swap itself
    h = elementary_matrix(QQ, 2, 1, 2)
    g = elementary_matrix(QQ, 2, 2, 1)
    witness = build_conjugator(h, g)
    swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert witness.conjugator == swap
    assert witness.kernel_vector == ColumnVector.standard_basis(QQ, 2, 2)


def test_build_diag_conjugation():
    # a = e_1, Ha = 3e_3, GHa = 2e_2, G^2Ha = e_1: A = diag(1,2,3) exactly
    b = Matrix.from_rows(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    h, g = AutomorphismOracle.conjugation_by(b).query_generators()
    witness = build_conjugator(h, g)
    assert witness.conjugator == b
    assert witness.conjugator @ witness.conjugator_inv == Matrix.identity(QQ, 3)


def test_build_empty_kernel():
    # H = E_{1,1}, G = 0 gives projector 0, and I - 0 is injective
    with pytest.raises(EmptyKernel):
        build_conjugator(elementary_matrix(QQ, 2, 1, 1), Matrix.zero(QQ, 2, 2))


def test_build_singular_conjugator():
    # H = G = E_{1,1}: a = e_1, both columns come out equal to e_1
    e11 = elementary_matrix(QQ, 2, 1, 1)
    with pytest.raises(SingularConjugator):
        build_conjugator(e11, e11)


def test_build_n1():
    witness = build_conjugator(Matrix.from_rows(QQ, [[1]]), Matrix.zero(QQ, 1, 1))
    assert witness.conjugator == Matrix.identity(QQ, 1)


def test_pair_refusals_of_build_projector_and_report():
    # every entry point that takes (H, G) reads n off H and refuses a pair
    # over two fields, a non-square H or a G of another size before any
    # arithmetic; the report refuses an A that is not n x n
    h, g = elementary_matrix(QQ, 2, 2, 1), shift_matrix(QQ, 2)
    a_mat = build_conjugator(h, g).conjugator
    g7 = shift_matrix(prime_field(7), 2)
    wide = Matrix.zero(QQ, 2, 3)
    unequal = "generator images must be square and equal-sized"
    for fn in (build_conjugator, projected_idempotent, check_structure_identities):
        args = (a_mat,) if fn is check_structure_identities else ()
        with pytest.raises(FieldMismatch, match="generator images over different fields"):
            fn(h, g7, *args)
        for pair in ((wide, g), (h, shift_matrix(QQ, 3)), (h, wide)):
            with pytest.raises(DimensionMismatch, match=unequal):
                fn(*pair, *args)
    one = Matrix.identity(QQ, 1)
    with pytest.raises(DimensionMismatch, match="inner dimensions 2 vs 1"):
        check_structure_identities(h, g, one)


_NOT_RANK_ONE = "corner image is not of rank 1"


def _reference_build(h, g, n):
    """(a, A, A^-1) from the dense chain, the rref of I - P and the column
    loop, or the type and message of the failure build_conjugator raises.
    An H of rank >= 2 is refused before any of them; a zero H reaches the
    rref of I - 0 = I, which is injective."""
    if h.rank() >= 2:
        return EmptyKernel, _NOT_RANK_ONE
    try:
        a = rref_kernel_vector(chain_projector(h, g, n))
    except EmptyKernel as exc:
        return type(exc), str(exc)
    a_mat = column_loop_conjugator(h, g, a)
    try:
        return a, a_mat, a_mat.inverse()
    except SingularMatrix:
        return SingularConjugator, "assembled candidate conjugator is singular"


def _built(h, g, n):
    witness = build_conjugator(h, g)
    assert (witness.conjugator.rows, witness.conjugator.spec) == (n, h.spec)
    return witness.kernel_vector, witness.conjugator, witness.conjugator_inv


def _eigen_rank_one(spec, n, rng):
    """H = u v^T with G u = x u for a random x != 0, scaled so that
    v^T G^(n-1) u = 1: the kernel is span(u), and every column of A is a
    multiple of u, so A is singular for n >= 2."""
    while True:
        u = _nonzero_vector(spec, n, rng)
        v = _nonzero_vector(spec, n, rng)
        r = random_dense(spec, n, n, rng)
        x = _nonzero_scalar(spec, rng)
        k = u.first_nonzero_index()
        y = ColumnVector.standard_basis(spec, n, k).scale(u.entry(k).inv())
        g = r - outer_product(r @ u - u.scale(x), y)
        t = (v.transpose() @ g.power(n - 1) @ u).entry(1, 1)
        if not t.is_zero():
            return outer_product(u.scale(t.inv()), v), g


def _build_cases(spec, n, rng):
    """(name, H, G) for each kind of build_conjugator input."""
    b = random_invertible(spec, n, rng, 4)
    yield "genuine", *AutomorphismOracle.conjugation_by(b).query_generators()
    yield "rank1_builds", *_scaled_rank_one(spec, n, rng)[:2]
    for _ in range(3):
        h = outer_product(_nonzero_vector(spec, n, rng), _nonzero_vector(spec, n, rng))
        yield "rank1_random", h, random_dense(spec, n, n, rng)
    yield "zero_h", Matrix.zero(spec, n, n), random_dense(spec, n, n, rng)
    yield "random", random_dense(spec, n, n, rng), random_dense(spec, n, n, rng)
    if n == 1:
        return
    yield "rank1_inner", *_scaled_rank_one(spec, n, rng, zero_head=1)[:2]
    yield "rank1_singular", *_eigen_rank_one(spec, n, rng)
    g = _strictly_upper(spec, n, rng)
    u = _nonzero_vector(spec, n, rng, zero_tail=1)
    yield "rank1_vanishing", outer_product(u, _nonzero_vector(spec, n, rng)), g


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_build_matches_column_loop_reference(spec, monkeypatch):
    rng = random.Random(103)
    krylov_paths = []
    monkeypatch.setattr(sn, "_krylov", _spied_krylov(krylov_paths))
    outcomes = set()
    for n in range(1, 7):
        for name, h, g in _build_cases(spec, n, rng):
            krylov_paths.clear()
            got = _outcome(_built, h, g, n)
            assert got == _reference_build(h, g, n), (name, n)
            # the Krylov columns run exactly when H has rank 1; any other H
            # is refused by the one reading of the corner
            rank_one = h.rank() == 1
            assert krylov_paths == [rank_one], (name, n)
            kind = got[0] if isinstance(got[0], type) else "built"
            outcomes.add((rank_one, kind))
            if name in ("genuine", "rank1_builds", "rank1_inner"):
                assert kind == "built", (name, n)
            if name == "rank1_singular":
                assert got[0] is SingularConjugator, n
    assert outcomes == {
        (True, "built"),
        (True, EmptyKernel),
        (True, SingularConjugator),
        (False, EmptyKernel),
    }


def _spied_krylov(paths):
    """sn._krylov, appending to ``paths`` whether it read the corner (True)
    or refused it (False)."""
    krylov = sn._krylov

    def spied(h, g):
        try:
            result = krylov(h, g)
        except EmptyKernel:
            paths.append(False)
            raise
        paths.append(True)
        return result

    return spied


def test_rank_one_build_runs_one_elimination_and_n_matvecs(monkeypatch):
    # H is factored once, the n Krylov vectors are one integer sequence of
    # n-1 mat-vecs, v^T w is a dot product, w gives a without an
    # elimination, and A^-1 is the one elimination; no Matrix product at all
    rng = random.Random(107)
    eliminate, matmul = Matrix._eliminate, Matrix.__matmul__
    rank_one_factors, sequence = sn._rank_one_factors, sn.krylov_sequence
    calls = {"eliminate": 0, "matmul": 0, "factors": 0, "krylov_vectors": 0}

    def counted_eliminate(self, reduced):
        calls["eliminate"] += 1
        return eliminate(self, reduced)

    def counted_matmul(left, right):
        calls["matmul"] += 1
        return matmul(left, right)

    def counted_factors(m):
        calls["factors"] += 1
        return rank_one_factors(m)

    def counted_sequence(g, u, count):
        calls["krylov_vectors"] += count
        return sequence(g, u, count)

    for spec, n in itertools.product((QQ, prime_field(2**61 - 1)), (8, 16)):
        b = random_invertible(spec, n, rng, 4)
        h, g = AutomorphismOracle.conjugation_by(b).query_generators()
        with monkeypatch.context() as patch:
            patch.setattr(Matrix, "_eliminate", counted_eliminate)
            patch.setattr(Matrix, "__matmul__", counted_matmul)
            patch.setattr(sn, "_rank_one_factors", counted_factors)
            patch.setattr(sn, "krylov_sequence", counted_sequence)
            calls.update(eliminate=0, matmul=0, factors=0, krylov_vectors=0)
            witness = build_conjugator(h, g)
            assert calls == dict(eliminate=1, matmul=0, factors=1, krylov_vectors=n)
        # the rref of I - P agrees with the reading off w
        projector = projected_idempotent(h, g)
        assert kernel_vector(projector) == witness.kernel_vector
        with pytest.raises(EmptyKernel):
            kernel_vector(projector.scale(2))
        with pytest.raises(EmptyKernel):
            kernel_vector(Matrix.zero(spec, n, n))
        assert scalar_relation(witness.conjugator, b) is not None


# -- check_structure_identities ---------------------------------------------


def test_structure_checks_pass_for_genuine_maps():
    rng = random.Random(41)
    for spec in (QQ, prime_field(7)):
        for n in range(1, 6):
            b = random_invertible(spec, n, rng, 4)
            h, g = AutomorphismOracle.conjugation_by(b).query_generators()
            a_mat = build_conjugator(h, g).conjugator
            report = check_structure_identities(h, g, a_mat)
            assert report.all_ok, report.first_failing


def test_structure_checks_forced_non_automorphism():
    # H = E_{1,1}, G = 0 never builds (empty kernel); force an A with
    # a = e_1 anyway and record which identities survive.  Observed flags:
    # the chain H G^0 H = H^2 = E_{1,1} != 0, the projector G H = 0 is
    # trivially idempotent, I - 0 has full rank, A = [GHa | Ha] = [0 | e_1]
    # breaks the corner intertwine but 0 = 0 keeps the shift one.
    h = elementary_matrix(QQ, 2, 1, 1)
    g = Matrix.zero(QQ, 2, 2)
    a = ColumnVector.standard_basis(QQ, 2, 1)
    ha = h @ a
    forced = Matrix.from_columns([g @ ha, ha])
    report = check_structure_identities(h, g, forced)
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
    report = check_structure_identities(h, g, build_conjugator(h, g).conjugator)
    assert report.all_ok
    assert report.first_failing is None


def _nonzero_scalar(spec, rng):
    while True:
        x = random_scalar(spec, rng)
        if not x.is_zero():
            return x


def _scaled_rank_one(spec, n, rng, zero_head=0):
    """A rank-1 H = u v^T and a random G that build, u scaled so that
    v^T G^(n-1) u = 1; u and v start with ``zero_head`` zeros."""
    for _ in range(500):
        u = _nonzero_vector(spec, n, rng, zero_head=zero_head)
        v = _nonzero_vector(spec, n, rng, zero_head=zero_head)
        g = random_dense(spec, n, n, rng)
        t = (v.transpose() @ g.power(n - 1) @ u).entry(1, 1)
        if t.is_zero():
            continue
        h = outer_product(u.scale(t.inv()), v)
        try:
            return h, g, build_conjugator(h, g).conjugator
        except SingularConjugator:
            continue
    raise AssertionError("no scaled rank-1 pair built")


def _chain_break(spec, n, k, rng):
    """H = e_n v^T with v = e_1 + x e_(n-k), x != 0, and G = S, both conjugated
    by a random invertible C.  v^T S^m e_n = v_(n-m), so H G^m H = 0 fails at
    m = k alone, and v^T S^(n-1) e_n = 1 lets the pair build."""
    v = [spec.zero] * n
    v[0], v[n - k - 1] = spec.one, _nonzero_scalar(spec, rng)
    h = outer_product(ColumnVector.standard_basis(spec, n, n), ColumnVector(spec, v))
    conj = AutomorphismOracle.conjugation_by(random_invertible(spec, n, rng, 4))
    h, g = conj.apply(h), conj.apply(shift_matrix(spec, n))
    return h, g, build_conjugator(h, g).conjugator


def _forced_rank_one(spec, n, rng, vanishing=False):
    """A hand-made A for a rank-1 H = u v^T whose pair need not build:
    P = G^(n-1) H, so tr P = v^T G^(n-1) u is rarely 1.  With ``vanishing``,
    G is strictly upper triangular and u_n = 0, so G^(n-1) u = 0 and P = 0."""
    g = _strictly_upper(spec, n, rng) if vanishing else random_dense(spec, n, n, rng)
    u = _nonzero_vector(spec, n, rng, zero_tail=int(vanishing))
    h = outer_product(u, _nonzero_vector(spec, n, rng))
    return h, g, random_dense(spec, n, n, rng)


def _structure_cases(spec, n, rng):
    """(name, H, G, A) for each kind of structure-check input."""
    b = random_invertible(spec, n, rng, 4)
    h, g = AutomorphismOracle.conjugation_by(b).query_generators()
    genuine = build_conjugator(h, g).conjugator
    yield "genuine", h, g, genuine
    scaled = _scaled_rank_one(spec, n, rng)
    yield "scaled_rank1", *scaled
    # a random pair that builds, whose chain H G^k H = 0 and G^n = 0 fail as
    # a rule, with a random invertible A
    h_random, g_random, _ = _scaled_rank_one(spec, n, rng)
    yield "random_pair", h_random, g_random, random_invertible(spec, n, rng, 4)
    # hand-made: a perturbed conjugator, an A passed with another pair, and
    # rank-1 H whose pair does not build
    yield "hand_perturbed", h, g, genuine + elementary_matrix(spec, n, 1, 1)
    yield "hand_mismatched", scaled[0], scaled[1], genuine
    yield "forced_rank1", *_forced_rank_one(spec, n, rng)
    if n == 1:
        return
    yield "forced_vanishing", *_forced_rank_one(spec, n, rng, vanishing=True)
    # first nonzero entry of H off row 1 and column 1
    yield "scaled_rank1_inner", *_scaled_rank_one(spec, n, rng, zero_head=1)
    for k in range(n - 1):
        yield f"chain_break_{k}", *_chain_break(spec, n, k, rng)


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_structure_checks_match_matrix_reference(spec, monkeypatch):
    rng = random.Random(83)
    chain_flags, projector_flags, nilpotent_flags = set(), set(), set()
    krylov_paths = []
    spied_krylov = _spied_krylov(krylov_paths)
    for n in range(1, 7):
        for name, h, g, a_mat in _structure_cases(spec, n, rng):
            with monkeypatch.context() as patch:
                patch.setattr(sn, "_krylov", spied_krylov)
                krylov_paths.clear()
                report = check_structure_identities(h, g, a_mat)
            expected, first_failing = matrix_structure_identities(h, g, a_mat)
            assert report == expected, (name, n)
            assert report.first_failing == first_failing, (name, n)
            # every case has a rank-1 H: the scalars v^T G^k u give the
            # chain, P^2 = P and rank(I - P)
            assert krylov_paths == [True], (name, n)
            chain_flags.add(report.corner_chain_ok)
            nilpotent_flags.add(report.shift_nilpotent_ok)
            projector_flags.add((report.idempotent_ok, report.kernel_rank_ok))
            if name == "genuine":
                assert report.all_ok, n
            if name.startswith("chain_break"):
                assert report.first_failing == "nilpotent", (name, n)
            if name == "forced_vanishing":
                assert chain_projector(h, g, n).is_zero(), n
    # the scalar forms read a broken chain, a non-nilpotent G, a
    # non-idempotent P (v^T w != 1) and an idempotent P = 0 whose I - P has
    # full rank
    assert chain_flags == {True, False} and nilpotent_flags == {True, False}
    assert {(True, True), (False, False), (True, False)} <= projector_flags


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_structure_report_reads_only_the_conjugator(spec):
    # A replaced by the zero matrix, which no witness holds and which passes
    # both intertwines as 0 = 0: the other flags are identities of (H, G)
    rng = random.Random(89)
    for n in range(1, 6):
        for name, h, g, a_mat in _structure_cases(spec, n, rng):
            report = check_structure_identities(h, g, a_mat)
            zero = check_structure_identities(h, g, Matrix.zero(spec, n, n))
            assert zero == dataclasses.replace(
                report, intertwine_E_ok=True, intertwine_S_ok=True
            ), (name, n)


def test_structure_report_of_a_rank_one_witness_runs_no_elimination(monkeypatch):
    # G^n by repeated squaring, the scalars v^T G^k u and the two
    # intertwines: H factored once, no H G^k H chain, no P, no P P and no
    # rank of I - P
    spec = prime_field(2**61 - 1)
    rng = random.Random(97)
    eliminate, matmul = Matrix._eliminate, Matrix.__matmul__
    rank_one_factors = sn._rank_one_factors
    calls = {"eliminate": 0, "products": 0, "factors": 0, "projectors": 0}

    def counted_eliminate(self, reduced):
        calls["eliminate"] += 1
        return eliminate(self, reduced)

    def counted_matmul(left, right):
        calls["products"] += not isinstance(right, ColumnVector)
        return matmul(left, right)

    def counted_factors(m):
        calls["factors"] += 1
        return rank_one_factors(m)

    def counted_outer(col, row):
        calls["projectors"] += 1
        return outer_product(col, row)

    for n in (8, 16):
        b = random_invertible(spec, n, rng, 4)
        h, g = AutomorphismOracle.conjugation_by(b).query_generators()
        a_mat = build_conjugator(h, g).conjugator
        with monkeypatch.context() as patch:
            patch.setattr(Matrix, "_eliminate", counted_eliminate)
            patch.setattr(Matrix, "__matmul__", counted_matmul)
            patch.setattr(sn, "_rank_one_factors", counted_factors)
            patch.setattr("matconj.automorphism.outer_product", counted_outer)
            calls.update(eliminate=0, products=0, factors=0, projectors=0)
            report = check_structure_identities(h, g, a_mat)
        assert report.all_ok
        assert calls["eliminate"] == 0, n
        assert calls["factors"] == 1, (n, calls)
        assert calls["projectors"] == 0, (n, calls)
        assert calls["products"] <= 2 * math.ceil(math.log2(n)) + 4, (n, calls)


def _not_rank_one_cases(spec, n, rng):
    """(name, H, G) with H zero, and for n >= 2 with H of rank >= 2."""
    yield "zero", Matrix.zero(spec, n, n), random_dense(spec, n, n, rng)
    if n == 1:
        return
    while True:
        h = random_dense(spec, n, n, rng)
        if h.rank() >= 2:
            yield "rank_ge_2", h, random_dense(spec, n, n, rng)
            return


@pytest.mark.parametrize("spec", (QQ, prime_field(2**61 - 1)), ids=str)
def test_not_rank_one_corner_is_refused(spec, monkeypatch):
    # no automorphism maps E_{n,1} to a matrix of rank other than 1, so the
    # build and the report refuse such an H at once: no Krylov vector, no
    # dense product, no elimination.  A zero H makes P = 0, and I - 0 is
    # injective; an H of rank >= 2 is named as such
    rng = random.Random(109)
    calls = Counter()
    matmul, eliminate, sequence = Matrix.__matmul__, Matrix._eliminate, sn.krylov_sequence

    def counted(name, fn):
        def spy(*args):
            calls[name] += 1
            return fn(*args)

        return spy

    texts = {"zero": "identity minus projector is injective", "rank_ge_2": _NOT_RANK_ONE}
    seen = set()
    for n in range(1, 17):
        a_mat = random_invertible(spec, n, rng, 4)
        for name, h, g in _not_rank_one_cases(spec, n, rng):
            b = random_invertible(spec, n, rng, 4)
            genuine_g = AutomorphismOracle.conjugation_by(b).query_generators()[1]
            for shift in (g, genuine_g):
                calls.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(Matrix, "__matmul__", counted("products", matmul))
                    patch.setattr(Matrix, "_eliminate", counted("eliminations", eliminate))
                    patch.setattr(sn, "krylov_sequence", counted("krylov", sequence))
                    with pytest.raises(EmptyKernel) as built:
                        build_conjugator(h, shift)
                    with pytest.raises(EmptyKernel) as checked:
                        check_structure_identities(h, shift, a_mat)
                assert str(built.value) == str(checked.value) == texts[name], (name, n)
                assert not calls, (name, n, calls)
                seen.add(name)
    assert seen == set(texts)


# -- verify_conjugation ------------------------------------------------------


def test_verify_genuine_witness():
    rng = random.Random(43)
    b = random_invertible(QQ, 3, rng, 4)
    phi = AutomorphismOracle.conjugation_by(b)
    h, g = phi.query_generators()
    witness = build_conjugator(h, g)
    report = verify_conjugation(phi, witness)
    assert report.outcome is Outcome.RECOVERED
    assert report.verified_pairs == 9
    assert report.failing_pair is None
    # the sweep's n^2 queries show on the oracle; the report carries no count
    assert phi.query_count == 11 and report.query_count is None  # 2 recovery + n^2


def test_verify_scalar_multiple_still_passes():
    # conjugation cannot see scalars: 2A realizes exactly the same map
    rng = random.Random(47)
    b = random_invertible(QQ, 2, rng, 4)
    phi = AutomorphismOracle.conjugation_by(b)
    h, g = phi.query_generators()
    witness = build_conjugator(h, g)
    doubled = ConjugationWitness(witness.conjugator.scale(2))
    assert doubled.conjugator_inv == witness.conjugator_inv.scale(Fraction(1, 2))
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
        witness = build_conjugator(h, g)
        perturbed_matrix = witness.conjugator + e11
        if perturbed_matrix.det().is_zero():
            continue
        if scalar_relation(perturbed_matrix, witness.conjugator) is not None:
            continue  # by chance still a scalar multiple: no failure expected
        report = verify_conjugation(phi, ConjugationWitness(perturbed_matrix))
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
    w = build_conjugator(h, g)
    for i in range(1, 4):
        for j in range(1, 4):
            lhs = w.conjugator @ elementary_matrix(QQ, 3, i, j) @ w.conjugator_inv
            rhs = outer_product(w.conjugator.column(i), w.conjugator_inv.row_vector(j))
            assert lhs == rhs


# -- certify -----------------------------------------------------------------


def reference_pair_certificate(witness, h, g):
    """The report certify gives a pair, from the two intertwines as dense
    products, and the sweep of the table the pair spans (``pair_table``),
    which must pass whenever both intertwines hold."""
    a_mat = witness.conjugator
    n, spec = a_mat.rows, a_mat.spec
    corner_ok = a_mat @ elementary_matrix(spec, n, n, 1) == h @ a_mat
    shift_ok = a_mat @ shift_matrix(spec, n) == g @ a_mat
    swept = verify_conjugation(AutomorphismOracle.from_table(pair_table(h, g)), witness)
    if corner_ok and shift_ok:
        assert swept.outcome is Outcome.RECOVERED
        report = RecoveryReport(Outcome.RECOVERED, n, spec, verified_pairs=n**2)
    else:
        detail = "A S != G A" if corner_ok else "A E_n1 != H A"
        report = RecoveryReport(
            Outcome.VERIFICATION_FAILED, n, spec, verified_pairs=0, detail=detail
        )
    return report, swept.outcome is Outcome.RECOVERED


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
                        witness = build_conjugator(h, g)
                    except (EmptyKernel, SingularConjugator):
                        continue
                    oracle = AutomorphismOracle.from_generator_pair(h, g)
                    report = certify(oracle, witness)
                    expected, swept = reference_pair_certificate(witness, h, g)
                    assert report == expected
                    assert oracle.query_count == 0
                    # a failing pair names its identity, never a basis pair,
                    # whether or not the expansion's sweep would have passed
                    kinds.add((report.detail, swept))
    assert kinds == {
        (None, True),
        ("A E_n1 != H A", False),
        ("A S != G A", False),
        ("A S != G A", True),
    }


def test_certify_genuine_pair_skips_expansion_and_sweep(monkeypatch):
    # a genuine pair passes, and a tail-perturbed one fails at A S = G' A,
    # on the four products of the two intertwines alone
    def forbidden(*args):
        raise AssertionError("a pair's certificate needs no basis sweep")

    matmul, products = Matrix.__matmul__, [0]

    def counted_matmul(left, right):
        products[0] += 1
        return matmul(left, right)

    monkeypatch.setattr(AutomorphismOracle, "to_full_table", forbidden)
    monkeypatch.setattr(sn, "verify_conjugation", forbidden)
    rng = random.Random(79)
    for spec, n in itertools.product((QQ, prime_field(2**61 - 1)), range(1, 9)):
        b = random_invertible(spec, n, rng, 4)
        genuine = AutomorphismOracle.conjugation_by(b).query_generators()
        perturbed = tail_perturbed_pair(b, _nonzero_vector(spec, n, rng))
        for (h, g), detail in ((genuine, None), (perturbed, "A S != G A")):
            witness = build_conjugator(h, g)
            oracle = AutomorphismOracle.from_generator_pair(h, g)
            with monkeypatch.context() as patch:
                patch.setattr(Matrix, "__matmul__", counted_matmul)
                products[0] = 0
                report = certify(oracle, witness)
            assert products[0] == 4, (n, detail)
            assert report.detail == detail and report.failing_pair is None, n
            assert report.outcome is (Outcome.VERIFICATION_FAILED if detail else Outcome.RECOVERED)
            assert report.verified_pairs == (0 if detail else n * n), n
        # the perturbed pair keeps every Krylov vector, so it builds the
        # genuine pair's A
        assert build_conjugator(*perturbed).conjugator == build_conjugator(*genuine).conjugator


def test_certify_sweeps_conjugation_oracle():
    b = random_invertible(QQ, 3, random.Random(83), 4)
    phi = AutomorphismOracle.conjugation_by(b)
    h, g = phi.query_generators()
    witness = build_conjugator(h, g)
    report = certify(phi, witness)
    assert report.outcome is Outcome.RECOVERED
    assert phi.query_count == 11 and report.query_count is None  # 2 recovery + n^2


def _unbuildable(conjugator, inverse):
    """No witness holds the pair (A, C) when C is not A^-1: the inverse is no
    init argument, cannot be replaced, and is computed from A itself."""
    with pytest.raises(TypeError):
        ConjugationWitness(conjugator, inverse)
    try:
        witness = ConjugationWitness(conjugator)
    except SingularMatrix:
        return
    assert witness.conjugator_inv != inverse
    with pytest.raises(ValueError, match="conjugator_inv"):
        dataclasses.replace(witness, conjugator_inv=inverse)


def test_certify_refuses_the_zero_witness_on_a_genuine_pair():
    # 0 E_{n,1} = H 0 and 0 S = G 0 hold for every pair, but the zero matrix
    # has no inverse, so no witness of it reaches certify
    zero = Matrix.zero(QQ, 3, 3)
    _unbuildable(zero, zero)
    with pytest.raises(SingularMatrix):
        ConjugationWitness(zero)


def test_certify_refuses_identity_with_double_inverse_on_the_doubling_table():
    # I E_{i,j} (2I) = 2 E_{i,j} is the table of X -> 2X at every pair, and
    # that map is no automorphism: validate() rejects it.  (I, 2I) is no
    # witness, and the witness of I conjugates E_{1,1} to itself, not 2 E_{1,1}
    gf7 = prime_field(7)
    images = {(i, j): elementary_matrix(gf7, 2, i, j).scale(2) for i in (1, 2) for j in (1, 2)}
    table = AutomorphismOracle.from_table(images)
    assert not table.validate().is_automorphism
    one = Matrix.identity(gf7, 2)
    _unbuildable(one, one.scale(2))
    for check in (verify_conjugation, certify):
        report = check(table, ConjugationWitness(one))
        assert report.outcome is Outcome.VERIFICATION_FAILED
        assert report.failing_pair == (1, 1) and report.verified_pairs == 0


def test_certify_refuses_a_corrupted_inverse_on_a_conjugation_oracle():
    b = random_invertible(QQ, 3, random.Random(97), 4)
    phi = AutomorphismOracle.conjugation_by(b)
    witness = build_conjugator(*phi.query_generators())
    corrupted = witness.conjugator_inv + elementary_matrix(QQ, 3, 2, 3)
    _unbuildable(witness.conjugator, corrupted)
    assert certify(phi, witness).outcome is Outcome.RECOVERED


def test_certify_reads_the_pair_off_its_oracle():
    # a genuine witness for another genuine pair intertwines that pair, not
    # the oracle's; certify checks the oracle's own pair and names the
    # identity that fails
    rng = random.Random(101)
    oracle = AutomorphismOracle.from_generator_pair(
        *AutomorphismOracle.conjugation_by(random_invertible(QQ, 3, rng, 4)).query_generators()
    )
    other = AutomorphismOracle.conjugation_by(random_invertible(QQ, 3, rng, 4))
    witness = build_conjugator(*other.query_generators())
    assert certify(other, witness).outcome is Outcome.RECOVERED
    report = certify(oracle, witness)
    assert report.outcome is Outcome.VERIFICATION_FAILED
    assert report.detail == "A E_n1 != H A" and report.failing_pair is None
    assert report.verified_pairs == 0 and oracle.query_count == 0


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


def test_scalar_relation_matches_quotient_route():
    # the entrywise comparison agrees with "left @ right^-1 is a scalar matrix"
    for spec in (QQ, prime_field(2), prime_field(5)):
        rng = random.Random(67)
        for n in range(1, 5):
            for _ in range(6):
                right = random_invertible(spec, n, rng, 3)
                other = random_invertible(spec, n, rng, 3)
                for left in (right.scale(rng.randint(1, 4)), other, right.scale(0)):
                    quotient = left @ right.inverse()
                    lam = quotient.entry(1, 1)
                    if quotient != Matrix.identity(spec, n).scale(lam):
                        assert scalar_relation(left, right) is None
                    elif lam.is_zero():
                        with pytest.raises(SingularMatrix):
                            scalar_relation(left, right)
                    else:
                        assert scalar_relation(left, right) == lam


def _recovered_conjugator(b):
    h, g = AutomorphismOracle.conjugation_by(b).query_generators()
    return build_conjugator(h, g).conjugator


@given(
    p=st.sampled_from([2, 3, 5, 7, 101, 2**61 - 1]),
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32),
    lifts=st.lists(st.integers(-2, 2), min_size=16, max_size=16),
)
def test_prime_field_recovery_is_rational_recovery_mod_p(p, n, seed, lifts):
    # metamorphic: for an integer B with p not dividing det B, recovering over
    # GF(p) from B mod p gives the rational recovery reduced mod p, up to a scalar
    gfp = prime_field(p)
    residues = random_invertible(gfp, n, random.Random(seed), 5)._data
    entries = [r + p * k for r, k in zip(residues, lifts)]  # B = residues mod p
    a_q = _recovered_conjugator(Matrix(QQ, n, n, entries))
    assume(all(v.denominator % p for v in a_q._data))
    a_p = _recovered_conjugator(Matrix(gfp, n, n, entries))
    assert scalar_relation(a_p, Matrix(gfp, n, n, a_q._data)) is not None


def test_scalar_relation_singular_inputs():
    with pytest.raises(SingularMatrix):
        scalar_relation(Matrix.identity(QQ, 2), elementary_matrix(QQ, 2, 1, 1))
    with pytest.raises(SingularMatrix):
        scalar_relation(Matrix.zero(QQ, 2, 2), Matrix.identity(QQ, 2))


def test_scalar_relation_refuses_mismatched_inputs():
    with pytest.raises(DimensionMismatch, match="square"):
        scalar_relation(Matrix.zero(QQ, 2, 3), Matrix.identity(QQ, 2))
    with pytest.raises(DimensionMismatch, match="square"):
        scalar_relation(Matrix.identity(QQ, 2), Matrix.zero(QQ, 3, 2))
    with pytest.raises(DimensionMismatch, match="size"):
        scalar_relation(Matrix.identity(QQ, 2), Matrix.identity(QQ, 3))
    with pytest.raises(FieldMismatch, match="different fields"):
        scalar_relation(Matrix.identity(QQ, 2), Matrix.identity(prime_field(7), 2))


def test_scalar_relation_singular_contract(monkeypatch):
    # SingularMatrix for a zero right, for a singular right that left is not
    # a multiple of, and for c = 0; a nonzero multiple of a singular right
    # gives its c, since right's rank is taken only when left != c right
    eliminate = Matrix._eliminate
    eliminations = []

    def counted_eliminate(self, reduced):
        eliminations.append(reduced)
        return eliminate(self, reduced)

    b = random_invertible(prime_field(7), 4, random.Random(127), 4)
    monkeypatch.setattr(Matrix, "_eliminate", counted_eliminate)
    zero, identity = Matrix.zero(QQ, 3, 3), Matrix.identity(QQ, 3)
    singular = Matrix.from_rows(QQ, [[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    refused = [
        (identity, zero, "right matrix is singular"),
        (zero, zero, "right matrix is singular"),
        (identity, singular, "right matrix is singular"),
        (zero, identity, "left matrix is singular"),
        (zero, singular, "left matrix is singular"),
    ]
    for left, right, message in refused:
        with pytest.raises(SingularMatrix, match=message):
            scalar_relation(left, right)
    assert len(eliminations) == 1  # the non-proportional singular right only
    eliminations.clear()
    assert scalar_relation(singular.scale(Fraction(-2, 3)), singular) == QQ.element(
        Fraction(-2, 3)
    )
    assert scalar_relation(b.scale(3), b) == prime_field(7).element(3)
    assert scalar_relation(b, Matrix.identity(prime_field(7), 4)) is None
    assert len(eliminations) == 1  # the rank behind the last None alone


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
            witness = build_conjugator(h, g)
            scalar = scalar_relation(witness.conjugator, b)
            assert scalar is not None and not scalar.is_zero()
            projector = projected_idempotent(h, g)
            assert projector @ witness.kernel_vector == witness.kernel_vector
            assert verify_conjugation(phi, witness).outcome is Outcome.RECOVERED


def test_dropping_any_column_leaves_rank_n_minus_1():
    rng = random.Random(71)
    for n in range(2, 6):
        b = random_invertible(QQ, n, rng, 4)
        h, g = AutomorphismOracle.conjugation_by(b).query_generators()
        witness = build_conjugator(h, g)
        cols = [witness.conjugator.column(j) for j in range(1, n + 1)]
        for drop in range(n):
            kept = [c for j, c in enumerate(cols) if j != drop]
            assert Matrix.from_columns(kept).rank() == n - 1


def test_kernel_of_projector_difference_is_one_dimensional():
    rng = random.Random(73)
    for n in range(1, 6):
        b = random_invertible(prime_field(3), n, rng, 4)
        h, g = AutomorphismOracle.conjugation_by(b).query_generators()
        projector = projected_idempotent(h, g)
        diff = Matrix.identity(prime_field(3), n) - projector
        assert diff.rank() == n - 1
        assert len(diff.nullspace_basis()) == 1

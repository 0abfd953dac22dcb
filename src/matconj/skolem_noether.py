"""Constructive recovery of the matrix that realizes an inner automorphism.

Every algebra automorphism of the full n x n matrix algebra over a field is
conjugation by some invertible matrix A (the Skolem-Noether theorem).  This
module makes that effective from just two images of the map:

1. ask the oracle for H = phi(E_{n,1}) and G = phi(S), where S is the
   superdiagonal shift;
2. pick a nonzero vector a in the kernel of I - P, P = G^{n-1} H (that
   difference is singular whenever phi is an automorphism, because P is the
   image of the rank-1 idempotent E_{1,1}).  H has rank 1, so H = u v^T and
   P = w v^T with w = G^{n-1} u: the Krylov vectors u, G u, ..., w cost n-1
   integer mat-vecs, O(n^3).  Then det(I - P) = 1 - v^T w, so the kernel is
   empty unless v^T w = 1, and is then span(w): a is w divided by its first
   nonzero entry, with no elimination and no P.  An automorphism maps E_{n,1}
   to a matrix of rank exactly 1 (phi(E_{1,1}) is an idempotent e with
   e M_n e of dimension 1, and H = H e != 0), so any other H is refused at
   once, with EmptyKernel;
3. assemble A column by column as [G^{n-1}Ha | G^{n-2}Ha | ... | GHa | Ha].
   Column i is (v^T a) G^{n-i} u = G^{n-i} u / lead(w), a scaled Krylov
   vector of step 2.  A^-1 is one elimination, O(n^3), so a build runs one
   elimination, n-1 integer mat-vecs and n integer dot products in all.

A is then invertible and satisfies A E_{n,1} = H A and A S = G A.  The
build returns it as a :class:`~matconj.automorphism.ConjugationWitness`,
the type that backs a conjugation oracle, which takes A alone and runs that
elimination itself, so conjugation by A and its image A E_{i,j} A^-1 are
formed in one place.  Those two identities pin down conjugation everywhere,
because E_{n,1} and S generate the algebra: S^{n-i} E_{n,1} S^{j-1} = E_{i,j}.
:func:`certify` is the one certificate: the two intertwines for a generator
pair, and the n^2-pair basis sweep of :func:`verify_conjugation` for a map
given by conjugation or by a table.  No argument here is fixed by another:
n is the size of H, ``certify`` reads a pair's (H, G) off its oracle, and
a witness's A^-1 is computed from its A.  The construction and that sweep
also decide whether a table is an automorphism at all,
:func:`decide_automorphism`, O(n^4); a conjugation is one by its witness.
:func:`check_structure_identities` evaluates, in one place, every identity
the argument leans on, and :func:`scalar_relation` compares two
conjugators up to the scalar factor conjugation cannot see.  The rank-1
corner is read in one place, :func:`_krylov`: the build and the structure
report both take u's Krylov vectors from it, in the integer form of
:func:`~matconj.matrix.krylov_sequence`, and the report reads H G^k H = 0,
P^2 = P and rank(I - P) = n - 1 off the scalars v^T G^k u, O(n^3 log n) in
all.  Neither forms P: :func:`projected_idempotent`, which does, and
:func:`kernel_vector` have no caller in the package and are kept as names
the benchmark tracer binds.

If the supplied (H, G) do not come from an automorphism, the construction runs
until a mathematical impossibility surfaces (a corner that is not of rank 1,
an empty kernel or a singular candidate A) and raises then; it never
pre-validates, so the two-query cost is preserved.
:func:`build_failure_outcome` is the one map from that exception to its
:class:`Outcome`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from operator import mul

from .automorphism import AutomorphismOracle, ConjugationWitness, ValidationReport
from .automorphism import check_generator_pair
from .errors import (
    DimensionMismatch,
    EmptyKernel,
    FieldMismatch,
    SingularConjugator,
    SingularMatrix,
)
from .field import FieldElement, FieldSpec
from .matrix import ColumnVector, Matrix, elementary_matrix, shift_matrix
from .matrix import from_integer_form, integer_form, krylov_sequence


class Outcome(Enum):
    RECOVERED = "recovered"
    EMPTY_KERNEL = "empty_kernel"
    SINGULAR_CONJUGATOR = "singular_conjugator"
    VERIFICATION_FAILED = "verification_failed"


@dataclass(frozen=True)
class StructureCheckReport:
    """Exact per-identity outcome for the relations the construction rests on.

    All flags are true whenever (H, G) arise from a genuine automorphism and
    A came from :func:`build_conjugator`.  The two intertwines are the only
    flags that depend on A.  Like
    ``nilpotent_ok`` and ``all_ok``, ``first_failing`` is read off the flags.
    """

    shift_nilpotent_ok: bool  # G^n = 0
    corner_chain_ok: bool  # H G^k H = 0 for 0 <= k <= n-2
    idempotent_ok: bool  # (G^{n-1} H)^2 = G^{n-1} H
    kernel_rank_ok: bool  # rank(I - G^{n-1} H) = n - 1
    intertwine_E_ok: bool  # A E_{n,1} = H A
    intertwine_S_ok: bool  # A S = G A

    @property
    def nilpotent_ok(self) -> bool:
        return self.shift_nilpotent_ok and self.corner_chain_ok

    @property
    def first_failing(self) -> str | None:
        """The first identity that fails, in the order the argument uses them."""
        named = (
            ("nilpotent", self.nilpotent_ok),
            ("idempotent", self.idempotent_ok),
            ("kernel_rank", self.kernel_rank_ok),
            ("intertwine_E", self.intertwine_E_ok),
            ("intertwine_S", self.intertwine_S_ok),
        )
        return next((name for name, ok in named if not ok), None)

    @property
    def all_ok(self) -> bool:
        return self.first_failing is None


@dataclass
class RecoveryReport:
    """Machine-readable outcome of a recovery or verification run.

    ``query_count`` is the two-query recovery cost, set by whoever made the
    queries; a certificate leaves it None.  ``scalar`` is the ratio
    A = scalar * B when a ground-truth B is known.  ``verified_pairs``
    counts the basis pairs the certificate confirmed (n^2 on success).
    ``failing_pair`` names the first failing basis pair of a table or
    conjugation sweep; a generator pair has no pair images to compare, and
    names its failing identity in ``detail`` instead.  A fuzz trial's report
    is :func:`certify`'s with the seed, the two-query count, the structure
    ``checks``, the RNG and the scalar filled in.
    """

    outcome: Outcome
    n: int
    spec: FieldSpec
    seed: int | None = None
    query_count: int | None = None
    scalar: FieldElement | None = None
    checks: StructureCheckReport | None = None
    failing_pair: tuple[int, int] | None = None
    verified_pairs: int | None = None
    detail: str | None = None
    rng_algorithm: str | None = None


_INJECTIVE = "identity minus projector is injective"


def _rank_one_factors(h: Matrix) -> tuple[ColumnVector, ColumnVector]:
    """(u, v) with H = u v^T; EmptyKernel when H is zero or of rank >= 2.

    u is the column and v^T the row of H's first nonzero entry h_ij in
    row-major order, v scaled by 1/h_ij.  Each later row r of H must then be
    u_r v^T; the rows above row i are zero, and row i is u_i v^T by
    construction.  Over Q a nonzero row is a multiple of v^T iff the two
    primitive integer forms agree up to sign: no Fraction per entry.  A zero
    H makes P = 0, so its refusal says that I - P is injective.
    """
    data, n, spec = h._data, h.cols, h.spec
    k = next((k for k, x in enumerate(data) if x), None)
    if k is None:
        raise EmptyKernel(_INJECTIVE)
    i, j = divmod(k, n)
    u = h.column(j + 1)
    v = h.row_vector(i + 1).scale(spec.invert_value(data[k]))
    p, y = spec.modulus, integer_form(spec, v._data)[1]
    signs = (y, [-t for t in y])
    for r in range(i + 1, h.rows):
        x, row = u._data[r], data[r * n : (r + 1) * n]
        if not x:
            rank_one = not any(row)
        elif p:
            rank_one = row == tuple(x * t % p for t in v._data)
        else:
            rank_one = integer_form(spec, row)[1] in signs
        if not rank_one:
            raise EmptyKernel("corner image is not of rank 1")
    return u, v


def _krylov(h: Matrix, g: Matrix) -> tuple[list, list, list]:
    """The one reading of the corner H = phi(E_{n,1}), which has rank 1.

    H = u v^T (see :func:`_rank_one_factors`, which refuses any other H with
    EmptyKernel) gives (r, cs, ys): G^k u = cs[k] ys[k], k < n, from
    :func:`~matconj.matrix.krylov_sequence`, O(n^3), and r[k] = v^T G^k u, n
    integer dot products.  H G^k H = r[k] H, and P = G^{n-1} H is w v^T for
    w = G^{n-1} u.
    """
    u, v = _rank_one_factors(h)
    cs, ys = krylov_sequence(g, u, h.rows)
    cv, yv = integer_form(h.spec, v._data)
    r = [h.spec.coerce(c * cv * sum(map(mul, yv, y))) for c, y in zip(cs, ys)]
    return r, cs, ys


def projected_idempotent(h: Matrix, g: Matrix) -> Matrix:
    """G^{n-1} H, the candidate image of the rank-1 corner idempotent.

    G^{n-1} by repeated squaring, then one product with H, so
    max(popcount(n-1) + bit_length(n-1) - 1, 1) dense products, O(n^3 log n),
    whatever the rank of H.  For n = 1 the empty power is the identity, so
    the result is H itself.  The build and the structure report never form
    P: they read what they need of it off the Krylov vectors of
    :func:`_krylov`.  The package does not call this; the benchmark tracer
    binds the name.
    """
    check_generator_pair(h, g)
    return g.power(h.rows - 1) @ h


def kernel_vector(projector: Matrix) -> ColumnVector:
    """The canonical nonzero vector annihilated by I - projector.

    That is the first vector of the deterministic nullspace basis of I - P,
    from the rref of I - P, O(n^3): the kernel vector scaled so that its
    first nonzero coordinate is 1.  Raises EmptyKernel when I - P is
    injective.  :func:`build_conjugator` reads its kernel vector off the
    Krylov vectors instead, so the package does not call this; the
    benchmark tracer binds the name.
    """
    if not projector.is_square:
        raise DimensionMismatch("projector must be square")
    diff = Matrix.identity(projector.spec, projector.rows) - projector
    basis = diff.nullspace_basis()
    if not basis:
        raise EmptyKernel(_INJECTIVE)
    return basis[0]


def build_conjugator(h: Matrix, g: Matrix) -> ConjugationWitness:
    """Assemble the conjugator from the two generator images.

    n is the size of H; a non-square H or a G of another size or field is
    refused, and so, with EmptyKernel, is an H that is not of rank 1.
    Column i of A is G^{n-i} H a, for a nonzero a with P a = a,
    P = G^{n-1} H.  H = u v^T makes P = w v^T with w = G^{n-1} u, and
    det(I - P) = 1 - v^T w, so the kernel of I - P is empty unless
    v^T w = 1 (EmptyKernel), and is then span(w).  With s = 1/lead(w), its
    first nonzero entry, a = s w, v^T a = s, and column i is s G^{n-i} u:
    A is s times the Krylov vectors of :func:`_krylov` in reverse order, and
    a is its first column.  v^T w is r[n-1] of :func:`_krylov`, and an entry
    of A is built once, as (s c_k) y_k for G^k u = c_k y_k.  The build runs
    n-1 integer mat-vecs, n dot products and one elimination, for A^-1,
    O(n^3), and forms no P.  The witness computes A^-1 from A; if it does
    not exist the input pair was invalid and SingularConjugator is raised.
    """
    check_generator_pair(h, g)
    r, cs, ys = _krylov(h, g)
    if r[-1] != h.spec.one_value:
        raise EmptyKernel(_INJECTIVE)
    s = h.spec.invert_value(cs[-1] * next(t for t in ys[-1] if t))
    columns = [from_integer_form(h.spec, s * c, y) for c, y in zip(cs, ys)]
    try:
        return ConjugationWitness(Matrix.from_columns(columns[::-1]))
    except SingularMatrix as exc:
        raise SingularConjugator(
            "assembled candidate conjugator is singular"
        ) from exc


def check_structure_identities(h: Matrix, g: Matrix, a: Matrix) -> StructureCheckReport:
    """Evaluate every structural identity exactly and report per-identity flags.

    The pair is read first: like :func:`build_conjugator`, this refuses an H
    that is not of rank 1 with EmptyKernel, since no automorphism gives one
    and no build returns an A for it.  A is read only by the intertwines,
    which refuse an A that is not n x n, n the size of H.  Every other flag
    is an identity of the pair (H, G), evaluated here from the pair alone.
    G^n = 0 is a repeated-squaring power and the two intertwines are the
    products of :func:`certify`, O(n^3 log n) together.  For H = u v^T,
    :func:`_krylov` gives the scalars r_k = v^T G^k u as integer dot
    products with its integer Krylov vectors, O(n^3), and the other three
    identities are read off them:

    * H G^k H = r_k H, so the chain H G^k H = 0 for 0 <= k <= n-2 holds iff
      r_0, ..., r_{n-2} are 0;
    * P = w v^T with w = G^{n-1} u has P^2 = r_{n-1} P and
      det(I - P) = 1 - r_{n-1}, so rank(I - P) = n - 1 iff r_{n-1} = 1, and
      P is idempotent iff r_{n-1} = 1 or w = 0.

    The chain is indexed by 0 <= k <= n-2 and is therefore empty at n = 1;
    the remaining checks degenerate gracefully there.
    """
    check_generator_pair(h, g)
    r, _, ys = _krylov(h, g)
    intertwine_E_ok, intertwine_S_ok = _intertwines(a, h, g)
    kernel_rank_ok = r[-1] == h.spec.one_value
    return StructureCheckReport(
        shift_nilpotent_ok=g.power(h.rows).is_zero(),
        corner_chain_ok=not any(r[:-1]),
        idempotent_ok=kernel_rank_ok or not any(ys[-1]),
        kernel_rank_ok=kernel_rank_ok,
        intertwine_E_ok=intertwine_E_ok,
        intertwine_S_ok=intertwine_S_ok,
    )


def _intertwines(a_mat: Matrix, h: Matrix, g: Matrix) -> tuple[bool, bool]:
    """Whether A E_{n,1} = H A and whether A S = G A."""
    spec, n = a_mat.spec, a_mat.rows
    return (
        a_mat @ elementary_matrix(spec, n, n, 1) == h @ a_mat,
        a_mat @ shift_matrix(spec, n) == g @ a_mat,
    )


def certify(oracle: AutomorphismOracle, witness: ConjugationWitness) -> RecoveryReport:
    """Certify that conjugation by the witness's A is the oracle's map.

    A generator pair's (H, G) are read off the oracle's backing, and the two
    intertwines, four products, are the whole certificate: A is invertible,
    since a witness exists only for an invertible A and holds its true
    inverse, so A E_{n,1} = H A and A S = G A give
    A E_{i,j} A^-1 = A S^{n-i} E_{n,1} S^{j-1} A^-1 = G^{n-i} H G^{j-1},
    which is the pair's image of E_{i,j}; all n^2 pairs are then verified at
    O(n^3) cost.  If an intertwine fails, no pair image is formed: the
    report names the failing identity in ``detail``, "A E_n1 != H A" before
    "A S != G A", with no ``failing_pair`` and no verified pair.

    Conjugation and table oracles get the n^2-query sweep of
    :func:`verify_conjugation`: a table can be any linear map, so only the
    sweep shows that A matches it.  A generator-pair oracle is never
    queried here.
    """
    if oracle.backing_kind != "generator_pair":
        return verify_conjugation(oracle, witness)
    n, pair = witness.n, oracle.backing
    corner_ok, shift_ok = _intertwines(witness.conjugator, pair.corner_image, pair.shift_image)
    report = RecoveryReport(Outcome.RECOVERED, n, witness.spec, verified_pairs=n**2)
    if not (corner_ok and shift_ok):
        report.outcome, report.verified_pairs = Outcome.VERIFICATION_FAILED, 0
        report.detail = "A S != G A" if corner_ok else "A E_n1 != H A"
    return report


def build_failure_outcome(exc: EmptyKernel | SingularConjugator) -> Outcome:
    """The outcome of a :func:`build_conjugator` call that raised exc."""
    if isinstance(exc, EmptyKernel):
        return Outcome.EMPTY_KERNEL
    return Outcome.SINGULAR_CONJUGATOR


def decide_automorphism(oracle: AutomorphismOracle) -> ValidationReport:
    """The report ``oracle.validate()`` gives, with ``validate`` run only for
    a map that is not an automorphism.

    A conjugation is an automorphism by its witness, which exists only for
    an invertible B: the all-true report comes with no query.  A table runs
    the two queries, :func:`build_conjugator` and the n^2-pair sweep of
    :func:`certify`; if they pass, the map is conjugation by the invertible
    A on every matrix unit, hence everywhere, and every automorphism passes
    (Skolem-Noether).  That costs one elimination (A^-1), the Krylov vectors
    and n^2 outer products, O(n^4), and no dense product.  Any other
    outcome, and a generator pair, which ``validate`` refuses, get
    ``validate``'s own report.
    """
    accepted = oracle.backing_kind == "conjugation"
    if oracle.backing_kind == "full_table":
        try:
            witness = build_conjugator(*oracle.query_generators())
        except (EmptyKernel, SingularConjugator):
            return oracle.validate()
        accepted = certify(oracle, witness).outcome is Outcome.RECOVERED
    if accepted:
        return ValidationReport(unital_ok=True, multiplicative_ok=True, bijective_ok=True)
    return oracle.validate()


def verify_conjugation(
    phi: AutomorphismOracle, witness: ConjugationWitness
) -> RecoveryReport:
    """Certify A E_{i,j} A^-1 = phi(E_{i,j}) over the whole matrix-unit basis.

    Needs an oracle that answers arbitrary basis queries (full-table or
    conjugation backing).  The witness side is ``witness.image(i, j)``, the
    outer product of A's i-th column with the j-th row of A^-1, O(n^2), formed
    one pair at a time so that the n^2 images are never all held at once;
    the phi side consumes one oracle query per basis pair.  Stops at the first
    failing pair.  A^-1 is A's own, so a passing sweep is conjugation by A.
    """
    n, spec = witness.n, witness.spec
    report = RecoveryReport(Outcome.RECOVERED, n, spec, verified_pairs=0)
    for i, j in product(range(1, n + 1), repeat=2):
        expected = phi.apply(elementary_matrix(spec, n, i, j))
        if witness.image(i, j) != expected:
            report.outcome, report.failing_pair = Outcome.VERIFICATION_FAILED, (i, j)
            report.detail = f"conjugation disagrees with the map on basis pair ({i},{j})"
            break
        report.verified_pairs += 1
    return report


def scalar_relation(left: Matrix, right: Matrix) -> FieldElement | None:
    """The nonzero scalar c with left = c * right, if one exists.

    Conjugation cannot distinguish scalar multiples, because only scalar
    matrices commute with the whole algebra; two valid conjugators for the same map
    differ exactly by such a c.  The comparison is entrywise, O(n^2), with c the
    ratio at right's first nonzero entry; right's rank is taken only when
    left != c right.  SingularMatrix: a zero right, a singular right that left
    is no multiple of, or c = 0.  A nonzero multiple of a singular right gives c.
    """
    if not left.is_square or not right.is_square:
        raise DimensionMismatch("scalar comparison needs square matrices")
    if left.spec != right.spec:
        raise FieldMismatch("matrices over different fields")
    if left.rows != right.rows:
        raise DimensionMismatch("matrices must share their size")
    k = next((k for k, v in enumerate(right._data) if v), None)
    if k is None:
        raise SingularMatrix("right matrix is singular")
    spec = left.spec
    c = FieldElement(spec, left._data[k]) / FieldElement(spec, right._data[k])
    if left != right.scale(c):
        if right.rank() < right.rows:
            raise SingularMatrix("right matrix is singular")
        return None
    if c.is_zero():
        raise SingularMatrix("left matrix is singular")
    return c

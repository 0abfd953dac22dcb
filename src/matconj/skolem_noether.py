"""Constructive recovery of the matrix that realizes an inner automorphism.

Every algebra automorphism of the full n x n matrix algebra over a field is
conjugation by some invertible matrix A (the Skolem-Noether theorem).  This
module makes that effective from just two images of the map:

1. ask the oracle for H = phi(E_{n,1}) and G = phi(S), where S is the
   superdiagonal shift;
2. pick a nonzero vector a in the kernel of I - G^{n-1} H (that difference is
   singular whenever phi is an automorphism, because G^{n-1} H is the image of
   the rank-1 idempotent E_{1,1});
3. assemble A column by column as [G^{n-1}Ha | G^{n-2}Ha | ... | GHa | Ha].

A is then invertible and satisfies A E_{n,1} = H A and A S = G A.  Those two
identities pin down conjugation everywhere, because E_{n,1} and S generate
the algebra: S^{n-i} E_{n,1} S^{j-1} = E_{i,j}.  :func:`certify` is the one
certificate: the two intertwines for a generator pair, and the n^2-pair basis
sweep of :func:`verify_conjugation` for a map given by conjugation or by a
table.  :func:`check_structure_identities` evaluates, in one place, every
identity the argument leans on, and :func:`scalar_relation` compares two
conjugators up to the scalar factor conjugation cannot see.

If the supplied (H, G) do not come from an automorphism, the construction runs
until a mathematical impossibility surfaces (an empty kernel or a singular
candidate A) and raises then; it never pre-validates, so the two-query cost
is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .automorphism import AutomorphismOracle
from .errors import (
    DimensionMismatch,
    EmptyKernel,
    FieldMismatch,
    SingularConjugator,
    SingularMatrix,
)
from .field import FieldElement, FieldSpec
from .matrix import ColumnVector, Matrix, elementary_matrix, outer_product, shift_matrix


class Outcome(Enum):
    RECOVERED = "recovered"
    EMPTY_KERNEL = "empty_kernel"
    SINGULAR_CONJUGATOR = "singular_conjugator"
    VERIFICATION_FAILED = "verification_failed"


@dataclass(frozen=True)
class ConjugationWitness:
    """The recovered conjugator with its certificate ingredients.

    ``conjugator_inv`` is computed eagerly: every downstream verification
    needs it, and its existence doubles as the invertibility certificate.
    ``kernel_vector`` is the canonical nonzero vector a the columns were built
    from.
    """

    conjugator: Matrix
    conjugator_inv: Matrix
    kernel_vector: ColumnVector
    n: int
    spec: FieldSpec


@dataclass(frozen=True)
class StructureCheckReport:
    """Exact per-identity outcome for the relations the construction rests on.

    All flags are true whenever (H, G) arise from a genuine automorphism and
    the witness came from :func:`build_conjugator`.
    """

    shift_nilpotent_ok: bool  # G^n = 0
    corner_chain_ok: bool  # H G^k H = 0 for 0 <= k <= n-2
    idempotent_ok: bool  # (G^{n-1} H)^2 = G^{n-1} H
    kernel_rank_ok: bool  # rank(I - G^{n-1} H) = n - 1
    intertwine_E_ok: bool  # A E_{n,1} = H A
    intertwine_S_ok: bool  # A S = G A
    first_failing: str | None = None

    @property
    def nilpotent_ok(self) -> bool:
        return self.shift_nilpotent_ok and self.corner_chain_ok

    @property
    def all_ok(self) -> bool:
        return (
            self.nilpotent_ok
            and self.idempotent_ok
            and self.kernel_rank_ok
            and self.intertwine_E_ok
            and self.intertwine_S_ok
        )


@dataclass
class RecoveryReport:
    """Machine-readable outcome of a recovery or verification run.

    ``query_count`` is the number of oracle queries the reporting phase
    consumed: recovery reports carry the two-query recovery cost, while
    :func:`verify_conjugation` and :func:`certify` report the oracle's total
    after certification.  ``scalar`` is the ratio A = scalar * B when a
    ground-truth B is known.  ``verified_pairs`` counts the basis pairs the
    certificate confirmed (n^2 on success).
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


def projected_idempotent(h: Matrix, g: Matrix, n: int) -> Matrix:
    """G^{n-1} H, the candidate image of the rank-1 corner idempotent.

    For n = 1 the empty power is the identity, so the result is H itself.
    """
    _check_pair(h, g, n)
    result = h
    for _ in range(n - 1):
        result = g @ result
    return result


def kernel_vector(projector: Matrix) -> ColumnVector:
    """The canonical nonzero vector annihilated by I - projector.

    Takes the first vector of the deterministic nullspace basis.  Raises
    EmptyKernel when I - projector is injective, which signals that the
    generator images did not come from an automorphism.
    """
    if not projector.is_square:
        raise DimensionMismatch("projector must be square")
    diff = Matrix.identity(projector.spec, projector.rows) - projector
    basis = diff.nullspace_basis()
    if not basis:
        raise EmptyKernel("identity minus projector is injective")
    return basis[0]


def build_conjugator(h: Matrix, g: Matrix, n: int) -> ConjugationWitness:
    """Assemble the conjugator from the two generator images.

    Columns are produced right to left with n-1 matrix-vector products:
    the last column is Ha, and each step left-multiplies by G, so column i
    holds G^{n-i} H a.  The inverse is computed eagerly; if it does not exist
    the input pair was invalid and SingularConjugator is raised.
    """
    _check_pair(h, g, n)
    a = kernel_vector(projected_idempotent(h, g, n))
    columns = [None] * n
    vec = h @ a
    for i in range(n, 0, -1):
        columns[i - 1] = vec
        if i > 1:
            vec = g @ vec
    conjugator = Matrix.from_columns(columns)
    try:
        conjugator_inv = conjugator.inverse()
    except SingularMatrix as exc:
        raise SingularConjugator(
            "assembled candidate conjugator is singular"
        ) from exc
    return ConjugationWitness(conjugator, conjugator_inv, a, n, h.spec)


def check_structure_identities(
    h: Matrix, g: Matrix, witness: ConjugationWitness
) -> StructureCheckReport:
    """Evaluate every structural identity exactly and report per-identity flags.

    The chain H G^k H = 0 is indexed by 0 <= k <= n-2 and is therefore empty
    at n = 1; the remaining checks degenerate gracefully there.
    """
    n = witness.n
    _check_pair(h, g, n)
    spec = witness.spec
    zero = Matrix.zero(spec, n, n)

    shift_nilpotent_ok = g.power(n) == zero
    corner_chain_ok = True
    left = h  # H G^k, advanced by one G per step
    for _ in range(n - 1):
        if left @ h != zero:
            corner_chain_ok = False
            break
        left = left @ g
    projector = projected_idempotent(h, g, n)
    idempotent_ok = projector @ projector == projector
    kernel_rank_ok = (Matrix.identity(spec, n) - projector).rank() == n - 1
    intertwine_E_ok, intertwine_S_ok = _intertwines(witness, h, g)
    named = (
        ("nilpotent", shift_nilpotent_ok and corner_chain_ok),
        ("idempotent", idempotent_ok),
        ("kernel_rank", kernel_rank_ok),
        ("intertwine_E", intertwine_E_ok),
        ("intertwine_S", intertwine_S_ok),
    )
    return StructureCheckReport(
        shift_nilpotent_ok=shift_nilpotent_ok,
        corner_chain_ok=corner_chain_ok,
        idempotent_ok=idempotent_ok,
        kernel_rank_ok=kernel_rank_ok,
        intertwine_E_ok=intertwine_E_ok,
        intertwine_S_ok=intertwine_S_ok,
        first_failing=next((name for name, ok in named if not ok), None),
    )


def _intertwines(
    witness: ConjugationWitness, h: Matrix, g: Matrix
) -> tuple[bool, bool]:
    """Whether A E_{n,1} = H A and whether A S = G A, for the witness's A."""
    a_mat = witness.conjugator
    spec, n = witness.spec, witness.n
    return (
        a_mat @ elementary_matrix(spec, n, n, 1) == h @ a_mat,
        a_mat @ shift_matrix(spec, n) == g @ a_mat,
    )


def certify(
    oracle: AutomorphismOracle, witness: ConjugationWitness, h: Matrix, g: Matrix
) -> RecoveryReport:
    """Certify that conjugation by the witness's A is the oracle's map.

    ``(h, g)`` are the oracle's images of E_{n,1} and S.  For a generator
    pair the two intertwines are the whole certificate: A is invertible, so
    A E_{n,1} = H A and A S = G A give
    A E_{i,j} A^-1 = A S^{n-i} E_{n,1} S^{j-1} A^-1 = G^{n-i} H G^{j-1},
    which is the pair's image of E_{i,j}; all n^2 pairs are then verified at
    O(n^3) cost.  If an intertwine fails, the pair's expansion is swept so
    that the report names the first failing basis pair; if the sweep passes
    anyway, conjugation by A does not reproduce (H, G) and the report says so.

    Conjugation and table oracles get the n^2-query sweep of
    :func:`verify_conjugation`: a table can be any linear map, so only the
    sweep shows that A matches it.  ``query_count`` is the oracle's total
    afterwards; a generator-pair oracle is never queried here.
    """
    if oracle.backing_kind != "generator_pair":
        return verify_conjugation(oracle, witness)
    n = witness.n
    if all(_intertwines(witness, h, g)):
        return RecoveryReport(
            outcome=Outcome.RECOVERED,
            n=n,
            spec=witness.spec,
            query_count=oracle.query_count,
            verified_pairs=n * n,
        )
    report = verify_conjugation(oracle.to_full_table(), witness)
    report.query_count = oracle.query_count
    if report.outcome is Outcome.RECOVERED:
        report.outcome = Outcome.VERIFICATION_FAILED
        report.detail = "conjugation does not reproduce the generator images"
    return report


def verify_conjugation(
    phi: AutomorphismOracle, witness: ConjugationWitness
) -> RecoveryReport:
    """Certify A E_{i,j} A^-1 = phi(E_{i,j}) over the whole matrix-unit basis.

    Needs an oracle that answers arbitrary basis queries (full-table or
    conjugation backing).  A E_{i,j} A^-1 collapses to the outer product of
    A's i-th column with the j-th row of A^-1, so the witness side is cheap;
    the phi side consumes one oracle query per basis pair.  Stops at the first
    failing pair.
    """
    n = witness.n
    spec = witness.spec
    checked = 0
    for i in range(1, n + 1):
        col = witness.conjugator.column(i)
        for j in range(1, n + 1):
            expected = phi.apply(elementary_matrix(spec, n, i, j))
            actual = outer_product(col, witness.conjugator_inv.row_vector(j))
            checked += 1
            if actual != expected:
                return RecoveryReport(
                    outcome=Outcome.VERIFICATION_FAILED,
                    n=n,
                    spec=spec,
                    query_count=phi.query_count,
                    failing_pair=(i, j),
                    verified_pairs=checked - 1,
                    detail=f"conjugation disagrees with the map on basis pair ({i},{j})",
                )
    return RecoveryReport(
        outcome=Outcome.RECOVERED,
        n=n,
        spec=spec,
        query_count=phi.query_count,
        verified_pairs=checked,
    )


def scalar_relation(left: Matrix, right: Matrix) -> FieldElement | None:
    """The nonzero scalar c with left = c * right, if one exists.

    Conjugation cannot distinguish scalar multiples, because only scalar
    matrices commute with the whole algebra; two valid conjugators for the same map
    differ exactly by such a c.  Returns None when left * right^-1 is not a
    scalar matrix.  Both inputs must be invertible (SingularMatrix otherwise).
    """
    if not left.is_square or not right.is_square:
        raise DimensionMismatch("scalar comparison needs square matrices")
    if left.spec != right.spec or left.rows != right.rows:
        raise DimensionMismatch("matrices must share field and size")
    quotient = left @ right.inverse()
    n = quotient.rows
    lam = quotient._data[0]
    for i in range(n):
        for j in range(n):
            v = quotient._data[i * n + j]
            if i == j:
                if v != lam:
                    return None
            elif v:
                return None
    if not lam:
        raise SingularMatrix("left matrix is singular")
    return FieldElement(left.spec, lam)


def _check_pair(h: Matrix, g: Matrix, n: int) -> None:
    if n < 1:
        raise DimensionMismatch("dimension must be positive")
    if h.spec != g.spec:
        raise FieldMismatch("generator images over different fields")
    if (h.rows, h.cols) != (n, n) or (g.rows, g.cols) != (n, n):
        raise DimensionMismatch(f"generator images must be {n}x{n}")

"""Seeded random instance generation and the property harness.

Ground truth comes first: since every automorphism of the full matrix algebra
is inner, drawing a random invertible B and handing the recovery the map
X -> B X B^-1 gives every trial an exact expected answer: the recovered A
must equal B up to a nonzero scalar.  ``run_roundtrip_suite`` is the one pass:
each trial recovers A from two queries, evaluates the structural identities
on A once with ``check_structure_identities`` and passes A's witness to
``certify``, the same certificate ``recover`` uses (the n^2-pair basis sweep
for conjugation and table oracles, the two intertwines for a generator
pair).  No trial runs ``validate``: a passing sweep already shows the map is
conjugation by the invertible A.  Given an ``IdentitySummary``, a ground-truth trial also records
every identity the construction relies on there, read from the objects it
built; ``run_identity_suite`` is that pass seen through its summary alone.

Determinism: each (field, n, trial) cell derives its own 63-bit seed by
hashing the master seed with the cell coordinates (SHA-256), and feeds it to
an independent ``random.Random`` stream.  Identical configs therefore produce
identical report lists, trials are order-independent, and any failure is
reproducible from the per-trial seed recorded in its report.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field as dataclass_field, replace
from fractions import Fraction
from functools import partial

from .automorphism import AutomorphismOracle
from .errors import EmptyKernel, GenerationExhausted, SingularConjugator
from .field import FieldSpec, rationals
from .matrix import Matrix, elementary_matrix
from .skolem_noether import (
    Outcome,
    RecoveryReport,
    build_conjugator,
    build_failure_outcome,
    certify,
    check_structure_identities,
    kernel_vector,
    projected_idempotent,
    scalar_relation,
)

# Per-trial streams are Mersenne Twister generators seeded by SHA-256-derived
# cell seeds; the identifier is recorded in reports for reproducibility.
RNG_ALGORITHM = "mt19937/sha256-derived"

# Retry cap for rejection sampling of invertible matrices; practically
# unreachable except for adversarially stubbed generators.
MAX_GENERATION_ATTEMPTS = 10000

ADVERSARY_KINDS = ("transpose", "random_pair")

# Largest dimension a fuzz run accepts, in FuzzConfig and on the command line.
MAX_FUZZ_N = 16


@dataclass(frozen=True)
class FuzzConfig:
    """Parameters of one fuzzing sweep.

    ``entry_bound`` caps the absolute numerator and the denominator of random
    rational entries; prime-field entries are uniform over the whole field and
    ignore it.  ``adversary`` swaps ground-truth conjugations for a negative
    control: "transpose" (the transpose map) or "random_pair" (random H, and G
    redrawn while G^n = 0); ``expects_recovery`` says which trials recover.
    """

    n_range: tuple[int, int] = (1, 8)
    field_specs: tuple[FieldSpec, ...] = (rationals(),)
    trials_per_cell: int = 10
    seed: int = 0
    entry_bound: int = 5
    adversary: str | None = None

    def __post_init__(self) -> None:
        lo, hi = self.n_range
        if not (1 <= lo <= hi <= MAX_FUZZ_N):
            raise ValueError(f"n_range must satisfy 1 <= lo <= hi <= {MAX_FUZZ_N}")
        if not self.field_specs:
            raise ValueError("need at least one field spec")
        if len(set(self.field_specs)) < len(self.field_specs):
            raise ValueError("each field may appear only once")
        if self.trials_per_cell < 1:
            raise ValueError("trials_per_cell must be positive")
        if self.entry_bound < 1:
            raise ValueError("entry_bound must be positive")
        if self.adversary is not None and self.adversary not in ADVERSARY_KINDS:
            raise ValueError(f"unknown adversary kind {self.adversary!r}")

    def expects_recovery(self, n: int) -> bool:
        """Every ground-truth trial recovers; a transpose trial exactly at n = 1,
        where it is the identity map; a random pair never, as its G is not
        nilpotent and S is."""
        return self.adversary is None or (self.adversary == "transpose" and n == 1)

    def cells(self):
        lo, hi = self.n_range
        for n in range(lo, hi + 1):
            for spec in self.field_specs:
                yield n, spec


@dataclass
class IdentitySummary:
    """Aggregated outcome of an identity sweep: assertion counts per identity
    and a flat list of violation descriptions (empty on success)."""

    total_trials: int = 0
    assertion_counts: dict = dataclass_field(default_factory=dict)
    violations: list = dataclass_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def _record(self, identity: str, passed: bool, context: str) -> None:
        self.assertion_counts[identity] = self.assertion_counts.get(identity, 0) + 1
        if not passed:
            self.violations.append(f"{identity} violated at {context}")

    def record_trial(
        self, context: str, h: Matrix, g: Matrix, queries: int, built, checks=None
    ) -> None:
        """Record one conjugation trial's assertions from what its recovery
        built: the images (h, g), the queries they took, ``built`` (the witness,
        or the EmptyKernel or SingularConjugator that stopped the construction)
        and the structure report ``checks`` of the witness's A.  P = G^(n-1) H
        is formed here by ``projected_idempotent`` on every path, since a build
        from a rank-1 H does not form it; the kernel vector a is the witness's
        when there is one, and det(I - P) is eliminated only when a does not
        settle it.  A witness exists only for an invertible A: it is full rank."""
        n = h.rows
        self.total_trials += 1
        self._record("query_economy", queries == 2, context)
        failed = isinstance(built, (EmptyKernel, SingularConjugator))
        projector = projected_idempotent(h, g)
        identity = Matrix.identity(h.spec, n)
        if isinstance(built, EmptyKernel):
            singular = (identity - projector).det().is_zero()
            self._record("det_projector_zero", singular, context)
            self._record("kernel_vector_nonzero", False, context)
            return
        a_vec = kernel_vector(projector) if failed else built.kernel_vector
        nonzero = not a_vec.is_zero()
        # (I - P)a = 0 is P a = a, and a nonzero such a proves det(I - P) = 0
        fixed = projector @ a_vec == a_vec
        det_zero = (nonzero and fixed) or (identity - projector).det().is_zero()
        self._record("det_projector_zero", det_zero, context)
        self._record("kernel_vector_nonzero", nonzero, context)
        self._record("kernel_vector_annihilated", fixed, context)
        self._record("fixed_point", fixed, context)
        if failed:
            self._record("conjugator_built", False, f"{context}: {built}")
            return
        self._record("conjugator_built", True, context)
        self._record("conjugator_full_rank", True, context)  # A^-1 exists
        self._record("projector_idempotent", checks.idempotent_ok, context)
        self._record("projector_kernel_rank", checks.kernel_rank_ok, context)
        self._record("intertwine_E", checks.intertwine_E_ok, context)
        self._record("intertwine_S", checks.intertwine_S_ok, context)
        self._record("shift_image_nilpotent", checks.shift_nilpotent_ok, context)
        if n >= 2:  # the chain H G^k H = 0, 0 <= k <= n-2, is empty at n = 1
            self._record("corner_chain_zero", checks.corner_chain_ok, context)


def derive_trial_seed(master_seed: int, spec: FieldSpec, n: int, trial: int) -> int:
    """Independent 63-bit stream seed for one (field, n, trial) cell."""
    key = f"GFp:{spec.modulus}" if spec.is_prime_field else "Q"
    tag = f"{master_seed}|{key}|{n}|{trial}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:8], "big") >> 1


def random_matrix(
    spec: FieldSpec, n: int, rng: random.Random, entry_bound: int
) -> Matrix:
    """Uniform dense n x n matrix; rational entries have |numerator| and
    denominator bounded by entry_bound."""
    if spec.is_prime_field:
        p = spec.modulus
        data = tuple(rng.randrange(p) for _ in range(n * n))
    else:
        data = tuple(
            Fraction(rng.randint(-entry_bound, entry_bound), rng.randint(1, entry_bound))
            for _ in range(n * n)
        )
    return Matrix._raw_new(spec, n, n, data)


def random_invertible(
    spec: FieldSpec, n: int, rng: random.Random, entry_bound: int
) -> Matrix:
    """Rejection-sample an invertible n x n matrix (retry while det = 0)."""
    for _ in range(MAX_GENERATION_ATTEMPTS):
        candidate = random_matrix(spec, n, rng, entry_bound)
        if not candidate.det().is_zero():
            return candidate
    raise GenerationExhausted(
        f"no invertible {n}x{n} matrix over {spec} in {MAX_GENERATION_ATTEMPTS} draws"
    )


def _transpose_oracle(spec: FieldSpec, n: int) -> AutomorphismOracle:
    """The transpose map as a full table: the standard non-example, since it
    reverses products and is never inner for n >= 2."""
    images = {
        (i, j): elementary_matrix(spec, n, j, i)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    }
    return AutomorphismOracle.from_table(spec, n, images)


def _recovery_trial(
    cfg: FuzzConfig,
    spec: FieldSpec,
    n: int,
    trial: int,
    summary: IdentitySummary | None,
) -> RecoveryReport:
    trial_seed = derive_trial_seed(cfg.seed, spec, n, trial)
    rng = random.Random(trial_seed)
    if cfg.adversary is None:
        oracle = AutomorphismOracle.conjugation_by(
            random_invertible(spec, n, rng, cfg.entry_bound)
        )
    elif cfg.adversary == "transpose":
        oracle = _transpose_oracle(spec, n)
    else:
        h = random_matrix(spec, n, rng, cfg.entry_bound)
        g = random_matrix(spec, n, rng, cfg.entry_bound)
        while g.power(n).is_zero():  # at most 1/2 of the draws are nilpotent
            g = random_matrix(spec, n, rng, cfg.entry_bound)
        oracle = AutomorphismOracle.from_generator_pair(h, g)

    h_img, g_img = oracle.query_generators()
    queries = oracle.query_count
    report = partial(
        RecoveryReport,
        n=n,
        spec=spec,
        seed=trial_seed,
        query_count=queries,
        rng_algorithm=RNG_ALGORITHM,
    )
    context = f"n={n} field={spec} seed={trial_seed}"
    try:
        witness = build_conjugator(h_img, g_img)
    except (EmptyKernel, SingularConjugator) as exc:
        if summary is not None:
            summary.record_trial(context, h_img, g_img, queries, exc)
        return report(build_failure_outcome(exc))

    checks = check_structure_identities(h_img, g_img, witness.conjugator)
    if summary is not None:
        summary.record_trial(context, h_img, g_img, queries, witness, checks)
    verification = certify(oracle, witness)
    if verification.outcome is not Outcome.RECOVERED:
        return report(
            Outcome.VERIFICATION_FAILED,
            checks=checks,
            failing_pair=verification.failing_pair,
            verified_pairs=verification.verified_pairs,
            detail=verification.detail,
        )

    scalar = None
    if oracle.backing_kind == "conjugation":
        scalar = scalar_relation(witness.conjugator, oracle.backing.conjugator)
        if scalar is None:
            return report(
                Outcome.VERIFICATION_FAILED,
                checks=checks,
                verified_pairs=verification.verified_pairs,
                detail="conjugator is not a scalar multiple of the ground truth",
            )
    return report(
        Outcome.RECOVERED,
        scalar=scalar,
        checks=checks,
        verified_pairs=verification.verified_pairs,
    )


def run_roundtrip_suite(
    cfg: FuzzConfig, summary: IdentitySummary | None = None
) -> list[RecoveryReport]:
    """One recovery per (n, field, trial) cell, reported in deterministic
    (n, field, trial) order.  Individual failures are recorded, never thrown.

    Given ``summary`` and no adversary, each trial also records its identity
    assertions there (see ``IdentitySummary.record_trial``); adversarial
    trials record none, since the identities presuppose an automorphism.
    """
    if cfg.adversary is not None:
        summary = None
    return [
        _recovery_trial(cfg, spec, n, trial, summary)
        for n, spec in cfg.cells()
        for trial in range(cfg.trials_per_cell)
    ]


def run_identity_suite(cfg: FuzzConfig) -> IdentitySummary:
    """The identity summary of the roundtrip pass over ``cfg``'s cells, always
    run on the conjugation family, whatever ``cfg.adversary`` says: the
    identities presuppose a genuine automorphism."""
    summary = IdentitySummary()
    run_roundtrip_suite(replace(cfg, adversary=None), summary)
    return summary

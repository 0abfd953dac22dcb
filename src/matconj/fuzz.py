"""Seeded random instance generation and the property harness.

Ground truth comes first: since every automorphism of the full matrix algebra
is inner, drawing a random invertible B and handing the recovery the map
X -> B X B^-1 gives every trial an exact expected answer: the recovered A
must equal B up to a nonzero scalar.  ``run_roundtrip_suite`` is the one pass:
each trial recovers A from two queries, evaluates the structural identities
on A once with ``check_structure_identities`` and passes A's witness to
``certify``, the same certificate ``recover`` uses (the n^2-pair basis sweep
for conjugation and table oracles, the two intertwines for a generator
pair).  A trial's report is ``certify``'s, plus the trial seed, the two-query
count, the structure checks and the RNG identifier; on a conjugation oracle
it also carries the scalar relating A to B, or fails if there is none.  Only
a trial whose build raised makes its own report.  No trial runs
``validate``: a passing sweep already shows the map is conjugation by the
invertible A.  Given an ``IdentitySummary``, the pass then tallies each
ground-truth trial's report there, every identity the construction relies on,
so the identities are evaluated once, by ``check_structure_identities``;
``run_identity_suite`` is that pass seen through its summary alone.

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
    scalar_relation,
)

# Per-trial streams are Mersenne Twister generators seeded by SHA-256-derived
# cell seeds; the identifier is recorded in reports for reproducibility.
RNG_ALGORITHM = "mt19937/sha256-derived"

# Retry cap for rejection sampling of invertible matrices; practically
# unreachable except for adversarially stubbed generators.
MAX_GENERATION_ATTEMPTS = 10000

ADVERSARY_KINDS = ("transpose", "random_pair")

# Cap on |numerator| and denominator of the rational entries `gen` and `fuzz`
# draw; prime-field entries are uniform over the whole field.
ENTRY_BOUND = 5

# Largest dimension a fuzz run accepts, in FuzzConfig and on the command line.
MAX_FUZZ_N = 16


@dataclass(frozen=True)
class FuzzConfig:
    """Parameters of one fuzzing sweep.

    Rational entries are drawn under ``ENTRY_BOUND``, as in ``gen``.
    ``adversary`` swaps ground-truth conjugations for a negative control:
    "transpose" (the transpose map) or "random_pair" (random H, and G
    redrawn while G^n = 0); ``expects_recovery`` says which trials recover.
    """

    n_range: tuple[int, int] = (1, 8)
    field_specs: tuple[FieldSpec, ...] = (rationals(),)
    trials_per_cell: int = 10
    seed: int = 0
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
    and a flat list of violation descriptions (empty on success), tallied
    from the trials' reports by ``record_trial``."""

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

    def record_trial(self, report: RecoveryReport) -> None:
        """Tally one ground-truth trial's report; nothing is evaluated here.

        Every flag of ``report.checks`` (see :func:`check_structure_identities`)
        is recorded as it is, and the rest follow from them.  A E_{n,1} = H A
        and A S = G A give A E_{1,1} = P A for P = G^{n-1} H, so a = A e_1
        has P a = a, and a nonzero fixed vector makes I - P singular.  A
        witness exists only for an invertible A, so A is full rank and its
        column a is nonzero.  A report without checks comes from a build that
        raised: it records the query count and the failed build, named by its
        outcome.
        """
        checks = report.checks
        context = f"n={report.n} field={report.spec} seed={report.seed}"
        self.total_trials += 1
        self._record("query_economy", report.query_count == 2, context)
        if checks is None:
            self._record("conjugator_built", False, f"{context}: {report.outcome.value}")
            return
        fixed = checks.intertwine_E_ok and checks.intertwine_S_ok
        self._record("det_projector_zero", fixed, context)
        self._record("kernel_vector_nonzero", True, context)
        self._record("kernel_vector_annihilated", fixed, context)
        self._record("fixed_point", fixed, context)
        self._record("conjugator_built", True, context)
        self._record("conjugator_full_rank", True, context)
        self._record("projector_idempotent", checks.idempotent_ok, context)
        self._record("projector_kernel_rank", checks.kernel_rank_ok, context)
        self._record("intertwine_E", checks.intertwine_E_ok, context)
        self._record("intertwine_S", checks.intertwine_S_ok, context)
        self._record("shift_image_nilpotent", checks.shift_nilpotent_ok, context)
        if report.n >= 2:  # the chain H G^k H = 0, 0 <= k <= n-2, is empty at n = 1
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
    return AutomorphismOracle.from_table(images)


def _recovery_trial(
    cfg: FuzzConfig, spec: FieldSpec, n: int, trial: int
) -> RecoveryReport:
    trial_seed = derive_trial_seed(cfg.seed, spec, n, trial)
    rng = random.Random(trial_seed)
    if cfg.adversary is None:
        oracle = AutomorphismOracle.conjugation_by(
            random_invertible(spec, n, rng, ENTRY_BOUND)
        )
    elif cfg.adversary == "transpose":
        oracle = _transpose_oracle(spec, n)
    else:
        h = random_matrix(spec, n, rng, ENTRY_BOUND)
        g = random_matrix(spec, n, rng, ENTRY_BOUND)
        while g.power(n).is_zero():  # at most 1/2 of the draws are nilpotent
            g = random_matrix(spec, n, rng, ENTRY_BOUND)
        oracle = AutomorphismOracle.from_generator_pair(h, g)

    h_img, g_img = oracle.query_generators()
    queries = oracle.query_count
    facts = dict(seed=trial_seed, query_count=queries, rng_algorithm=RNG_ALGORITHM)
    try:
        witness = build_conjugator(h_img, g_img)
    except (EmptyKernel, SingularConjugator) as exc:
        return RecoveryReport(build_failure_outcome(exc), n, spec, **facts)

    checks = check_structure_identities(h_img, g_img, witness.conjugator)
    report = replace(certify(oracle, witness), checks=checks, **facts)
    if report.outcome is Outcome.RECOVERED and oracle.backing.kind == "conjugation":
        report.scalar = scalar_relation(witness.conjugator, oracle.backing.conjugator)
        if report.scalar is None:
            report.outcome = Outcome.VERIFICATION_FAILED
            report.detail = "conjugator is not a scalar multiple of the ground truth"
    return report


def run_roundtrip_suite(
    cfg: FuzzConfig, summary: IdentitySummary | None = None
) -> list[RecoveryReport]:
    """One recovery per (n, field, trial) cell, reported in deterministic
    (n, field, trial) order.  Individual failures are recorded, never thrown.

    Given ``summary`` and no adversary, each report is then tallied there
    (see ``IdentitySummary.record_trial``); adversarial reports are not,
    since the identities presuppose an automorphism.
    """
    reports = [
        _recovery_trial(cfg, spec, n, trial)
        for n, spec in cfg.cells()
        for trial in range(cfg.trials_per_cell)
    ]
    if summary is not None and cfg.adversary is None:
        for report in reports:
            summary.record_trial(report)
    return reports


def run_identity_suite(cfg: FuzzConfig) -> IdentitySummary:
    """The identity summary of the roundtrip pass over ``cfg``'s cells, always
    run on the conjugation family, whatever ``cfg.adversary`` says: the
    identities presuppose a genuine automorphism."""
    summary = IdentitySummary()
    run_roundtrip_suite(replace(cfg, adversary=None), summary)
    return summary

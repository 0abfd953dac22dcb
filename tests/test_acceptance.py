"""Acceptance gate: one test per criterion, every tolerance exact (zero).

Criteria, in order:
  1. round-trip recovery A = scalar * B on a 40-cell grid, 100 trials per cell
  2. conjugation certificate on the full matrix-unit basis in every trial
  3. exactly two oracle queries per recovery
  4. every structural identity holds exactly in every trial
  5. negative controls never produce a false recovery
  6. brute-force sweeps over small general linear groups agree with the
     randomized harness
  7. seed-identical runs emit byte-identical artifacts

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines and the measured sweep runtime.
"""

import itertools
import json
import random
import time

import pytest

from matconj import (
    AutomorphismOracle,
    FuzzConfig,
    IdentitySummary,
    Matrix,
    Outcome,
    build_conjugator,
    derive_trial_seed,
    elementary_matrix,
    prime_field,
    random_invertible,
    rationals,
    run_roundtrip_suite,
    scalar_relation,
    verify_conjugation,
)
from matconj.cli import main

ACCEPTANCE_SEED = 20260808
FIELDS = (
    rationals(),
    prime_field(2),
    prime_field(3),
    prime_field(7),
    prime_field(101),
)
GRID = FuzzConfig(
    n_range=(1, 8),
    field_specs=FIELDS,
    trials_per_cell=100,
    seed=ACCEPTANCE_SEED,
)
CELLS = 8 * len(FIELDS)


def announce(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def grid_run():
    """One pass over GRID: the roundtrip reports, the identity summary its
    trials recorded, and the pass's wall time."""
    summary = IdentitySummary()
    started = time.monotonic()
    reports = run_roundtrip_suite(GRID, summary)
    return reports, summary, time.monotonic() - started


@pytest.fixture(scope="module")
def grid_reports(grid_run):
    reports, _, elapsed = grid_run
    return reports, elapsed


@pytest.fixture(scope="module")
def identity_summary(grid_run):
    return grid_run[1]


def test_criterion_1_roundtrip_recovery(grid_reports):
    reports, elapsed = grid_reports
    assert len(reports) == CELLS * 100
    failures = [r for r in reports if r.outcome is not Outcome.RECOVERED]
    assert failures == []
    for report in reports:
        assert report.scalar is not None
        assert not report.scalar.is_zero()
    announce(
        1,
        True,
        f"{len(reports)} trials recovered A = scalar*B exactly "
        f"(sweep {elapsed:.1f}s, desk target 60s)",
    )


def test_criterion_2_conjugation_certificate(grid_reports):
    reports, _ = grid_reports
    for report in reports:
        assert report.verified_pairs == report.n * report.n
        assert report.failing_pair is None
    announce(2, True, "basis-wide conjugation certificate exact in every trial")


def test_criterion_3_query_economy(grid_reports):
    reports, _ = grid_reports
    for report in reports:
        assert report.query_count == 2
    announce(3, True, "every recovery consumed exactly 2 oracle queries")


def test_criterion_4_proof_identity_suite(identity_summary):
    summary = identity_summary
    assert summary.total_trials == CELLS * 100
    assert summary.violations == []
    counts = summary.assertion_counts
    trials = summary.total_trials
    for identity in (
        "det_projector_zero",
        "kernel_vector_nonzero",
        "kernel_vector_annihilated",
        "fixed_point",
        "shift_image_nilpotent",
        "intertwine_E",
        "intertwine_S",
        "conjugator_full_rank",
        "projector_idempotent",
        "projector_kernel_rank",
        "query_economy",
    ):
        assert counts[identity] == trials, identity
    # the corner chain H G^k H is only defined for n >= 2
    assert counts["corner_chain_zero"] == 7 * len(FIELDS) * 100
    announce(
        4,
        True,
        f"{sum(counts.values())} identity assertions, zero violations",
    )


def test_criterion_5_negative_controls():
    for n in range(2, 7):
        spec = rationals()
        images = {
            (i, j): elementary_matrix(spec, n, j, i)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        }
        report = AutomorphismOracle.from_table(images).validate()
        assert not report.multiplicative_ok
        assert not report.is_automorphism

    adversarial = FuzzConfig(
        n_range=(2, 5),
        field_specs=(rationals(), prime_field(2), prime_field(5)),
        trials_per_cell=9,
        seed=ACCEPTANCE_SEED,
        adversary="random_pair",
    )
    reports = run_roundtrip_suite(adversarial)
    assert len(reports) >= 100
    allowed = {
        Outcome.EMPTY_KERNEL,
        Outcome.SINGULAR_CONJUGATOR,
        Outcome.VERIFICATION_FAILED,
    }
    for report in reports:
        assert report.outcome in allowed
        assert report.outcome is not Outcome.RECOVERED
    announce(
        5,
        True,
        f"transpose fails validation for n=2..6; {len(reports)} adversarial "
        "pairs, zero false recoveries",
    )


def _all_invertible(spec, n):
    values = list(range(spec.modulus))
    for entries in itertools.product(values, repeat=n * n):
        m = Matrix(spec, n, n, entries)
        if not m.det().is_zero():
            yield m


def _scalar_class_representative(m):
    # first nonzero entry normalized to 1 picks one matrix per scalar class
    for i in range(1, m.rows + 1):
        for j in range(1, m.cols + 1):
            v = m.entry(i, j)
            if not v.is_zero():
                return m.scale(v.inv())
    raise AssertionError("zero matrix cannot be invertible")


def _recover_and_match(b):
    phi = AutomorphismOracle.conjugation_by(b)
    h, g = phi.query_generators()
    assert phi.query_count == 2
    witness = build_conjugator(h, g)
    scalar = scalar_relation(witness.conjugator, b)
    assert scalar is not None and not scalar.is_zero()
    assert verify_conjugation(phi, witness).outcome is Outcome.RECOVERED


def test_criterion_6_small_scale_brute_force():
    # n = 2: complete scalar-class enumerations of the invertible matrices
    checked = 0
    for p in (2, 3):
        spec = prime_field(p)
        classes = {
            _scalar_class_representative(m) for m in _all_invertible(spec, 2)
        }
        expected = (p**2 - 1) * (p**2 - p) // (p - 1)
        assert len(classes) == expected
        for b in sorted(classes, key=repr):
            _recover_and_match(b)
            checked += 1
    # n = 3 over GF(2): the whole group, 168 matrices
    gl32 = list(_all_invertible(prime_field(2), 3))
    assert len(gl32) == 168
    for b in gl32:
        _recover_and_match(b)
        checked += 1
    # n = 3 over GF(3): the group is large; a seeded 1000-sample instead
    spec3 = prime_field(3)
    for trial in range(1000):
        rng = random.Random(derive_trial_seed(ACCEPTANCE_SEED, spec3, 3, trial))
        _recover_and_match(random_invertible(spec3, 3, rng, 5))
        checked += 1
    announce(6, True, f"{checked} brute-force instances recovered exactly")


def test_criterion_7_determinism(tmp_path):
    fuzz_args = [
        "fuzz",
        "--n",
        "1..4",
        "--fields",
        "q,gfp:2,gfp:101",
        "--trials",
        "5",
        "--seed",
        str(ACCEPTANCE_SEED),
    ]
    first = tmp_path / "fuzz1.jsonl"
    second = tmp_path / "fuzz2.jsonl"
    assert main(fuzz_args + ["--out", str(first)]) == 0
    assert main(fuzz_args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    gen_args = ["gen", "--field", "gfp:7", "--n", "5", "--seed", str(ACCEPTANCE_SEED)]
    g1 = tmp_path / "gen1.json"
    g2 = tmp_path / "gen2.json"
    assert main(gen_args + ["--out", str(g1)]) == 0
    assert main(gen_args + ["--out", str(g2)]) == 0
    assert g1.read_bytes() == g2.read_bytes()
    assert json.loads(g1.read_text())["n"] == 5
    announce(7, True, "fuzz reports and generated problems are byte-identical per seed")

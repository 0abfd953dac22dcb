"""Seeded generation, determinism, coverage, and negative controls."""

import random

import pytest

from matconj import (
    FuzzConfig,
    GenerationExhausted,
    Outcome,
    RNG_ALGORITHM,
    derive_trial_seed,
    prime_field,
    random_invertible,
    random_matrix,
    rationals,
    run_identity_suite,
    run_roundtrip_suite,
)

QQ = rationals()
GF2 = prime_field(2)


# -- config validation -------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_range": (0, 3)},
        {"n_range": (3, 2)},
        {"n_range": (1, 17)},
        {"trials_per_cell": 0},
        {"entry_bound": 0},
        {"field_specs": ()},
        {"adversary": "bogus"},
    ],
)
def test_config_rejects(kwargs):
    with pytest.raises(ValueError):
        FuzzConfig(**kwargs)


def test_config_cells_order():
    cfg = FuzzConfig(n_range=(2, 3), field_specs=(QQ, GF2), trials_per_cell=1)
    assert list(cfg.cells()) == [(2, QQ), (2, GF2), (3, QQ), (3, GF2)]


# -- random_invertible -------------------------------------------------------


def test_gf2_one_by_one_is_always_unit():
    for seed in range(10):
        m = random_invertible(GF2, 1, random.Random(seed), 5)
        assert m.entry(1, 1).is_one()


@pytest.mark.parametrize("spec", [QQ, GF2, prime_field(101)], ids=str)
def test_random_invertible_has_nonzero_det(spec):
    rng = random.Random(99)
    for n in (1, 2, 4, 6):
        assert not random_invertible(spec, n, rng, 5).det().is_zero()


def test_random_invertible_deterministic():
    a = random_invertible(QQ, 4, random.Random(1234), 5)
    b = random_invertible(QQ, 4, random.Random(1234), 5)
    assert a == b


def test_rational_entries_respect_bound():
    m = random_matrix(QQ, 5, random.Random(5), 3)
    for i in range(1, 6):
        for j in range(1, 6):
            v = m.entry(i, j).value
            assert abs(v.numerator) <= 3 * v.denominator <= 9


def test_generation_exhausted():
    class AlwaysZero:
        def randrange(self, p):
            return 0

    with pytest.raises(GenerationExhausted):
        random_invertible(GF2, 1, AlwaysZero(), 5)


def test_trial_seed_derivation_is_stable_and_splittable():
    s = derive_trial_seed(7, QQ, 3, 0)
    assert s == derive_trial_seed(7, QQ, 3, 0)
    others = {
        derive_trial_seed(7, QQ, 3, 1),
        derive_trial_seed(7, QQ, 4, 0),
        derive_trial_seed(7, GF2, 3, 0),
        derive_trial_seed(8, QQ, 3, 0),
    }
    assert s not in others and len(others) == 4


# -- roundtrip suite ---------------------------------------------------------


SMALL = FuzzConfig(
    n_range=(1, 4),
    field_specs=(QQ, prime_field(7)),
    trials_per_cell=3,
    seed=2026,
)


def test_roundtrip_small_grid_recovers_everything():
    reports = run_roundtrip_suite(SMALL)
    assert len(reports) == 4 * 2 * 3
    for report in reports:
        assert report.outcome is Outcome.RECOVERED
        assert report.query_count == 2
        assert report.scalar is not None and not report.scalar.is_zero()
        assert report.checks is not None and report.checks.all_ok
        assert report.verified_pairs == report.n * report.n
        assert report.rng_algorithm == RNG_ALGORITHM


def test_roundtrip_deterministic():
    assert run_roundtrip_suite(SMALL) == run_roundtrip_suite(SMALL)


def test_roundtrip_coverage_and_order():
    reports = run_roundtrip_suite(SMALL)
    expected = [
        (n, spec, t)
        for n in range(1, 5)
        for spec in SMALL.field_specs
        for t in range(3)
    ]
    assert [(r.n, r.spec) for r in reports] == [(n, s) for n, s, _ in expected]
    seeds = [r.seed for r in reports]
    assert len(set(seeds)) == len(seeds)


def test_empty_range_style_minimum():
    cfg = FuzzConfig(n_range=(2, 2), field_specs=(GF2,), trials_per_cell=1, seed=0)
    assert len(run_roundtrip_suite(cfg)) == 1


# -- identity suite ----------------------------------------------------------


def test_identity_suite_zero_violations():
    summary = run_identity_suite(SMALL)
    assert summary.ok
    assert summary.total_trials == 24
    assert summary.violations == []
    assert summary.assertion_counts["query_economy"] == 24
    assert summary.assertion_counts["fixed_point"] == 24


def test_identity_suite_gf2_cell():
    cfg = FuzzConfig(n_range=(2, 6), field_specs=(GF2,), trials_per_cell=4, seed=11)
    summary = run_identity_suite(cfg)
    assert summary.ok
    assert summary.assertion_counts["corner_chain_zero"] == 20


def test_identity_suite_n1_skips_chain():
    cfg = FuzzConfig(n_range=(1, 1), field_specs=(QQ,), trials_per_cell=1, seed=5)
    summary = run_identity_suite(cfg)
    assert summary.ok
    assert "corner_chain_zero" not in summary.assertion_counts
    assert summary.assertion_counts["shift_image_nilpotent"] == 1


def test_identity_suite_deterministic():
    assert run_identity_suite(SMALL) == run_identity_suite(SMALL)


# -- adversarial families ----------------------------------------------------


def test_transpose_adversary_never_recovers():
    cfg = FuzzConfig(
        n_range=(2, 4),
        field_specs=(QQ, prime_field(5)),
        trials_per_cell=2,
        seed=31,
        adversary="transpose",
    )
    for report in run_roundtrip_suite(cfg):
        assert report.outcome is Outcome.VERIFICATION_FAILED


def test_random_pair_adversary_never_recovers():
    cfg = FuzzConfig(
        n_range=(2, 4),
        field_specs=(QQ, GF2, prime_field(5)),
        trials_per_cell=4,
        seed=37,
        adversary="random_pair",
    )
    reports = run_roundtrip_suite(cfg)
    assert len(reports) == 36
    for report in reports:
        assert report.outcome in (
            Outcome.EMPTY_KERNEL,
            Outcome.SINGULAR_CONJUGATOR,
            Outcome.VERIFICATION_FAILED,
        )
        assert report.outcome is not Outcome.RECOVERED


def test_adversarial_suites_deterministic():
    cfg = FuzzConfig(
        n_range=(2, 3),
        field_specs=(QQ,),
        trials_per_cell=3,
        seed=41,
        adversary="random_pair",
    )
    assert run_roundtrip_suite(cfg) == run_roundtrip_suite(cfg)

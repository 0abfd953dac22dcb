"""Seeded generation, determinism, coverage, and negative controls."""

import dataclasses
import random

import pytest

import matconj.automorphism as automorphism_module
import matconj.fuzz as fuzz_module
import matconj.skolem_noether as sn
from matconj import (
    EmptyKernel,
    FuzzConfig,
    GenerationExhausted,
    IdentitySummary,
    Outcome,
    RNG_ALGORITHM,
    derive_trial_seed,
    prime_field,
    random_invertible,
    random_matrix,
    rationals,
    run_identity_suite,
    SingularConjugator,
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
        {"field_specs": ()},
        {"field_specs": (QQ, GF2, QQ)},
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
        assert m.entry(1, 1) == m.spec.element(1)


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
        assert report.checks is not None and report.checks.first_failing is None
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


def test_one_pass_builds_each_cell_once(monkeypatch):
    calls = {"projected_idempotent": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in (
        "random_invertible",
        "build_conjugator",
        "check_structure_identities",
        "certify",
    ):
        counted(fuzz_module, name)
    # H is read once by the build and once by the report; no P is formed,
    # since a rank-1 H needs none and the summary tallies the report, and
    # every outer product is one of certify's n^2 basis pairs, formed by the
    # witness's image(i, j)
    counted(sn, "_krylov")
    counted(automorphism_module, "outer_product")
    counted(sn, "projected_idempotent")
    summary = IdentitySummary()
    reports = run_roundtrip_suite(SMALL, summary)
    assert len(reports) == summary.total_trials == 24
    certified = sum(report.verified_pairs for report in reports)
    assert certified == sum(report.n**2 for report in reports)
    assert calls == {
        "random_invertible": 24,
        "build_conjugator": 24,
        "check_structure_identities": 24,
        "certify": 24,
        "_krylov": 48,
        "outer_product": certified,
        "projected_idempotent": 0,
    }


def test_one_pass_matches_both_suites():
    summary = IdentitySummary()
    assert run_roundtrip_suite(SMALL, summary) == run_roundtrip_suite(SMALL)
    assert summary == run_identity_suite(SMALL)
    assert summary.ok
    assert sum(summary.assertion_counts.values()) == 24 * 12 + 18


def test_adversarial_pass_records_no_identities():
    cfg = dataclasses.replace(SMALL, adversary="random_pair")
    summary = IdentitySummary()
    run_roundtrip_suite(cfg, summary)
    assert summary == IdentitySummary()
    # the identity suite always runs the conjugation family
    assert run_identity_suite(cfg) == run_identity_suite(SMALL)


def _raise(exc_type, message):
    def stub(*args, **kwargs):
        raise exc_type(message)

    return stub


def test_identity_summary_records_construction_failures(monkeypatch):
    cfg = FuzzConfig(n_range=(1, 2), field_specs=(QQ, GF2), trials_per_cell=2, seed=3)
    contexts = [
        f"n={n} field={spec} seed={derive_trial_seed(3, spec, n, trial)}"
        for n, spec in cfg.cells()
        for trial in range(2)
    ]
    # a build that raised leaves a report with no checks: the tally records
    # the two queries and the failed build, named by the report's outcome
    for exc_type, outcome in (
        (EmptyKernel, Outcome.EMPTY_KERNEL),
        (SingularConjugator, Outcome.SINGULAR_CONJUGATOR),
    ):
        monkeypatch.setattr(fuzz_module, "build_conjugator", _raise(exc_type, "stubbed"))
        summary = run_identity_suite(cfg)
        assert summary.assertion_counts == {"query_economy": 8, "conjugator_built": 8}
        assert summary.violations == [
            f"conjugator_built violated at {c}: {outcome.value}" for c in contexts
        ]
        assert {r.outcome for r in run_roundtrip_suite(cfg)} == {outcome}
        monkeypatch.undo()


def test_identity_summary_derives_the_fixed_point_from_the_intertwines():
    # A E_{n,1} = H A and A S = G A give P A e_1 = A e_1: when A S = G A
    # fails, so do det(I - P) = 0, (I - P) a = 0 and P a = a, in key order
    cfg = FuzzConfig(n_range=(3, 3), field_specs=(QQ,), trials_per_cell=1, seed=7)
    (report,) = run_roundtrip_suite(cfg)
    broken = dataclasses.replace(
        report, checks=dataclasses.replace(report.checks, intertwine_S_ok=False)
    )
    summary = IdentitySummary()
    summary.record_trial(broken)
    context = f"n=3 field={QQ} seed={report.seed}"
    assert summary.violations == [
        f"{identity} violated at {context}"
        for identity in (
            "det_projector_zero",
            "kernel_vector_annihilated",
            "fixed_point",
            "intertwine_S",
        )
    ]
    assert summary.total_trials == 1
    assert sum(summary.assertion_counts.values()) == 13


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


def test_transpose_adversary_recovers_exactly_at_n1():
    # the transpose of a 1x1 matrix is the identity map, an automorphism
    cfg = FuzzConfig(
        n_range=(1, 3), field_specs=(QQ, GF2), trials_per_cell=2, adversary="transpose"
    )
    reports = run_roundtrip_suite(cfg)
    assert len(reports) == 12
    for report in reports:
        recovered = report.outcome is Outcome.RECOVERED
        assert recovered == (report.n == 1) == cfg.expects_recovery(report.n)


def test_random_pair_adversary_redraws_a_nilpotent_shift_image(monkeypatch):
    # no automorphism maps the nilpotent S to a G with G^n != 0, so G is
    # redrawn, in the trial's own stream, while G^n = 0; at n = 1 over GF(2)
    # half the draws are G = 0, which recovers whenever H = 1
    drawn = []
    from_pair = automorphism_module.AutomorphismOracle.from_generator_pair

    def spied(h, g):
        drawn.append((h, g))
        return from_pair(h, g)

    monkeypatch.setattr(automorphism_module.AutomorphismOracle, "from_generator_pair", spied)
    redrawn = 0
    for seed in range(1, 5):
        cfg = FuzzConfig(
            n_range=(1, 1), field_specs=(GF2,), trials_per_cell=4, seed=seed,
            adversary="random_pair",
        )
        drawn.clear()
        reports = run_roundtrip_suite(cfg)
        assert Outcome.RECOVERED not in {r.outcome for r in reports}, seed
        for trial, (h, g) in enumerate(drawn):
            rng = random.Random(derive_trial_seed(seed, GF2, 1, trial))
            assert h == random_matrix(GF2, 1, rng, 5)
            draws = [random_matrix(GF2, 1, rng, 5)]
            while draws[-1].is_zero():
                draws.append(random_matrix(GF2, 1, rng, 5))
            assert g == draws[-1] and not g.is_zero()
            redrawn += len(draws) > 1
    assert redrawn >= 4


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

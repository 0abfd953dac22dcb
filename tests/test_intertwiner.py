"""The pair decision of ``recover`` against the intertwiner space.

(H, G) comes from an automorphism iff the solutions X of X E_{n,1} = H X and
X S = G X are the multiples of one invertible matrix
(``helpers.intertwiner_reference``, on sympy's exact nullspace).  That shares
nothing with the construction: no P, no Krylov vector, no table expansion and
no ``validate``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matconj import (
    AutomorphismOracle,
    EmptyKernel,
    Matrix,
    Outcome,
    SingularConjugator,
    build_conjugator,
    certify,
    elementary_matrix,
    prime_field,
    random_invertible,
    random_matrix,
    rationals,
    scalar_relation,
)

from helpers import intertwiner_equations, intertwiner_reference, random_scalar

pytest.importorskip("sympy")

FIELDS = [rationals(), prime_field(2), prime_field(3), prime_field(2**61 - 1)]
KINDS = ("genuine", "random", "perturbed_h", "perturbed_g", "rank2_h")


def _case(spec, n, kind, rng):
    """A generator pair (H, G) of the given kind; at n = 1, where H has rank
    at most 1, "rank2_h" is the genuine pair."""
    if kind == "random":
        return random_matrix(spec, n, rng, 3), random_matrix(spec, n, rng, 3)
    b = random_invertible(spec, n, rng, 3)
    h, g = AutomorphismOracle.conjugation_by(b).query_generators()
    bump = elementary_matrix(spec, n, rng.randint(1, n), rng.randint(1, n))
    scale = random_scalar(spec, rng, 3)
    if kind == "perturbed_h":
        h = h + bump.scale(scale)
    elif kind == "perturbed_g":
        g = g + bump.scale(scale)
    elif kind == "rank2_h" and n >= 2:
        # B (E_{n,1} + E_{1,n}) B^-1 has rank 2, so it is no image of E_{n,1}
        h = h + b @ elementary_matrix(spec, n, 1, n) @ b.inverse()
    return h, g


def _recover(h, g):
    """``recover``'s verdict on the generator-pair file (H, G), and its A."""
    oracle = AutomorphismOracle.from_generator_pair(h, g)
    h, g = oracle.query_generators()
    try:
        witness = build_conjugator(h, g)
    except (EmptyKernel, SingularConjugator):
        return False, None
    recovered = certify(oracle, witness).outcome is Outcome.RECOVERED
    return recovered, witness.conjugator


def test_sympy_reference_matches_the_matrix_nullspace():
    # the same system through the package's own nullspace_basis
    rng = random.Random(5)
    verdicts = set()
    for spec in FIELDS:
        for n in range(1, 4):
            for kind in KINDS if n > 1 else KINDS[:-1]:
                h, g = _case(spec, n, kind, rng)
                basis, genuine = intertwiner_reference(h, g)
                rows = intertwiner_equations(h, g)
                system = Matrix(spec, 2 * n * n, n * n, [x for row in rows for x in row])
                expected = [
                    Matrix(spec, n, n, [v.entry(i, 1) for i in range(1, n * n + 1)])
                    for v in system.nullspace_basis()
                ]
                # the two bases scale their vectors differently: compare spans
                assert len(basis) == len(expected), (spec, n, kind)
                if basis:
                    both = [x for m in basis + expected for x in m._data]
                    stacked = Matrix(spec, 2 * len(basis), n * n, both)
                    assert stacked.rank() == len(basis), (spec, n, kind)
                assert genuine == (len(expected) == 1 and expected[0].rank() == n)
                verdicts.add((kind, genuine))
    assert {("genuine", True), ("random", True), ("random", False)} <= verdicts
    assert ("rank2_h", False) in verdicts and ("rank2_h", True) not in verdicts


@settings(max_examples=200, deadline=None)
@given(
    spec=st.sampled_from(FIELDS),
    n=st.integers(1, 4),
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
)
def test_recover_decides_a_pair_as_the_intertwiner_space_does(spec, n, kind, seed):
    h, g = _case(spec, n, kind, random.Random(seed))
    basis, genuine = intertwiner_reference(h, g)
    recovered, conjugator = _recover(h, g)
    assert recovered == genuine, (spec, n, kind, len(basis))
    if recovered:
        # the space is spanned by the recovered A
        assert scalar_relation(conjugator, basis[0]) is not None

"""An exhaustive census of small cases against the Skolem-Noether count.

Every automorphism of M_n(F_q) is conjugation by an invertible matrix, unique
up to a nonzero scalar, so Aut(M_n(F_q)) has
|PGL_n(F_q)| = q^(n(n-1)/2) * prod_(k=2..n) (q^k - 1) elements: 6, 24 and 168
for (n, q) = (2, 2), (2, 3) and (3, 2).  No sampling: every input of these
sizes is checked, and each pair's verdict is also compared with the
intertwiner space of ``helpers.intertwiner_reference``.
"""

import itertools
import math

import pytest

from matconj import (
    AutomorphismOracle,
    EmptyKernel,
    Matrix,
    Outcome,
    SingularConjugator,
    build_conjugator,
    certify,
    decide_automorphism,
    elementary_matrix,
    prime_field,
    shift_matrix,
)

from helpers import intertwiner_reference, pair_table


def _pgl_order(n, q):
    return q ** (n * (n - 1) // 2) * math.prod(q**k - 1 for k in range(2, n + 1))


def _matrices(spec, n):
    q = spec.modulus
    return [
        Matrix._raw_new(spec, n, n, entries)
        for entries in itertools.product(range(q), repeat=n * n)
    ]


def _recovers(h, g, n):
    """Whether ``recover`` succeeds on the generator-pair file (H, G)."""
    oracle = AutomorphismOracle.from_generator_pair(h, g)
    h, g = oracle.query_generators()
    try:
        witness = build_conjugator(h, g)
    except (EmptyKernel, SingularConjugator):
        return False
    return certify(oracle, witness).outcome is Outcome.RECOVERED


def _pair_reference(h, g, n):
    """The pair comes from an automorphism: the table the pair spans
    validates, and it maps E_{n,1} to H and S to G."""
    spec = h.spec
    table = AutomorphismOracle.from_table(pair_table(h, g))
    return (
        table.apply(elementary_matrix(spec, n, n, 1)) == h
        and table.apply(shift_matrix(spec, n)) == g
        and table.validate().is_automorphism
    )


@pytest.mark.slow
def test_census_matches_pgl_order():
    for n, q, order in ((2, 2, 6), (2, 3, 24), (3, 2, 168)):
        spec = prime_field(q)
        units = _matrices(spec, n)
        recovered = 0
        for h, g in itertools.product(units, repeat=2):
            ok = _recovers(h, g, n)
            assert ok == _pair_reference(h, g, n), (n, q, h, g)
            assert ok == intertwiner_reference(h, g)[1], (n, q, h, g)
            recovered += ok
        assert recovered == _pgl_order(n, q) == order, (n, q)

    # every table of M_2(F_2): validate() accepts exactly the 6 automorphisms,
    # and check-aut's construction route agrees with it on every table
    spec, n = prime_field(2), 2
    units = _matrices(spec, n)
    keys = [(i, j) for i in (1, 2) for j in (1, 2)]
    accepted = 0
    for images in itertools.product(units, repeat=4):
        oracle = AutomorphismOracle.from_table(dict(zip(keys, images)))
        report = oracle.validate()
        assert decide_automorphism(oracle) == report, images
        accepted += report.is_automorphism
    assert accepted == _pgl_order(2, 2) == 6

"""Scalar arithmetic: exactness, canonical forms, field axioms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matconj import (
    DivisionByZero,
    FieldElement,
    FieldMismatch,
    ParseError,
    is_prime,
    prime_field,
    rationals,
)
from matconj.field import MAX_SCALAR_DIGITS

QQ = rationals()
GF7 = prime_field(7)


def test_rational_addition():
    assert QQ.element(Fraction(1, 2)) + QQ.element(Fraction(1, 3)) == QQ.element(
        Fraction(5, 6)
    )


def test_gf7_multiplication():
    assert GF7.element(5) * GF7.element(4) == GF7.element(6)


def test_additive_identity():
    for value in (Fraction(3, 7), Fraction(-2), Fraction(0)):
        x = QQ.element(value)
        assert x + QQ.zero == x


def test_rational_inverse():
    assert QQ.element(Fraction(3, 4)).inv() == QQ.element(Fraction(4, 3))


def test_gf7_inverse():
    assert GF7.element(3).inv() == GF7.element(5)


def test_inverse_of_one():
    for spec in (QQ, GF7, prime_field(2)):
        assert spec.one.inv() == spec.one


def test_is_zero_is_one():
    assert QQ.element(0).is_zero()
    assert prime_field(5).element(6).is_one()
    assert not QQ.element(Fraction(1, 10**100)).is_zero()  # no underflow, ever


def test_division():
    a = GF7.element(3)
    b = GF7.element(5)
    assert (a / b) * b == a
    with pytest.raises(DivisionByZero):
        a / GF7.zero
    with pytest.raises(DivisionByZero):
        QQ.zero.inv()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        QQ.element(1) + GF7.element(1)
    with pytest.raises(FieldMismatch):
        GF7.element(1) * prime_field(5).element(1)
    assert QQ.element(1) != GF7.element(1)


def test_canonical_residues():
    assert GF7.element(-1).value == 6
    assert GF7.element(20).value == 6
    assert prime_field(5).coerce(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5


def test_canonical_rationals():
    x = QQ.element(Fraction(2, -4))
    assert x.value.numerator == -1 and x.value.denominator == 2


def test_prime_validation():
    with pytest.raises(ValueError):
        prime_field(4)
    with pytest.raises(ValueError):
        prime_field(1)
    with pytest.raises(ValueError):
        prime_field(561)  # Carmichael number
    prime_field(2)
    prime_field((1 << 61) - 1)


def test_modulus_bound_rejects_strong_pseudoprime():
    # A strong pseudoprime to all twelve Miller-Rabin witnesses: is_prime is
    # only proven for moduli below 2**64, so the field must refuse it.
    pseudoprime = 1287836182261 * 2575672364521
    assert is_prime(pseudoprime)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        prime_field(pseudoprime)
    with pytest.raises(ValueError):
        prime_field(2**64 + 13)
    assert prime_field(2**64 - 59).modulus == 2**64 - 59  # largest 64-bit prime


def test_rationals_take_no_modulus():
    # the modulus is the whole spec: None is Q, and any other value is
    # checked as a prime
    import matconj

    assert rationals() == matconj.FieldSpec()
    assert prime_field(7) == matconj.FieldSpec(7)
    for bad in (1, 4):
        with pytest.raises(ValueError):
            matconj.FieldSpec(bad)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 101, 997}
    for m in range(-2, 1000):
        assert is_prime(m) == (m in primes or (m > 1 and all(m % d for d in range(2, m))))


def test_parse_format_roundtrip():
    for text in ("-3/4", "7", "0", "23/1", "+5"):
        elem = QQ.parse(text)
        assert QQ.parse(str(elem)) == elem
    assert str(QQ.parse("23/1")) == "23"
    assert GF7.parse("-1") == GF7.element(6)
    assert str(GF7.parse("20")) == "6"


@pytest.mark.parametrize("bad", ["1/0", "abc", "1.5", "", "1/2/3", "2 3"])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        QQ.parse(bad)


@pytest.mark.parametrize("bad", ["\uff11", "\u0663", "1/\uff12", "\U0001d7d9"])
def test_parse_rejects_non_ascii_digits(bad):
    # fullwidth one, Arabic-Indic three, fullwidth two, mathematical one
    with pytest.raises(ParseError):
        QQ.parse(bad)
    with pytest.raises(ParseError):
        GF7.parse(bad)


def test_parse_digit_cap():
    longest = "7" * MAX_SCALAR_DIGITS
    assert QQ.parse(f"-{longest}/{longest}") == QQ.element(-1)
    assert GF7.parse(longest) == GF7.element(int(longest))
    for bad in ("1" * (MAX_SCALAR_DIGITS + 1), "1/" + "3" * (MAX_SCALAR_DIGITS + 1)):
        with pytest.raises(ParseError, match="digits"):
            QQ.parse(bad)
    with pytest.raises(ParseError, match="digits"):
        GF7.parse("-" + "1" * (MAX_SCALAR_DIGITS + 1))


def test_parse_rejects_prime_field_fraction():
    with pytest.raises(ParseError):
        GF7.parse("1/2")


PARSE_INPUTS = [
    "+7", "-0", " 12 ", "007", "3/6", "0/5",
    "1/0", "1/2", "1_000", "",
    "\uff11", "\u0663", "1/\uff12", "\U0001d7d9",
    "7" * MAX_SCALAR_DIGITS, "7" * (MAX_SCALAR_DIGITS + 1),
    7, None, True,
]


def _outcome(parse, text):
    try:
        value = parse(text)
    except ParseError as exc:
        return "error", str(exc)
    return type(value), value


@pytest.mark.parametrize("spec", [QQ, prime_field(2), GF7, prime_field(2**61 - 1)], ids=str)
@pytest.mark.parametrize("text", PARSE_INPUTS, ids=repr)
def test_parse_value_is_parse_without_the_element(spec, text):
    # the same raw value of the same type, or the same ParseError message
    expected = _outcome(lambda t: spec.parse(t).value, text)
    assert _outcome(spec.parse_value, text) == expected
    if isinstance(text, str):
        assert _outcome(spec.coerce, text) == expected


def _random_element(spec, rng):
    if spec.is_prime_field:
        return spec.element(rng.randrange(spec.modulus))
    return spec.element(Fraction(rng.randint(-30, 30), rng.randint(1, 30)))


@pytest.mark.parametrize(
    "spec",
    [QQ, GF7, prime_field(2), prime_field(2**61 - 1), prime_field(2**64 - 59)],
    ids=str,
)
def test_field_axioms_1000_triples(spec):
    rng = random.Random(20260808)
    one = spec.one
    for _ in range(1000):
        a, b, c = (_random_element(spec, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == spec.zero
        if not a.is_zero():
            assert a * a.inv() == one
        assert (a + b) - b == a  # exactness: no drift, ever


@given(
    num1=st.integers(-10**12, 10**12),
    den1=st.integers(1, 10**12),
    num2=st.integers(-10**12, 10**12),
    den2=st.integers(1, 10**12),
)
def test_rational_canonical_uniqueness(num1, den1, num2, den2):
    a = QQ.element(Fraction(num1, den1))
    b = QQ.element(Fraction(num2, den2))
    equal_as_values = Fraction(num1, den1) == Fraction(num2, den2)
    assert (a == b) == equal_as_values
    if equal_as_values:
        assert (a.value.numerator, a.value.denominator) == (
            b.value.numerator,
            b.value.denominator,
        )


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_gf_elements_stay_canonical(x, y):
    p = 101
    spec = prime_field(p)
    for result in (
        spec.element(x) + spec.element(y),
        spec.element(x) * spec.element(y),
        -spec.element(x),
    ):
        assert 0 <= result.value < p


def test_element_hashable_and_immutable():
    a = QQ.element(Fraction(1, 2))
    assert hash(a) == hash(QQ.element(Fraction(2, 4)))
    with pytest.raises(Exception):
        a.value = Fraction(1)


def test_str_of_spec():
    assert str(QQ) == "Q"
    assert str(GF7) == "GF(7)"

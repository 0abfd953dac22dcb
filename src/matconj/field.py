"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Both field families are exactly representable: rationals as reduced
`fractions.Fraction` values with arbitrary-precision integers, prime-field
elements as canonical residues in ``[0, p)``.  There is deliberately no
floating-point path anywhere; rank and kernel decisions downstream must never
be corrupted by rounding or overflow.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DivisionByZero, FieldMismatch, ParseError, ValueTooLarge

# Deterministic Miller-Rabin witness set: correct for all moduli below
# 3_317_044_064_679_887_385_961_981 (in particular the full 64-bit range).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Moduli must lie below this bound, where is_prime is proven deterministic.
MODULUS_BOUND = 2**64

# Longest digit string accepted for one integer in a scalar, read or written;
# CPython's default int/str limit, but checked here whatever the interpreter's.
MAX_SCALAR_DIGITS = 4300

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")

RawValue = Union[Fraction, int]


def is_prime(m: int) -> bool:
    """Deterministic primality test for the supported modulus range (< 2**64)."""
    if m < 2:
        return False
    for q in _MR_WITNESSES:
        if m % q == 0:
            return m == q
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Selector for one of the two supported exact field families.

    ``modulus`` is None for the rationals Q; otherwise the field is GF(p)
    with p = ``modulus``, which must be a prime below ``MODULUS_BOUND`` =
    2**64 (checked at construction), the range in which :func:`is_prime` is
    deterministic.  The modulus is the whole spec, so two specs are equal
    exactly when they name the same field.
    """

    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.modulus is None:
            return
        if not isinstance(self.modulus, int) or self.modulus < 2:
            raise ValueError("prime field needs an integer modulus >= 2")
        if self.modulus >= MODULUS_BOUND:
            raise ValueError(
                f"a {self.modulus.bit_length()}-bit modulus is outside the "
                "supported range p < 2**64"
            )
        if not is_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not prime")

    @property
    def is_prime_field(self) -> bool:
        return self.modulus is not None

    @property
    def zero_value(self) -> RawValue:
        return 0 if self.is_prime_field else Fraction(0)

    @property
    def one_value(self) -> RawValue:
        return 1 if self.is_prime_field else Fraction(1)

    def coerce(self, value) -> RawValue:
        """Canonical raw representation of ``value`` in this field.

        Accepts FieldElement (same spec only), int, Fraction, and the textual
        encoding, which :meth:`parse_value` decodes.
        """
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise FieldMismatch(f"element of {value.spec} used in {self}")
            return value.value
        if isinstance(value, str):
            return self.parse_value(value)
        if self.is_prime_field:
            p = self.modulus
            if isinstance(value, int):
                return value % p
            if isinstance(value, Fraction):
                if value.denominator % p == 0:
                    raise DivisionByZero(f"denominator of {value} vanishes mod {p}")
                return value.numerator * pow(value.denominator, -1, p) % p
        else:
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def element(self, value) -> "FieldElement":
        """``value`` as an element; ``element(0)`` and ``element(1)`` are 0 and 1."""
        return FieldElement(self, value)

    def invert_value(self, value: RawValue) -> RawValue:
        """1 / value; over GF(p) ``value`` is a residue in [0, p)."""
        if not value:
            raise DivisionByZero(f"inverse of zero in {self}")
        if self.is_prime_field:
            return pow(value, -1, self.modulus)
        return 1 / value

    def negate_value(self, value: RawValue) -> RawValue:
        if self.is_prime_field:
            return -value % self.modulus
        return -value

    def parse(self, text: str) -> "FieldElement":
        """The textual scalar encoding as an element; see :meth:`parse_value`."""
        return FieldElement(self, self.parse_value(text))

    def parse_value(self, text: str) -> RawValue:
        """Parse the textual scalar encoding to its canonical raw value: the one parser.

        Rationals: ``"num/den"`` or a bare integer string (``"-3/4"``, ``"7"``), as
        a reduced Fraction.  Prime fields: a decimal integer string, as its residue.
        Digits are ASCII only, at most ``MAX_SCALAR_DIGITS`` per integer, and
        at most the interpreter's int/str limit if that is lower.
        """
        if not isinstance(text, str):
            raise ParseError(f"scalar must be a string, got {type(text).__name__}")
        s = text.strip()
        try:
            if self.is_prime_field:
                if not _INTEGER_RE.fullmatch(s):
                    raise ParseError(f"invalid GF({self.modulus}) scalar: {text!r}")
                if len(s) > MAX_SCALAR_DIGITS:
                    _check_digit_count(s)
                return int(s) % self.modulus
            if not _RATIONAL_RE.fullmatch(s):
                raise ParseError(f"invalid rational scalar: {text!r}")
            if len(s) > MAX_SCALAR_DIGITS:
                _check_digit_count(s)
            if "/" in s:
                num, den = s.split("/")
                if int(den) == 0:
                    raise ParseError(f"zero denominator in {text!r}")
                return Fraction(int(num), int(den))
            return Fraction(int(s))
        except ValueError as exc:  # an interpreter int/str limit below ours
            limit = sys.get_int_max_str_digits()
            raise ParseError(f"scalar has an integer of over {limit} digits") from exc

    def format_value(self, value: RawValue) -> str:
        """The textual encoding, under the digit bound :meth:`parse_value`
        reads (ValueTooLarge), whatever the interpreter's int/str limit."""
        try:
            text = str(value)
        except ValueError as exc:  # the interpreter's int/str limit
            limit = min(MAX_SCALAR_DIGITS, sys.get_int_max_str_digits())
            raise ValueTooLarge(
                f"scalar exceeds the {limit}-digit limit of the text format"
            ) from exc
        if len(text) > MAX_SCALAR_DIGITS and _longest_integer(text) > MAX_SCALAR_DIGITS:
            raise ValueTooLarge(
                f"scalar exceeds the {MAX_SCALAR_DIGITS}-digit limit of the text format"
            )
        return text

    def __str__(self) -> str:
        if self.is_prime_field:
            return f"GF({self.modulus})"
        return "Q"


def _check_digit_count(s: str) -> None:
    """Reject a matched scalar string with an over-long integer part.

    Callers skip the call when ``len(s) <= MAX_SCALAR_DIGITS``, since no
    part can then be too long; that keeps the common path free of it.
    """
    longest = _longest_integer(s)
    if longest > MAX_SCALAR_DIGITS:
        raise ParseError(
            f"scalar has an integer of {longest} digits; "
            f"at most {MAX_SCALAR_DIGITS} are accepted"
        )


def _longest_integer(s: str) -> int:
    """The digit count of the longest integer in a scalar string."""
    return max(len(part) for part in s.lstrip("+-").split("/"))


def rationals() -> FieldSpec:
    """The field of arbitrary-precision rationals."""
    return FieldSpec()


def prime_field(p: int) -> FieldSpec:
    """The prime field GF(p); ``p`` must be a prime below 2**64."""
    return FieldSpec(p)


@dataclass(frozen=True)
class FieldElement:
    """A scalar tagged with its field.

    The stored value is always canonical: the constructor stores
    ``spec.coerce(value)``, a fully reduced Fraction with positive
    denominator for rationals, a residue in ``[0, p)`` for GF(p).  Elements
    from different specs never combine (FieldMismatch).
    """

    spec: FieldSpec
    value: RawValue

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.spec.coerce(self.value))

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.spec != self.spec:
            raise FieldMismatch(f"cannot combine {self.spec} with {other.spec}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.spec, self.value + other.value)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.spec, self.value - other.value)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.spec, self.value * other.value)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.spec, -self.value)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return self * other.inv()

    def inv(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.invert_value(self.value))

    def is_zero(self) -> bool:
        return not self.value

    def __bool__(self) -> bool:
        return bool(self.value)

    def __str__(self) -> str:
        return self.spec.format_value(self.value)

    def __repr__(self) -> str:
        return f"FieldElement({self.spec}, {self})"

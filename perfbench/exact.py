"""Exact linear algebra on plain lists, written without matconj.

The benchmark builds its inputs and checks matconj's reports with these
helpers, so no result is ever judged by the code that produced it.  A field
is named by ``p``: an int for GF(p), None for the rationals (Fraction).
"""

from __future__ import annotations

from fractions import Fraction


def parse(text: str, p: int | None):
    """A scalar string as matconj writes it: a residue, or an integer/"a/b"."""
    if p is None:
        return Fraction(text)
    return int(text) % p


def encode(matrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in matrix]


def decode(rows, p: int | None):
    return [[parse(x, p) for x in row] for row in rows]


def identity(n: int, p: int | None):
    one, zero = (1, 0) if p else (Fraction(1), Fraction(0))
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def matmul(a, b, p: int | None):
    cols = list(zip(*b))
    if p:
        return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def outer(col, row, p: int | None):
    if p:
        return [[x * y % p for y in row] for x in col]
    return [[x * y for y in row] for x in col]


def inverse(a, p: int | None):
    """Gauss-Jordan inverse, or None when ``a`` is singular."""
    n = len(a)
    m = [list(row) + ident_row for row, ident_row in zip(a, identity(n, p))]
    for c in range(n):
        pr = next((r for r in range(c, n) if m[r][c]), None)
        if pr is None:
            return None
        m[c], m[pr] = m[pr], m[c]
        inv = pow(m[c][c], p - 2, p) if p else 1 / m[c][c]
        m[c] = [x * inv % p for x in m[c]] if p else [x * inv for x in m[c]]
        for r in range(n):
            f = m[r][c]
            if r != c and f:
                if p:
                    m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
                else:
                    m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def power_is_zero(a, k: int, p: int) -> bool:
    """Whether a**k vanishes mod p."""
    result = a
    for _ in range(k - 1):
        result = matmul(result, a, p)
    return not any(any(row) for row in result)


def bits(x) -> int:
    """Bit size of a rational: the larger of numerator and denominator."""
    x = Fraction(x)
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())

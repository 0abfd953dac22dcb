"""Queryable representations of linear maps on the n x n matrix algebra.

An :class:`AutomorphismOracle` wraps a candidate algebra automorphism phi in
one of three backings:

* ``conjugation_by(B)``: phi(X) = B X B^-1 for a fixed invertible B, backed
  by the :class:`ConjugationWitness` of B that the recovery returns;
* ``from_table(images)``: the images phi(E_{i,j}) of all n^2 matrix units,
  extended linearly to arbitrary inputs;
* ``from_generator_pair(H, G)``: only the two images the recovery procedure
  actually consumes: H for the corner unit E_{n,1} and G for the shift matrix.

Each backing names its ``kind`` and answers ``apply``; n and the field are
those of its A, image (1, 1) or H, so an oracle takes its backing alone and
cannot disagree with it.  A table and a conjugation also tabulate their
``images()``; a generator pair answers its two generators and is never
tabulated.  Every ``apply`` resolved through the oracle bumps a thread-safe
query counter, which is what makes the "two queries suffice" contract
mechanically checkable.  ``validate`` decides whether a fully specified map
really is a unital algebra automorphism; it is entirely optional, since the
recovery itself never needs it, and it refuses a generator pair.
Multiplicativity is checked on 2n^2 generator products rather than all n^4
basis products (see ``validate`` for why that suffices), so the check costs
O(n^5) scalar work.  Bijectivity of a multiplicative map is read off
phi(I) != 0, at no extra cost; only a map that is not multiplicative pays the
O(n^6) rank of its n^2 x n^2 matrix.  ``check-aut`` runs ``validate`` only to
explain a rejection: :func:`~matconj.skolem_noether.decide_automorphism`
accepts a conjugation by its witness, with no query, and a table by the
construction and its n^2-pair sweep, O(n^4).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import product
from typing import Mapping

from .errors import DimensionMismatch, FieldMismatch, UnsupportedQuery
from .matrix import ColumnVector, Matrix, elementary_matrix, outer_product, shift_matrix


def check_generator_pair(h: Matrix, g: Matrix) -> None:
    """Refuse images (H, G) over two fields, or not both square of one size."""
    if h.spec != g.spec:
        raise FieldMismatch("generator images over different fields")
    if not h.is_square or (g.rows, g.cols) != (h.rows, h.cols):
        raise DimensionMismatch("generator images must be square and equal-sized")


@dataclass
class ValidationReport:
    """Per-axiom outcome of checking a map against the automorphism axioms.

    Linearity is not a field: every backing (a table, a conjugation, a
    generator pair) defines a linear map.  ``first_violation`` names the
    first witness found, or None.
    """

    unital_ok: bool
    multiplicative_ok: bool
    bijective_ok: bool
    first_violation: str | None = None

    @property
    def is_automorphism(self) -> bool:
        return self.unital_ok and self.multiplicative_ok and self.bijective_ok


class _Backing:
    """A backing's field and n are those of its matrix ``_sample``."""

    spec = property(lambda self: self._sample.spec)
    n = property(lambda self: self._sample.rows)


@dataclass(frozen=True)
class ConjugationWitness(_Backing):
    """Conjugation by A, the one field a caller sets.

    It is the recovered conjugator and an oracle's conjugation backing.
    ``conjugator_inv`` is computed here from A, one O(n^3) elimination, so no
    witness holds an inverse that is not A's, and a singular A raises
    SingularMatrix.  n and the field are A's own, and so is the kernel vector.
    """

    conjugator: Matrix
    conjugator_inv: Matrix = field(init=False)
    kind = "conjugation"
    _sample = property(lambda self: self.conjugator)

    def __post_init__(self) -> None:
        object.__setattr__(self, "conjugator_inv", self.conjugator.inverse())

    @property
    def kernel_vector(self) -> ColumnVector:
        """The canonical nonzero vector a with P a = a, P = G^{n-1} H.

        Column 1 of A is G^{n-1} H a = P a = a, so a is read off A and no
        witness can hold a kernel vector that contradicts its conjugator.
        """
        return self.conjugator.column(1)

    def apply(self, x: Matrix) -> Matrix:
        return self.conjugator @ (x @ self.conjugator_inv)

    def image(self, i: int, j: int) -> Matrix:
        """A E_{i,j} A^-1: column i of A times row j of A^-1, O(n^2)."""
        return outer_product(self.conjugator.column(i), self.conjugator_inv.row_vector(j))

    def images(self) -> dict:
        span = range(1, self.n + 1)
        return {(i, j): self.image(i, j) for i in span for j in span}


@dataclass(frozen=True)
class _Table(_Backing):
    table: Mapping[tuple[int, int], Matrix]
    kind = "full_table"
    _sample = property(lambda self: self.table[(1, 1)])

    def apply(self, x: Matrix) -> Matrix:
        n = x.rows
        spec = x.spec
        zero = spec.zero_value
        acc = [zero] * (n * n)
        xdata = x._data
        for idx in range(n * n):
            c = xdata[idx]
            if not c:
                continue
            i, j = divmod(idx, n)
            img = self.table[(i + 1, j + 1)]._data
            for t in range(n * n):
                v = img[t]
                if v:
                    acc[t] += c * v
        if spec.is_prime_field:
            p = spec.modulus
            acc = [v % p for v in acc]
        return Matrix._raw_new(spec, n, n, tuple(acc))

    def images(self) -> Mapping[tuple[int, int], Matrix]:
        return self.table


@dataclass(frozen=True)
class _Pair(_Backing):
    corner_image: Matrix  # image of E_{n,1}
    shift_image: Matrix  # image of the shift matrix
    kind = "generator_pair"
    _sample = property(lambda self: self.corner_image)

    def apply(self, x: Matrix) -> Matrix:
        spec, n = x.spec, x.rows
        if x == elementary_matrix(spec, n, n, 1):
            return self.corner_image
        if x == shift_matrix(spec, n):
            return self.shift_image
        raise UnsupportedQuery(
            "generator-pair backing answers only the corner unit and the shift matrix"
        )


class AutomorphismOracle:
    """A candidate automorphism of the n x n matrix algebra, with query counting;
    built from its backing alone, whose field and n are the oracle's."""

    def __init__(self, backing) -> None:
        self._backing = backing
        self._query_count = 0
        self._lock = threading.Lock()

    # -- constructors ------------------------------------------------------

    @classmethod
    def conjugation_by(cls, b: Matrix) -> "AutomorphismOracle":
        """The inner map X -> B X B^-1; raises SingularMatrix if B is not invertible."""
        return cls(ConjugationWitness(b))

    @classmethod
    def from_table(cls, images: Mapping[tuple[int, int], Matrix]) -> "AutomorphismOracle":
        """A map given by the images of all n^2 matrix units, keyed by 1-based (i, j).
        n and the field are image (1, 1)'s; a missing, extra, non-matrix or
        misshapen image raises DimensionMismatch, one over another field FieldMismatch."""
        corner = images.get((1, 1))
        n = corner.rows if isinstance(corner, Matrix) else 1  # the loop refuses it
        table = {}
        for i, j in product(range(1, n + 1), repeat=2):
            img = images.get((i, j))
            if not isinstance(img, Matrix):
                what = "missing" if img is None else "not a matrix"
                raise DimensionMismatch(f"image for basis pair ({i},{j}) is {what}")
            if img.spec != corner.spec:
                raise FieldMismatch(f"image for ({i},{j}) over the wrong field")
            if (img.rows, img.cols) != (n, n):
                raise DimensionMismatch(
                    f"image for ({i},{j}) is {img.rows}x{img.cols}, expected {n}x{n}"
                )
            table[(i, j)] = img
        if len(images) != len(table):
            extra = next(key for key in images if key not in table)
            raise DimensionMismatch(f"image keyed {extra!r} is no basis pair of {n}x{n}")
        return cls(_Table(table))

    @classmethod
    def from_generator_pair(cls, h: Matrix, g: Matrix) -> "AutomorphismOracle":
        """A map known only through the two images the recovery consumes."""
        check_generator_pair(h, g)
        return cls(_Pair(h, g))

    # -- bookkeeping -------------------------------------------------------

    spec = property(lambda self: self._backing.spec)
    n = property(lambda self: self._backing.n)

    @property
    def query_count(self) -> int:
        return self._query_count

    @property
    def backing(self):
        """The map: the :class:`ConjugationWitness` of B, a table or a pair."""
        return self._backing

    @property
    def backing_kind(self) -> str:
        return self._backing.kind

    def _count_query(self) -> None:
        with self._lock:
            self._query_count += 1

    # -- evaluation --------------------------------------------------------

    def apply(self, x: Matrix) -> Matrix:
        """Evaluate the map on x; every resolved call costs one oracle query.

        Generator-pair backings answer only their two generators, the corner
        unit E_{n,1} and the shift matrix (at n = 1 the identity is E_{1,1}, so
        it gets H); anything else raises UnsupportedQuery.
        """
        if x.spec != self.spec:
            raise FieldMismatch("query over the wrong field")
        if (x.rows, x.cols) != (self.n, self.n):
            raise DimensionMismatch(f"query must be {self.n}x{self.n}")
        result = self._backing.apply(x)
        self._count_query()
        return result

    def query_generators(self) -> tuple[Matrix, Matrix]:
        """The two images (H, G) the recovery needs: exactly 2 oracle queries.

        For n = 1 the shift matrix is the zero matrix, so G is the zero matrix
        by linearity; the query is still counted for uniformity.
        """
        h = self.apply(elementary_matrix(self.spec, self.n, self.n, 1))
        g = self.apply(shift_matrix(self.spec, self.n))
        return h, g

    # -- tabulation and validation ----------------------------------------

    def to_full_table(self) -> "AutomorphismOracle":
        """Expand a conjugation oracle into a fresh full-table oracle of its
        images B E_{i,j} B^-1 (no queries counted).

        A table is already one, and a generator pair is never tabulated: it
        is refused with the same UnsupportedQuery as ``validate``.  No
        certificate or verdict in the package expands an oracle; the
        benchmark tracer binds this name.
        """
        if self.backing_kind == "full_table":
            raise UnsupportedQuery("oracle already carries a full table")
        return AutomorphismOracle.from_table(self._images_for_validation())

    def _images_for_validation(self):
        if self.backing_kind == "generator_pair":
            raise UnsupportedQuery(
                "a generator pair carries too little information to validate"
            )
        return self._backing.images()

    def _first_generator_violation(self, images) -> str | None:
        """The first failing generator product of ``validate``, or None."""
        n = self.n
        for i in range(1, n + 1):
            left = images[(i, 1)]
            for j in range(1, n + 1):
                if left @ images[(1, j)] != images[(i, j)]:
                    return f"image({i},1) * image(1,{j}) is not image({i},{j})"
        zero = Matrix.zero(self.spec, n, n)
        for j in range(1, n + 1):
            left = images[(1, j)]
            for k in range(1, n + 1):
                expected = images[(1, 1)] if j == k else zero
                if left @ images[(k, 1)] != expected:
                    target = "image(1,1)" if j == k else "zero"
                    return f"image(1,{j}) * image({k},1) is not {target}"
        return None

    def validate(self) -> ValidationReport:
        """Check the automorphism axioms at matrix-unit granularity.

        Unitality: the images of the diagonal units must sum to the identity.
        Multiplicativity: the 2n^2 generator products
        phi(E_{i,1}) phi(E_{1,j}) = phi(E_{i,j}) and
        phi(E_{1,j}) phi(E_{k,1}) = delta_{jk} phi(E_{1,1}) must hold.  They
        imply the relation for every one of the n^4 basis pairs, since
        phi(E_{i,1}) phi(E_{1,1}) = phi(E_{i,1}) is the j = 1 case and so
        phi(E_{i,j}) phi(E_{k,l}) = phi(E_{i,1}) phi(E_{1,j}) phi(E_{k,1}) phi(E_{1,l})
        = delta_{jk} phi(E_{i,1}) phi(E_{1,1}) phi(E_{1,l}) = delta_{jk} phi(E_{i,l}).
        Bijectivity of a multiplicative map: phi must not send I to zero.
        The kernel of a multiplicative linear map is a two-sided ideal
        (phi(x) = 0 gives phi(yxz) = phi(y) phi(x) phi(z) = 0), and M_n(K) is
        simple, so the kernel is 0 or everything.  It is everything exactly
        when phi(I) = 0, since phi(x) = phi(x I) = phi(x) phi(I).  So phi is
        injective iff phi(I) != 0, and an injective linear map of a
        finite-dimensional space to itself is bijective.  phi(I) is the sum
        of the diagonal-unit images that the unitality check forms.
        Bijectivity of any other map: the n^2 x n^2 matrix whose rows are the
        vectorized images (the transpose of the map's matrix, of the same
        rank) must have full rank.  Failures are reported, never thrown.
        """
        images = self._images_for_validation()
        n = self.n
        spec = self.spec
        first_violation = None

        total = Matrix.zero(spec, n, n)
        for i in range(1, n + 1):
            total = total + images[(i, i)]
        unital_ok = total == Matrix.identity(spec, n)
        if not unital_ok:
            first_violation = "sum of diagonal-unit images is not the identity"

        violation = self._first_generator_violation(images)
        multiplicative_ok = violation is None
        if first_violation is None:
            first_violation = violation

        if multiplicative_ok:
            bijective_ok = not total.is_zero()
        else:
            nn = n * n
            big = tuple(
                x
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                for x in images[(i, j)]._data
            )
            bijective_ok = Matrix._raw_new(spec, nn, nn, big).rank() == nn
        if not bijective_ok and first_violation is None:
            first_violation = "vectorized map is rank-deficient"

        return ValidationReport(
            unital_ok=unital_ok,
            multiplicative_ok=multiplicative_ok,
            bijective_ok=bijective_ok,
            first_violation=first_violation,
        )

"""Dense exact matrices over a FieldSpec.

Provides the linear algebra the conjugator recovery needs: multiplication,
powers, determinant, rank, reduced row echelon form, nullspace bases,
inverses, and the two generator matrices (the corner unit E_{n,1} and the
superdiagonal shift).  Everything is exact; there are no pivoting heuristics
because there is no rounding to fight.  Pivots are always the first nonzero
entry in column order, which makes rref, and therefore every kernel vector,
deterministic.

One elimination pass, ``Matrix._eliminate``, serves rref, rank, det, inverse
and nullspace_basis.  Its forward form clears the entries below each pivot:
rank counts the pivots, and det is their product, negated once per row swap.
Its reduced form also clears the entries above each pivot and gives the rref
that inverse and nullspace_basis read.  Over GF(p) a row update is not
reduced: a value is reduced mod p only where it is read (a pivot candidate,
a multiplier), where the pivot row is scaled, and once per entry as the rref
leaves the pass.  So an entry that k updates have touched stays within
2 bit_length(p) + bit_length(k) + 1 bits.

A column vector is an n x 1 Matrix (the ColumnVector subclass).  One product
loop over plain ints serves both fields and every shape, mat-vec included;
over Q it first scales the factors' rows and columns to integers.  Only
:func:`krylov_sequence` runs its mat-vecs apart, on integer lists.

Indexing in the public API is 1-based: ``elementary_matrix(spec, n, i, j)``
puts its 1 in row i, column j counted from 1, and ``entry``/``column``/
``pivots`` follow the same convention.  Internal storage is a row-major tuple
of raw scalar values (Fraction or int residue); :class:`~matconj.field.FieldElement`
objects appear only at the API boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    IndexOutOfRange,
    SingularMatrix,
)
from .field import FieldElement, FieldSpec


class RrefResult(NamedTuple):
    """The rref and its 1-based pivot columns; the rank is their count."""

    matrix: "Matrix"
    pivots: tuple[int, ...]  # 1-based pivot column indices

    @property
    def rank(self) -> int:
        return len(self.pivots)


class Matrix:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("spec", "rows", "cols", "_data")

    def __init__(self, spec: FieldSpec, rows: int, cols: int, entries: Sequence) -> None:
        if rows < 1 or cols < 1:
            raise DimensionMismatch("matrix needs positive dimensions")
        data = tuple(spec.coerce(x) for x in entries)
        if len(data) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries, got {len(data)}"
            )
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw_new(cls, spec: FieldSpec, rows: int, cols: int, data: tuple) -> "Matrix":
        m = object.__new__(cls)
        object.__setattr__(m, "spec", spec)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_data", data)
        return m

    @staticmethod
    def from_rows(spec: FieldSpec, rows: Sequence[Sequence]) -> "Matrix":
        if not rows or not rows[0]:
            raise DimensionMismatch("matrix needs positive dimensions")
        width = len(rows[0])
        flat = []
        for row in rows:
            if len(row) != width:
                raise DimensionMismatch("ragged rows")
            flat.extend(row)
        return Matrix(spec, len(rows), width, flat)

    @staticmethod
    def zero(spec: FieldSpec, rows: int, cols: int) -> "Matrix":
        if rows < 1 or cols < 1:
            raise DimensionMismatch("matrix needs positive dimensions")
        return Matrix._raw_new(spec, rows, cols, (spec.zero_value,) * (rows * cols))

    @staticmethod
    def identity(spec: FieldSpec, n: int) -> "Matrix":
        if n < 1:
            raise DimensionMismatch("matrix needs positive dimensions")
        zero, one = spec.zero_value, spec.one_value
        data = [zero] * (n * n)
        for i in range(n):
            data[i * n + i] = one
        return Matrix._raw_new(spec, n, n, tuple(data))

    @staticmethod
    def from_columns(columns: Sequence["Matrix"]) -> "Matrix":
        """Matrix whose i-th column is columns[i-1], each an n x 1 Matrix
        (a ColumnVector or any Matrix with one column)."""
        if not columns:
            raise DimensionMismatch("need at least one column")
        spec = columns[0].spec
        dim = columns[0].rows
        for c in columns:
            if c.spec != spec:
                raise FieldMismatch("columns over different fields")
            if c.cols != 1:
                raise DimensionMismatch("a column must be an n x 1 matrix")
            if c.rows != dim:
                raise DimensionMismatch("columns of different dimensions")
        data = []
        for i in range(dim):
            for c in columns:
                data.append(c._data[i])
        return Matrix._raw_new(spec, dim, len(columns), tuple(data))

    # -- accessors ---------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> FieldElement:
        """Entry in row i, column j (both 1-based)."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexOutOfRange(f"({i},{j}) outside {self.rows}x{self.cols}")
        return FieldElement(self.spec, self._data[(i - 1) * self.cols + (j - 1)])

    def column(self, j: int) -> ColumnVector:
        if not 1 <= j <= self.cols:
            raise IndexOutOfRange(f"column {j} outside 1..{self.cols}")
        return ColumnVector._raw_new(self.spec, self.rows, 1, self._data[j - 1 :: self.cols])

    def row_vector(self, i: int) -> ColumnVector:
        """Row i repackaged as a vector (used for outer-product products)."""
        if not 1 <= i <= self.rows:
            raise IndexOutOfRange(f"row {i} outside 1..{self.rows}")
        return ColumnVector._raw_new(
            self.spec, self.cols, 1, self._data[(i - 1) * self.cols : i * self.cols]
        )

    def is_zero(self) -> bool:
        return not any(self._data)

    def to_strings(self) -> list[list[str]]:
        fmt = self.spec.format_value
        return [
            [fmt(v) for v in self._data[i * self.cols : (i + 1) * self.cols]]
            for i in range(self.rows)
        ]

    # -- ring operations ---------------------------------------------------

    def _same_shape(self, other: "Matrix") -> None:
        if not isinstance(other, Matrix):
            raise TypeError("expected Matrix")
        if other.spec != self.spec:
            raise FieldMismatch("matrices over different fields")
        if (other.rows, other.cols) != (self.rows, self.cols):
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def _like(self, values) -> "Matrix":
        """A matrix of self's shape and class holding ``values``, each reduced
        mod p when the field is prime."""
        if self.spec.is_prime_field:
            p = self.spec.modulus
            values = (v % p for v in values)
        return type(self)._raw_new(self.spec, self.rows, self.cols, tuple(values))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return self._like(x + y for x, y in zip(self._data, other._data))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return self._like(x - y for x, y in zip(self._data, other._data))

    def __neg__(self) -> "Matrix":
        return self._like(-v for v in self._data)

    def scale(self, c) -> "Matrix":
        cv = self.spec.coerce(c)
        return self._like(v * cv for v in self._data)

    def __matmul__(self, other):
        """Product; its class is that of ``other``, so a mat-vec gives a
        ColumnVector."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.spec != self.spec:
            raise FieldMismatch("matrices over different fields")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"inner dimensions {self.cols} vs {other.rows}"
            )
        n, m, q = self.rows, self.cols, other.cols
        a, b = self._data, other._data
        prime = self.spec.is_prime_field
        if not prime:
            # Scale each row of self and each column of other to integers by
            # the lcm of its denominators; each result entry is divided once.
            lcm = math.lcm
            a_rows = range(0, n * m, m)
            row_den = [lcm(*[v.denominator for v in a[r : r + m]]) for r in a_rows]
            col_den = [lcm(*[v.denominator for v in b[j::q]]) for j in range(q)]
            a = [
                v.numerator * (d // v.denominator)
                for r, d in zip(a_rows, row_den)
                for v in a[r : r + m]
            ]
            b = [
                v.numerator * (d // v.denominator)
                for r in range(0, m * q, q)
                for v, d in zip(b[r : r + q], col_den)
            ]
        out = [0] * (n * q)
        # Zero operands are skipped: the workloads here are full of
        # E_{i,j}-sparse factors, and exact integer products dominate the cost.
        for i in range(n):
            ai = i * m
            oi = i * q
            for k in range(m):
                x = a[ai + k]
                if not x:
                    continue
                bk = k * q
                for j in range(q):
                    y = b[bk + j]
                    if y:
                        out[oi + j] += x * y
        if prime:
            p = self.spec.modulus
            out = [v % p for v in out]
        else:
            out = [
                Fraction(v, di * dj)
                for r, di in zip(range(0, n * q, q), row_den)
                for v, dj in zip(out[r : r + q], col_den)
            ]
        return type(other)._raw_new(self.spec, n, q, tuple(out))

    def power(self, k: int) -> "Matrix":
        """k-th power, k >= 0; power(A, 0) is the identity.

        Repeated squaring that starts from the power of k's lowest set bit,
        so k >= 1 takes bit_length(k) + popcount(k) - 2 products.
        """
        if not self.is_square:
            raise DimensionMismatch("power needs a square matrix")
        if k < 0:
            raise ValueError("power exponent must be nonnegative")
        if k == 0:
            return Matrix.identity(self.spec, self.rows)
        base = self
        while not k & 1:
            base = base @ base
            k >>= 1
        result = base
        k >>= 1
        while k:
            base = base @ base
            if k & 1:
                result = result @ base
            k >>= 1
        return result

    def transpose(self) -> "Matrix":
        data = tuple(
            self._data[i * self.cols + j]
            for j in range(self.cols)
            for i in range(self.rows)
        )
        return Matrix._raw_new(self.spec, self.cols, self.rows, data)

    def trace(self) -> FieldElement:
        if not self.is_square:
            raise DimensionMismatch("trace needs a square matrix")
        return self.spec.element(sum(self._data[:: self.cols + 1], self.spec.zero_value))

    # -- elimination -------------------------------------------------------

    def _eliminate(self, reduced: bool) -> tuple[tuple | None, list[int], object]:
        """The one elimination pass: rref entries, 1-based pivot columns, det value.

        Each column's pivot is its first nonzero entry at or below the current
        row; that row is swapped up and scaled so the pivot is 1.  The forward
        form clears the entries below each pivot (a row echelon form, which
        is not kept) and returns None for the entries; the reduced form also
        clears those above it and returns the rref as a row-major tuple.  Both
        find the same pivots.  The determinant is the product of the pivots,
        negated once per row swap, and zero unless the matrix is square of
        full rank.

        Over GF(p) a row update ``row[j] - f * v`` is left unreduced.  Values
        are reduced mod p only where they are read or leave: a pivot candidate
        before its zero test, the multiplier f when it is read, the pivot row
        when it is scaled (so every v is in [0, p)), and each rref entry once
        at the end.  An entry that k <= min(rows, cols) updates have touched
        lies in (-k (p-1)^2, p), so it has at most
        2 bit_length(p) + bit_length(k) + 1 bits; scaling it by the pivot's
        inverse adds at most bit_length(p) bits before the reduction.
        """
        rows, cols = self.rows, self.cols
        m = [list(self._data[i * cols : (i + 1) * cols]) for i in range(rows)]
        p = self.spec.modulus
        invert = self.spec.invert_value
        zero, one = self.spec.zero_value, self.spec.one_value
        pivots: list[int] = []
        det = one
        r = 0
        for c in range(cols):
            for pr in range(r, rows):
                piv = m[pr][c] % p if p else m[pr][c]
                if piv:
                    break
            else:
                continue
            if pr != r:
                m[r], m[pr] = m[pr], m[r]
                det = -det
            prow = m[r]
            det = det * piv % p if p else det * piv
            # Scale the pivot row (over GF(p), into [0, p)) and list its
            # nonzero entries right of the pivot.
            pinv = invert(piv) if piv != one else one
            prow[c] = one
            tail = []
            for j in range(c + 1, cols):
                v = prow[j]
                if v:
                    if p:
                        v = prow[j] = v * pinv % p
                        if not v:
                            continue
                    elif piv != one:
                        v = prow[j] = v * pinv
                    tail.append((j, v))
            for i in range(0 if reduced else r + 1, rows):
                row = m[i]
                f = row[c] % p if p else row[c]
                if not f or i == r:
                    continue
                row[c] = zero
                for j, v in tail:
                    row[j] -= f * v
            pivots.append(c + 1)
            r += 1
            if r == rows:
                break
        det = det if r == rows == cols else zero
        if not reduced:
            return None, pivots, det
        flat = [v % p for row in m for v in row] if p else [v for row in m for v in row]
        return tuple(flat), pivots, det

    def rref(self) -> RrefResult:
        """Unique reduced row echelon form, with its 1-based pivot columns."""
        data, pivots, _ = self._eliminate(reduced=True)
        rref = Matrix._raw_new(self.spec, self.rows, self.cols, data)
        return RrefResult(rref, tuple(pivots))

    def rank(self) -> int:
        return len(self._eliminate(reduced=False)[1])

    def det(self) -> FieldElement:
        """Exact determinant, read off the forward elimination pass."""
        if not self.is_square:
            raise DimensionMismatch("determinant needs a square matrix")
        return FieldElement(self.spec, self._eliminate(reduced=False)[2])

    def nullspace_basis(self) -> list[ColumnVector]:
        """Canonical basis of the right kernel.

        One vector per free column of the rref, ordered by free-column index,
        each scaled so its first nonzero coordinate is 1.  Empty list iff the
        matrix is injective.
        """
        res = self.rref()
        cols = self.cols
        pivot_set = set(res.pivots)
        rdata = res.matrix._data
        zero, one = self.spec.zero_value, self.spec.one_value
        neg = self.spec.negate_value
        basis = []
        for free in range(1, cols + 1):
            if free in pivot_set:
                continue
            v = [zero] * cols
            v[free - 1] = one
            for r_idx, pc in enumerate(res.pivots):
                val = rdata[r_idx * cols + (free - 1)]
                if val:
                    v[pc - 1] = neg(val)
            vec = ColumnVector._raw_new(self.spec, cols, 1, tuple(v))
            lead = vec.first_nonzero_index()
            lead_val = vec._data[lead - 1]
            if lead_val != one:
                vec = vec.scale(self.spec.invert_value(lead_val))
            basis.append(vec)
        return basis

    def inverse(self) -> "Matrix":
        """Exact inverse via Gauss-Jordan on the augmented matrix."""
        if not self.is_square:
            raise DimensionMismatch("inverse needs a square matrix")
        n = self.rows
        zero, one = self.spec.zero_value, self.spec.one_value
        aug = []
        for i in range(n):
            aug.extend(self._data[i * n : (i + 1) * n])
            ident_row = [zero] * n
            ident_row[i] = one
            aug.extend(ident_row)
        res = Matrix._raw_new(self.spec, n, 2 * n, tuple(aug)).rref()
        rank = sum(p <= n for p in res.pivots)  # [A | I] itself always has rank n
        if rank < n:
            raise SingularMatrix(f"matrix of rank {rank} is not invertible")
        rdata = res.matrix._data
        inv = tuple(
            rdata[i * 2 * n + n + j] for i in range(n) for j in range(n)
        )
        return Matrix._raw_new(self.spec, n, n, inv)

    # -- dunders -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.rows, self.cols, self._data))

    def __repr__(self) -> str:
        rows = ["[" + ", ".join(r) + "]" for r in self.to_strings()]
        return f"Matrix({self.spec}, [{'; '.join(rows)}])"


class ColumnVector(Matrix):
    """An n x 1 matrix: the kernel vector, a column or a row of a matrix.

    Products, sums and scaling come from Matrix and keep this class, so
    ``m @ v`` is again a ColumnVector.  A ColumnVector equals the n x 1
    Matrix with the same entries.
    """

    __slots__ = ()

    def __init__(self, spec: FieldSpec, entries: Sequence) -> None:
        entries = tuple(entries)
        super().__init__(spec, len(entries), 1, entries)

    @classmethod
    def standard_basis(cls, spec: FieldSpec, dim: int, i: int) -> "ColumnVector":
        """e_i, 1-based."""
        if not 1 <= i <= dim:
            raise IndexOutOfRange(f"index {i} outside 1..{dim}")
        data = [spec.zero_value] * dim
        data[i - 1] = spec.one_value
        return cls._raw_new(spec, dim, 1, tuple(data))

    @property
    def dim(self) -> int:
        return self.rows

    def entry(self, i: int, j: int = 1) -> FieldElement:
        """Coordinate i (1-based)."""
        return super().entry(i, j)

    def entries(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.spec, v) for v in self._data)

    def first_nonzero_index(self) -> int | None:
        """1-based index of the first nonzero coordinate, or None."""
        for k, v in enumerate(self._data):
            if v:
                return k + 1
        return None


def elementary_matrix(spec: FieldSpec, n: int, i: int, j: int) -> Matrix:
    """The n x n matrix unit with 1 in row i, column j (1-based), 0 elsewhere."""
    if n < 1:
        raise DimensionMismatch("matrix needs positive dimensions")
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"({i},{j}) outside 1..{n}")
    data = [spec.zero_value] * (n * n)
    data[(i - 1) * n + (j - 1)] = spec.one_value
    return Matrix._raw_new(spec, n, n, tuple(data))


def shift_matrix(spec: FieldSpec, n: int) -> Matrix:
    """Superdiagonal of ones, zeros elsewhere; the 1x1 case is the zero matrix."""
    if n < 1:
        raise DimensionMismatch("matrix needs positive dimensions")
    data = [spec.zero_value] * (n * n)
    for i in range(n - 1):
        data[i * n + i + 1] = spec.one_value
    return Matrix._raw_new(spec, n, n, tuple(data))


def outer_product(col: Matrix, row: Matrix) -> Matrix:
    """The rank-<=1 matrix col * row^T of two n x 1 matrices."""
    if col.spec != row.spec:
        raise FieldMismatch("vectors over different fields")
    if col.cols != 1 or row.cols != 1:
        raise DimensionMismatch("outer product needs two n x 1 matrices")
    spec = col.spec
    zero = spec.zero_value
    prime = spec.modulus
    data = []
    for x in col._data:
        if not x:
            data.extend([zero] * row.rows)
        elif prime:
            data.extend(x * y % prime for y in row._data)
        else:
            data.extend(x * y for y in row._data)
    return Matrix._raw_new(spec, col.rows, row.rows, tuple(data))


def integer_form(spec: FieldSpec, values: Sequence) -> tuple:
    """Raw values as (c, y), values = c * y for ints y: the residues and c = 1
    over GF(p), a primitive y (gcd 1, or all 0) and a Fraction c over Q."""
    if spec.is_prime_field:
        return 1, list(values)
    d = math.lcm(*[x.denominator for x in values])
    y = [x.numerator * (d // x.denominator) for x in values]
    k = math.gcd(*y)
    return Fraction(k, d), [t // k for t in y] if k > 1 else y


def from_integer_form(spec: FieldSpec, c, y: Sequence[int]) -> ColumnVector:
    """The vector c * y, its entries built once."""
    p = spec.modulus
    data = tuple(c * t % p for t in y) if p else tuple(c * t for t in y)
    return ColumnVector._raw_new(spec, len(y), 1, data)


def krylov_sequence(g: Matrix, u: ColumnVector, count: int) -> tuple[list, list]:
    """u, G u, ..., G^(count-1) u as G^k u = c_k y_k in :func:`integer_form`.

    G is put in integer form once.  A step is one integer mat-vec, then over
    GF(p) one ``% p`` per entry, over Q one gcd over the n entries and one
    update of c_k: no Fraction is built per entry.  O(count n^2).
    """
    n, p = g.rows, g.spec.modulus
    cg, entries = integer_form(g.spec, g._data)
    rows = [entries[i : i + n] for i in range(0, n * n, n)]
    c, y = integer_form(g.spec, u._data)
    cs, ys = [c], [y]
    for _ in range(count - 1):
        if p:
            y = [sum(map(mul, row, y)) % p for row in rows]
        else:
            y = [sum(map(mul, row, y)) for row in rows]
            k = math.gcd(*y)
            y = [t // k for t in y] if k > 1 else y
            c = c * cg * k
        cs.append(c)
        ys.append(y)
    return cs, ys

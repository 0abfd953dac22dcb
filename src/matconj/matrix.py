"""Dense exact matrices over a FieldSpec.

Provides the linear algebra the conjugator recovery needs: multiplication,
powers, determinant, rank, reduced row echelon form, nullspace bases,
inverses, and the two generator matrices (the corner unit E_{n,1} and the
superdiagonal shift).  Everything is exact; there are no pivoting heuristics
because there is no rounding to fight.  Pivots are always the first nonzero
entry in column order, which makes rref, and therefore every kernel vector,
deterministic.

Indexing in the public API is 1-based: ``elementary_matrix(spec, n, i, j)``
puts its 1 in row i, column j counted from 1, and ``entry``/``column``/
``pivots`` follow the same convention.  Internal storage is a row-major tuple
of raw scalar values (Fraction or int residue); :class:`~matconj.field.FieldElement`
objects appear only at the API boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    IndexOutOfRange,
    SingularMatrix,
)
from .field import FieldElement, FieldSpec


class ColumnVector:
    """An exact column vector of positive dimension over a single field."""

    __slots__ = ("spec", "dim", "_data")

    def __init__(self, spec: FieldSpec, entries: Sequence) -> None:
        data = tuple(spec.coerce(x) for x in entries)
        if not data:
            raise DimensionMismatch("column vector needs positive dimension")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "dim", len(data))
        object.__setattr__(self, "_data", data)

    def __setattr__(self, name, value):
        raise AttributeError("ColumnVector is immutable")

    @classmethod
    def _raw_new(cls, spec: FieldSpec, data: tuple) -> "ColumnVector":
        v = object.__new__(cls)
        object.__setattr__(v, "spec", spec)
        object.__setattr__(v, "dim", len(data))
        object.__setattr__(v, "_data", data)
        return v

    @classmethod
    def zero(cls, spec: FieldSpec, dim: int) -> "ColumnVector":
        if dim < 1:
            raise DimensionMismatch("column vector needs positive dimension")
        return cls._raw_new(spec, (spec.zero_value,) * dim)

    @classmethod
    def standard_basis(cls, spec: FieldSpec, dim: int, i: int) -> "ColumnVector":
        """e_i, 1-based."""
        if not 1 <= i <= dim:
            raise IndexOutOfRange(f"index {i} outside 1..{dim}")
        data = [spec.zero_value] * dim
        data[i - 1] = spec.one_value
        return cls._raw_new(spec, tuple(data))

    def entry(self, i: int) -> FieldElement:
        if not 1 <= i <= self.dim:
            raise IndexOutOfRange(f"index {i} outside 1..{self.dim}")
        return FieldElement(self.spec, self._data[i - 1])

    def entries(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.spec, v) for v in self._data)

    def is_zero(self) -> bool:
        return not any(self._data)

    def first_nonzero_index(self) -> int | None:
        """1-based index of the first nonzero coordinate, or None."""
        for k, v in enumerate(self._data):
            if v:
                return k + 1
        return None

    def scaled(self, c) -> "ColumnVector":
        cv = self.spec.coerce(c)
        if self.spec.is_prime_field:
            p = self.spec.modulus
            return ColumnVector._raw_new(self.spec, tuple(v * cv % p for v in self._data))
        return ColumnVector._raw_new(self.spec, tuple(v * cv for v in self._data))

    def __add__(self, other: "ColumnVector") -> "ColumnVector":
        self._compatible(other)
        if self.spec.is_prime_field:
            p = self.spec.modulus
            return ColumnVector._raw_new(
                self.spec, tuple((x + y) % p for x, y in zip(self._data, other._data))
            )
        return ColumnVector._raw_new(
            self.spec, tuple(x + y for x, y in zip(self._data, other._data))
        )

    def __sub__(self, other: "ColumnVector") -> "ColumnVector":
        self._compatible(other)
        if self.spec.is_prime_field:
            p = self.spec.modulus
            return ColumnVector._raw_new(
                self.spec, tuple((x - y) % p for x, y in zip(self._data, other._data))
            )
        return ColumnVector._raw_new(
            self.spec, tuple(x - y for x, y in zip(self._data, other._data))
        )

    def _compatible(self, other: "ColumnVector") -> None:
        if not isinstance(other, ColumnVector):
            raise TypeError("expected ColumnVector")
        if other.spec != self.spec:
            raise FieldMismatch("vectors over different fields")
        if other.dim != self.dim:
            raise DimensionMismatch(f"dims {self.dim} vs {other.dim}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColumnVector):
            return NotImplemented
        return self.spec == other.spec and self._data == other._data

    def __hash__(self) -> int:
        return hash((self.spec, self._data))

    def __repr__(self) -> str:
        body = ", ".join(self.spec.format_value(v) for v in self._data)
        return f"ColumnVector({self.spec}, [{body}])"


class RrefResult(NamedTuple):
    matrix: "Matrix"
    pivots: tuple[int, ...]  # 1-based pivot column indices
    rank: int


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

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows: Sequence[Sequence]) -> "Matrix":
        if not rows or not rows[0]:
            raise DimensionMismatch("matrix needs positive dimensions")
        width = len(rows[0])
        flat = []
        for row in rows:
            if len(row) != width:
                raise DimensionMismatch("ragged rows")
            flat.extend(row)
        return cls(spec, len(rows), width, flat)

    @classmethod
    def zero(cls, spec: FieldSpec, rows: int, cols: int) -> "Matrix":
        if rows < 1 or cols < 1:
            raise DimensionMismatch("matrix needs positive dimensions")
        return cls._raw_new(spec, rows, cols, (spec.zero_value,) * (rows * cols))

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Matrix":
        if n < 1:
            raise DimensionMismatch("matrix needs positive dimensions")
        zero, one = spec.zero_value, spec.one_value
        data = [zero] * (n * n)
        for i in range(n):
            data[i * n + i] = one
        return cls._raw_new(spec, n, n, tuple(data))

    @classmethod
    def from_columns(cls, columns: Sequence[ColumnVector]) -> "Matrix":
        """Matrix whose i-th column is columns[i-1]."""
        if not columns:
            raise DimensionMismatch("need at least one column")
        spec = columns[0].spec
        dim = columns[0].dim
        for c in columns:
            if c.spec != spec:
                raise FieldMismatch("columns over different fields")
            if c.dim != dim:
                raise DimensionMismatch("columns of different dimensions")
        data = []
        for i in range(dim):
            for c in columns:
                data.append(c._data[i])
        return cls._raw_new(spec, dim, len(columns), tuple(data))

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
        return ColumnVector._raw_new(
            self.spec, tuple(self._data[i * self.cols + (j - 1)] for i in range(self.rows))
        )

    def row_vector(self, i: int) -> ColumnVector:
        """Row i repackaged as a vector (used for outer-product products)."""
        if not 1 <= i <= self.rows:
            raise IndexOutOfRange(f"row {i} outside 1..{self.rows}")
        return ColumnVector._raw_new(
            self.spec, self._data[(i - 1) * self.cols : i * self.cols]
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

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        if self.spec.is_prime_field:
            p = self.spec.modulus
            data = tuple((x + y) % p for x, y in zip(self._data, other._data))
        else:
            data = tuple(x + y for x, y in zip(self._data, other._data))
        return Matrix._raw_new(self.spec, self.rows, self.cols, data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        if self.spec.is_prime_field:
            p = self.spec.modulus
            data = tuple((x - y) % p for x, y in zip(self._data, other._data))
        else:
            data = tuple(x - y for x, y in zip(self._data, other._data))
        return Matrix._raw_new(self.spec, self.rows, self.cols, data)

    def __neg__(self) -> "Matrix":
        neg = self.spec.negate_value
        return Matrix._raw_new(self.spec, self.rows, self.cols, tuple(neg(v) for v in self._data))

    def scale(self, c) -> "Matrix":
        cv = self.spec.coerce(c)
        if self.spec.is_prime_field:
            p = self.spec.modulus
            data = tuple(v * cv % p for v in self._data)
        else:
            data = tuple(v * cv for v in self._data)
        return Matrix._raw_new(self.spec, self.rows, self.cols, data)

    def __matmul__(self, other):
        if isinstance(other, ColumnVector):
            return self._mat_vec(other)
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.spec != self.spec:
            raise FieldMismatch("matrices over different fields")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"inner dimensions {self.cols} vs {other.rows}"
            )
        if not self.spec.is_prime_field:
            return self._matmul_rational(other)
        n, m, q = self.rows, self.cols, other.cols
        a, b = self._data, other._data
        p = self.spec.modulus
        out = [0] * (n * q)
        # Zero operands are skipped before multiplying, and residues are only
        # reduced once per output row: the workloads here are full of
        # E_{i,j}-sparse factors and exact scalar products dominate the cost.
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
            for j in range(oi, oi + q):
                out[j] %= p
        return Matrix._raw_new(self.spec, n, q, tuple(out))

    def _matmul_rational(self, other: "Matrix") -> "Matrix":
        # Rational product via integer dot products: scale each row of self
        # and each column of other to integers over a common denominator, run
        # the fast integer kernel, and normalize once per output entry.  This
        # replaces two arbitrary-precision gcd normalizations per scalar
        # operation with a single one per result entry.
        n, m, q = self.rows, self.cols, other.cols
        a, b = self._data, other._data
        lcm = math.lcm
        a_num = [0] * (n * m)
        a_den = [1] * n
        for i in range(n):
            base = i * m
            d = lcm(*(a[base + k].denominator for k in range(m)))
            a_den[i] = d
            for k in range(m):
                v = a[base + k]
                if v:
                    a_num[base + k] = v.numerator * (d // v.denominator)
        b_num = [0] * (m * q)
        b_den = [1] * q
        for j in range(q):
            d = lcm(*(b[k * q + j].denominator for k in range(m)))
            b_den[j] = d
            for k in range(m):
                v = b[k * q + j]
                if v:
                    b_num[k * q + j] = v.numerator * (d // v.denominator)
        out = []
        for i in range(n):
            base = i * m
            a_row = a_num[base : base + m]
            di = a_den[i]
            for j in range(q):
                acc = 0
                for k in range(m):
                    x = a_row[k]
                    if x:
                        y = b_num[k * q + j]
                        if y:
                            acc += x * y
                out.append(Fraction(acc, di * b_den[j]))
        return Matrix._raw_new(self.spec, n, q, tuple(out))

    def _mat_vec(self, v: ColumnVector) -> ColumnVector:
        if v.spec != self.spec:
            raise FieldMismatch("matrix and vector over different fields")
        if self.cols != v.dim:
            raise DimensionMismatch(f"inner dimensions {self.cols} vs {v.dim}")
        a, b = self._data, v._data
        zero = self.spec.zero_value
        out = []
        for i in range(self.rows):
            acc = zero
            ai = i * self.cols
            for k in range(self.cols):
                x = a[ai + k]
                if x:
                    y = b[k]
                    if y:
                        acc += x * y
            if self.spec.is_prime_field:
                acc %= self.spec.modulus
            out.append(acc)
        return ColumnVector._raw_new(self.spec, tuple(out))

    def power(self, k: int) -> "Matrix":
        """k-th power, k >= 0; power(A, 0) is the identity."""
        if not self.is_square:
            raise DimensionMismatch("power needs a square matrix")
        if k < 0:
            raise ValueError("power exponent must be nonnegative")
        result = Matrix.identity(self.spec, self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            k >>= 1
            if k:
                base = base @ base
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
        acc = self.spec.zero_value
        for i in range(self.rows):
            acc += self._data[i * self.cols + i]
        if self.spec.is_prime_field:
            acc %= self.spec.modulus
        return FieldElement(self.spec, acc)

    # -- elimination -------------------------------------------------------

    def rref(self) -> RrefResult:
        """Unique reduced row echelon form, with 1-based pivot columns and rank.

        Gauss-Jordan with exact division; the pivot is always the first
        nonzero entry scanning down the column, so the output (and everything
        derived from it, notably nullspace bases) is deterministic.
        """
        rows, cols = self.rows, self.cols
        m = [list(self._data[i * cols : (i + 1) * cols]) for i in range(rows)]
        prime = self.spec.modulus if self.spec.is_prime_field else None
        invert = self.spec.invert_value
        pivots: list[int] = []
        r = 0
        for c in range(cols):
            pr = None
            for i in range(r, rows):
                if m[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            if pr != r:
                m[r], m[pr] = m[pr], m[r]
            prow = m[r]
            piv = prow[c]
            if piv != self.spec.one_value:
                pinv = invert(piv)
                for j in range(c, cols):
                    if prow[j]:
                        prow[j] = prow[j] * pinv % prime if prime else prow[j] * pinv
            for i in range(rows):
                if i == r:
                    continue
                f = m[i][c]
                if not f:
                    continue
                row = m[i]
                for j in range(c, cols):
                    v = prow[j]
                    if v:
                        row[j] = (row[j] - f * v) % prime if prime else row[j] - f * v
            pivots.append(c + 1)
            r += 1
            if r == rows:
                break
        flat = tuple(v for row in m for v in row)
        return RrefResult(Matrix._raw_new(self.spec, rows, cols, flat), tuple(pivots), r)

    def rank(self) -> int:
        return self.rref().rank

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
            vec = ColumnVector._raw_new(self.spec, tuple(v))
            lead = vec.first_nonzero_index()
            lead_val = vec._data[lead - 1]
            if lead_val != one:
                vec = vec.scaled(self.spec.invert_value(lead_val))
            basis.append(vec)
        return basis

    def det(self) -> FieldElement:
        """Exact determinant via Gaussian elimination with division."""
        if not self.is_square:
            raise DimensionMismatch("determinant needs a square matrix")
        n = self.rows
        m = [list(self._data[i * n : (i + 1) * n]) for i in range(n)]
        prime = self.spec.modulus if self.spec.is_prime_field else None
        sign_flip = False
        acc = self.spec.one_value
        for c in range(n):
            pr = None
            for i in range(c, n):
                if m[i][c]:
                    pr = i
                    break
            if pr is None:
                return FieldElement(self.spec, self.spec.zero_value)
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                sign_flip = not sign_flip
            piv = m[c][c]
            acc = acc * piv % prime if prime else acc * piv
            pinv = self.spec.invert_value(piv)
            prow = m[c]
            for i in range(c + 1, n):
                f = m[i][c]
                if not f:
                    continue
                f = f * pinv % prime if prime else f * pinv
                row = m[i]
                for j in range(c + 1, n):
                    v = prow[j]
                    if v:
                        row[j] = (row[j] - f * v) % prime if prime else row[j] - f * v
        if sign_flip:
            acc = self.spec.negate_value(acc)
        return FieldElement(self.spec, acc)

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
        if res.pivots != tuple(range(1, n + 1)):
            raise SingularMatrix(f"matrix of rank {res.rank} is not invertible")
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


def outer_product(col: ColumnVector, row: ColumnVector) -> Matrix:
    """The rank-<=1 matrix col * row^T."""
    if col.spec != row.spec:
        raise FieldMismatch("vectors over different fields")
    spec = col.spec
    zero = spec.zero_value
    prime = spec.modulus if spec.is_prime_field else None
    data = []
    for x in col._data:
        if not x:
            data.extend([zero] * row.dim)
        elif prime:
            data.extend(x * y % prime for y in row._data)
        else:
            data.extend(x * y for y in row._data)
    return Matrix._raw_new(spec, col.dim, row.dim, tuple(data))


"""Exact rational scalars and dense rational matrices.

Scalars are ``fractions.Fraction`` (always lowest terms, positive
denominator, exact arithmetic).  Matrices are immutable, dense, row-major,
and support the rank/kernel computations every homology calculation in
this package reduces to.  Rank clears each row's denominators and runs
fraction-free (Bareiss) elimination on Python ints; the Fraction reduced
row echelon form is kept for the kernel basis.  Zero-by-n and n-by-zero
matrices are first-class values: they represent zero maps in and out of
the zero space.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import ShapeError

Rational = Fraction

Scalar = Union[Fraction, int, str]

_ZERO = Fraction(0)


def rat(value: Scalar) -> Fraction:
    """Coerce an int, string like ``"3/4"``, or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ShapeError("booleans are not rational scalars")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise ShapeError(f"cannot interpret {value!r} as an exact rational")


class RationalMatrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalar]):
        if rows < 0 or cols < 0:
            raise ShapeError("matrix dimensions must be nonnegative")
        data = tuple(rat(x) for x in entries)
        if len(data) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self._entries = data

    @classmethod
    def _of_fractions(cls, rows: int, cols: int, entries: Iterable[Fraction]) -> "RationalMatrix":
        """Trusted constructor: rows * cols entries, every one already a Fraction."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._entries = tuple(entries)
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        if rows < 0 or cols < 0:
            raise ShapeError("matrix dimensions must be nonnegative")
        return cls._of_fractions(rows, cols, [_ZERO] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "RationalMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[Scalar] = []
        for r in rows:
            if len(r) != ncols:
                raise ShapeError("ragged rows")
            flat.extend(r)
        return cls(nrows, ncols, flat)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ShapeError(f"index ({i},{j}) out of range for {self.rows}x{self.cols}")
        return self._entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._entries[i * self.cols : (i + 1) * self.cols]

    def entries(self) -> tuple[Fraction, ...]:
        """Row-major tuple of all entries."""
        return self._entries

    def to_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._entries))

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"RationalMatrix({self.rows}x{self.cols})"
        body = "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        return all(x == 0 for x in self._entries)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(self.rows, self.cols, [-x for x in self._entries])

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        return RationalMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self._entries, other._entries)]
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def scale(self, c: Scalar) -> "RationalMatrix":
        f = rat(c)
        return RationalMatrix(self.rows, self.cols, [f * x for x in self._entries])

    def __rmul__(self, c: Scalar) -> "RationalMatrix":
        return self.scale(c)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        """Exact product; zero entries of either factor cost no arithmetic.

        Each nonzero left entry (i, t) is multiplied only into the nonzero
        entries of right row t: one multiply-add per pair of nonzero
        factors, not rows * inner * cols of them.
        """
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        m, k, n = self.rows, self.cols, other.cols
        out = [_ZERO] * (m * n)
        if m and k and n:
            right = other._entries
            right_rows = [
                [(j, y) for j, y in enumerate(right[t * n : (t + 1) * n]) if y]
                for t in range(k)
            ]
            left = self._entries
            for i in range(m):
                base = i * n
                for t, x in enumerate(left[i * k : (i + 1) * k]):
                    if x:
                        for j, y in right_rows[t]:
                            out[base + j] += x * y
        return RationalMatrix._of_fractions(m, n, out)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            self.cols,
            self.rows,
            [self._entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def _rref(self) -> tuple[list[list[Fraction]], list[int]]:
        """Reduced row echelon form and pivot columns.

        Gaussian elimination with first-nonzero pivoting: for each column,
        the first row (at or below the current one) with a nonzero entry is
        promoted.  Exact throughout.
        """
        m = [list(self.row(i)) for i in range(self.rows)]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            if r >= self.rows:
                break
            pivot_row = next((i for i in range(r, self.rows) if m[i][c] != 0), None)
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = 1 / m[r][c]
            m[r] = [inv * x for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return m, pivots

    def rank(self) -> int:
        """Dimension of the column space, by fraction-free elimination.

        Each row is scaled by the lcm of its denominators, which keeps the
        rank, and zero rows are dropped.  Bareiss elimination then runs on
        the integer rows: each pivot p with previous pivot prev turns every
        remaining row into (p*x - a*y) // prev, a division that is always
        exact.  Remaining rows are zero up to the pivot column, so only the
        columns after it are kept; columns with no pivot are skipped, and rows
        that become zero are dropped.
        """
        rows: list[list[int]] = []
        for i in range(self.rows):
            row = self.row(i)
            if any(row):
                scale = lcm(*(x.denominator for x in row))
                rows.append([x.numerator * (scale // x.denominator) for x in row])
        rank = 0
        prev = 1
        c = 0
        while rows and c < len(rows[0]):
            k = next((j for j, r in enumerate(rows) if r[c]), None)
            if k is None:
                c += 1
                continue
            pivot_row = rows.pop(k)
            p = pivot_row[c]
            tail = pivot_row[c + 1 :]
            reduced = []
            for r in rows:
                a = r[c]
                new = [(p * x - a * y) // prev for x, y in zip(r[c + 1 :], tail)]
                if any(new):
                    reduced.append(new)
            rows = reduced
            prev = p
            rank += 1
            c = 0
        return rank

    def kernel_basis(self) -> "RationalMatrix":
        """Matrix whose columns form a basis of the null space.

        Column count is ``cols - rank``; ``self @ basis`` is zero.  Free
        columns are taken in ascending order, so the result is canonical.
        """
        m, pivots = self._rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        columns: list[list[Fraction]] = []
        for fc in free:
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -m[r][fc]
            columns.append(v)
        flat = [columns[j][i] for i in range(self.cols) for j in range(len(free))]
        return RationalMatrix(self.cols, len(free), flat)

    def is_invertible(self) -> bool:
        """True iff square and full rank; the 0x0 matrix is invertible."""
        return self.rows == self.cols and self.rank() == self.rows


def block_diag(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Block-diagonal assembly; degenerate (zero-dimension) blocks collapse."""
    rows = a.rows + b.rows
    cols = a.cols + b.cols
    out: list[Fraction] = []
    for i in range(rows):
        for j in range(cols):
            if i < a.rows and j < a.cols:
                out.append(a[i, j])
            elif i >= a.rows and j >= a.cols:
                out.append(b[i - a.rows, j - a.cols])
            else:
                out.append(Fraction(0))
    return RationalMatrix(rows, cols, out)

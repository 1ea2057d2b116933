"""Exact rational scalars and dense rational matrices.

Scalars are ``fractions.Fraction`` (always lowest terms, positive
denominator, exact arithmetic).  Matrices are immutable, dense, row-major,
and carry only what the commands use: products, the zero test, rank and
invertibility.  A matrix stores Python int numerators over one positive
denominator, in lowest terms, so these run on ints and build no Fraction;
rank is fraction-free (Bareiss) elimination on the numerators.  One row
loop forms sums of products c * L @ R a numerator row at a time: the
product collects its rows, and combination_vanishes, behind the d^2 and
relation checks, stops at the first nonzero row.  combination_madds counts
the loop's multiply-adds beforehand, so both checks bound their work before
it starts, and the d^2 check skips a composite with none, which is zero.
Invertibility of a block up to 3x3 is its integer determinant, not a rank.
Entries read back one at a time are Fractions, and
``from_numerators``/``over`` read and write the integer form, on which the
tests build their own sums, scalings and transposes.  The Fraction reduced
row echelon form and the kernel basis stay for the benchmark tracer and the
tests: the first is rank's reference, the second draws their random
complexes.  Zero-by-n and n-by-zero matrices are first-class values: they
represent zero maps in and out of the zero space.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence, Union

from .errors import ShapeError, rational_literal

Scalar = Union[Fraction, int, str]


def rat(value: Scalar) -> Fraction:
    """Coerce an int, a Fraction, or a string read by rational_literal to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ShapeError("booleans are not rational scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(*rational_literal(value))
    raise ShapeError(f"cannot interpret {value!r} as an exact rational")


class RationalMatrix:
    """Immutable dense matrix of exact rationals.

    Stored as a row-major tuple of int numerators over one positive
    denominator, kept canonical: gcd(denominator, *numerators) == 1, so the
    zero matrix has denominator 1 and equal matrices have equal fields.
    The rank is computed at most once and kept in the _rank slot (None
    until then); it takes no part in equality.
    """

    __slots__ = ("rows", "cols", "numerators", "denominator", "_rank")

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalar]):
        if rows < 0 or cols < 0:
            raise ShapeError("matrix dimensions must be nonnegative")
        data = [x if type(x) is int else rat(x) for x in entries]
        if len(data) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(data)}"
            )
        # Over the lcm of lowest-terms denominators the numerators share no
        # factor with it, so the result is already canonical.
        den = lcm(*(x.denominator for x in data))
        self.rows = rows
        self.cols = cols
        self.numerators = tuple(x.numerator * (den // x.denominator) for x in data)
        self.denominator = den
        self._rank = None

    @classmethod
    def _raw(cls, rows: int, cols: int, nums: tuple[int, ...], den: int) -> "RationalMatrix":
        """Trusted constructor: rows * cols numerators, already canonical over den > 0."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.numerators = nums
        m.denominator = den
        m._rank = None
        return m

    @classmethod
    def from_numerators(
        cls, rows: int, cols: int, nums: Iterable[int], den: int
    ) -> "RationalMatrix":
        """Matrix of entries num / den for rows * cols int numerators and den > 0."""
        nums = tuple(nums)
        if rows < 0 or cols < 0 or den <= 0:
            raise ShapeError("matrix dimensions must be nonnegative and the denominator positive")
        if len(nums) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(nums)}"
            )
        return cls._canonical(rows, cols, nums, den)

    @classmethod
    def _canonical(cls, rows: int, cols: int, nums: tuple[int, ...], den: int) -> "RationalMatrix":
        """Trusted constructor: rows * cols numerators over den > 0, put in
        lowest terms by their greatest common divisor with den."""
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = tuple(x // g for x in nums)
        return cls._raw(rows, cols, nums, den)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        if rows < 0 or cols < 0:
            raise ShapeError("matrix dimensions must be nonnegative")
        return cls._raw(rows, cols, (0,) * (rows * cols), 1)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def over(self, den: int) -> tuple[int, ...]:
        """Numerators of the entries written over den, a multiple of the denominator."""
        k, r = divmod(den, self.denominator)
        if r:
            raise ShapeError(f"{den} is not a multiple of the denominator {self.denominator}")
        return self.numerators if k == 1 else tuple(k * x for x in self.numerators)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ShapeError(f"index ({i},{j}) out of range for {self.rows}x{self.cols}")
        return Fraction(self.numerators[i * self.cols + j], self.denominator)

    def row(self, i: int) -> tuple[Fraction, ...]:
        den = self.denominator
        return tuple(Fraction(x, den) for x in self.numerators[i * self.cols : (i + 1) * self.cols])

    def entries(self) -> tuple[Fraction, ...]:
        """Row-major tuple of all entries."""
        den = self.denominator
        return tuple(Fraction(x, den) for x in self.numerators)

    def to_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.denominator, self.numerators))

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"RationalMatrix({self.rows}x{self.cols})"
        body = "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        return not any(self.numerators)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        """Exact product, formed row by row by _combination_rows."""
        out: list[int] = []
        for row in _combination_rows([(1, self, other)]):
            out += row
        return RationalMatrix._canonical(
            self.rows, other.cols, tuple(out), self.denominator * other.denominator
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

        Neither the common denominator nor a row's content (the gcd of its
        numerators) changes the rank, so each nonzero numerator row is
        divided by its content, which keeps the entries small when rows
        were scaled by different factors, and zero rows are dropped.
        Bareiss elimination then runs on these integer rows, one column at a
        time: with pivot p and previous pivot prev, every remaining row
        becomes (p*x - a*y) // prev, a division that is always exact, and
        rows that become zero are dropped.  A row whose entry a in the pivot
        column is 0 would only be multiplied by p / prev; that product
        telescopes, so the row is left as it is, with the pivot it was last
        computed under, and is brought up to date (times prev, divided by
        that pivot, again exact) only when it next meets a nonzero a.  A
        sparse matrix thus costs work only on the rows each pivot touches.
        The result is kept, so a matrix is eliminated at most once.
        """
        if self._rank is not None:
            return self._rank
        nums, n = self.numerators, self.cols
        # (start, pivot, entries): entries[j] is column start + j, and the
        # row's current Bareiss value is entries * prev // pivot.
        rows: list[tuple[int, int, Sequence[int]]] = []
        for i in range(self.rows):
            row = nums[i * n : (i + 1) * n]
            content = gcd(*row)
            if content:
                rows.append((0, 1, row if content == 1 else [x // content for x in row]))
        rank = 0
        prev = 1
        for c in range(n):
            for k, (start, _, r) in enumerate(rows):
                if r[c - start]:
                    break
            else:
                if not rows:
                    break
                continue
            start, last, pivot_row = rows.pop(k)
            p, tail = pivot_row[c - start], pivot_row[c + 1 - start :]
            if last != prev:
                p, tail = p * prev // last, [x * prev // last for x in tail]
            kept = []
            for row in rows:
                start, last, r = row
                a = r[c - start]
                if not a:
                    kept.append(row)
                    continue
                r = r[c + 1 - start :]
                if last != prev:
                    a, r = a * prev // last, [x * prev // last for x in r]
                new = [(p * x - a * y) // prev for x, y in zip(r, tail)]
                if any(new):
                    kept.append((c + 1, p, new))
            rows = kept
            prev = p
            rank += 1
        self._rank = rank
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
        """True iff square and full rank; the 0x0 matrix is invertible.

        Up to 3x3 the integer determinant of the numerators decides, as it
        is den^n times the determinant; an invertible block keeps its rank.
        Larger blocks are ranked.
        """
        n = self.rows
        if n != self.cols:
            return False
        if self._rank is not None:
            return self._rank == n
        if n > 3:
            return self.rank() == n
        a = self.numerators
        if n == 3:
            det = (a[0] * (a[4] * a[8] - a[5] * a[7]) - a[1] * (a[3] * a[8] - a[5] * a[6])
                   + a[2] * (a[3] * a[7] - a[4] * a[6]))
        else:
            det = a[0] * a[3] - a[1] * a[2] if n == 2 else a[0] if n else 1
        if det:
            self._rank = n
        return det != 0



def _combination_rows(terms: Sequence[tuple]) -> Iterator[list[int]]:
    """Numerator rows of sum c * L @ R over the lcm of the terms' denominators.

    Each term is (c, L, R) with an int c, or (c, L, None) for c * L alone,
    and all terms have one shape.  A row is formed only when it is asked
    for, so at most one row of the sum is held.  Zero entries of either
    factor cost no arithmetic: each nonzero left entry (i, t) is multiplied
    only into the nonzero entries of right row t, listed the first time a
    nonzero left entry needs them, so rows the left factor never uses cost
    nothing.
    """
    _, left, right = terms[0]
    rows, cols = left.rows, (right or left).cols
    # (c, denominator, inner size, left numerators, right numerators, right
    # rows' nonzeros), with None for the right parts of a one-factor term.
    prepared = []
    for c, left, right in terms:
        if right is None:
            if left.rows != rows or left.cols != cols:
                raise ShapeError(f"a {left.rows}x{left.cols} term in a {rows}x{cols} sum")
            prepared.append((c, left.denominator, left.cols, left.numerators, None, None))
            continue
        if left.cols != right.rows:
            raise ShapeError(
                f"cannot multiply {left.rows}x{left.cols} by {right.rows}x{right.cols}"
            )
        if left.rows != rows or right.cols != cols:
            raise ShapeError(f"a {left.rows}x{right.cols} term in a {rows}x{cols} sum")
        prepared.append((
            c, left.denominator * right.denominator, left.cols, left.numerators,
            right.numerators, [None] * right.rows,
        ))
    # One term, or terms all over denominator 1, keep their coefficients.
    if len(prepared) > 1 and any(term[1] != 1 for term in prepared):
        den = lcm(*(term[1] for term in prepared))
        prepared = [(c * (den // d), d, *rest) for c, d, *rest in prepared]
    for i in range(rows):
        acc = [0] * cols
        for scale, _, k, left_nums, right_nums, right_rows in prepared:
            left_row = left_nums[i * k : (i + 1) * k]
            if right_nums is None:
                for j, x in enumerate(left_row):
                    if x:
                        acc[j] += scale * x
                continue
            for t, x in enumerate(left_row):
                if x:
                    row = right_rows[t]
                    if row is None:
                        row = right_rows[t] = [
                            (j, y) for j, y in enumerate(right_nums[t * cols : (t + 1) * cols]) if y
                        ]
                    x *= scale
                    for j, y in row:
                        acc[j] += x * y
        yield acc


def combination_madds(terms: Sequence[tuple]) -> int:
    """Multiply-adds _combination_rows makes on all rows of its terms' sum:
    over the product terms and t, nnz(column t of L) * nnz(row t of R),
    counted in one pass over the entries; column t is read only where row t
    has a nonzero."""
    total = 0
    for _, left, right in terms:
        if right is not None:
            k, n = left.cols, right.cols
            total += sum(
                (left.rows - left.numerators[t::k].count(0)) * r
                for t in range(k)
                if (r := n - right.numerators[t * n : (t + 1) * n].count(0))
            )
    return total


def combination_vanishes(terms: Sequence[tuple]) -> bool:
    """True iff sum c * L @ R over the terms of _combination_rows is zero.

    It stops at the first nonzero row, so it holds one row of the sum.
    """
    for row in _combination_rows(terms):
        if any(row):
            return False
    return True

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from reference import add, block_diag, fraction_rank, matrix, scale, transpose

from exacthom.errors import FormatError, ShapeError
from exacthom.classify import commuting_invertible_pairs, enumerate_matrices
from exacthom.rational import RationalMatrix, combination_madds, combination_vanishes, rat


class TestRank:
    def test_identity(self):
        assert RationalMatrix.identity(2).rank() == 2

    def test_dependent_rows(self):
        assert matrix([[1, 2], [2, 4]]).rank() == 1

    def test_zero(self):
        assert RationalMatrix.zero(3, 4).rank() == 0

    def test_transpose_preserves_rank(self):
        rng = random.Random(4)
        for _ in range(30):
            r, c = rng.randint(0, 3), rng.randint(0, 3)
            m = RationalMatrix(r, c, [rng.randint(-3, 3) for _ in range(r * c)])
            assert m.rank() == transpose(m).rank()

    def test_rank_is_computed_once(self, monkeypatch):
        m = matrix([[1, 2], [2, 4], [0, "1/2"]])
        assert m.rank() == 2
        # a second call reads the kept rank: no row is eliminated again
        monkeypatch.setattr("exacthom.rational.gcd", None)
        assert m.rank() == 2 and m.is_invertible() is False
        assert matrix([[1, 2], [2, 4], [0, "1/2"]]) == m
        assert hash(matrix([[1, 2], [2, 4], [0, "1/2"]])) == hash(m)


class TestKernel:
    def test_injective_map_has_empty_kernel(self):
        k = RationalMatrix.identity(2).kernel_basis()
        assert (k.rows, k.cols) == (2, 0)

    def test_one_dimensional_kernel(self):
        # free column gets coefficient 1, pivot column the negated entry
        k = matrix([[1, 1]]).kernel_basis()
        assert k.cols == 1
        assert k.entries() == (Fraction(-1), Fraction(1))

    def test_product_with_kernel_vanishes(self):
        """Oracle: m times its kernel basis is zero and the count matches rank."""
        m = matrix([[1, 2], [2, 4]])
        k = m.kernel_basis()
        assert (m @ k).is_zero()
        assert k.cols == m.cols - m.rank()
        assert k.rank() == k.cols

    def test_random_kernels(self):
        rng = random.Random(11)
        for _ in range(40):
            r, c = rng.randint(0, 3), rng.randint(0, 4)
            m = RationalMatrix(r, c, [rng.randint(-2, 2) for _ in range(r * c)])
            k = m.kernel_basis()
            assert (m @ k).is_zero()
            assert k.cols == c - m.rank()
            assert k.rank() == k.cols


class TestMultiply:
    def test_identity_neutral(self):
        m = matrix([[1, 2], [3, 4]])
        assert RationalMatrix.identity(2) @ m == m

    def test_zero_absorbs(self):
        m = matrix([[1, 2], [3, 4]])
        assert (m @ RationalMatrix.zero(2, 3)).is_zero()

    def test_involution(self):
        swap = matrix([[0, 1], [1, 0]])
        assert swap @ swap == RationalMatrix.identity(2)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matrix([[1, 2]]) @ matrix([[1, 2]])

    def test_rank_of_product_bounded(self):
        rng = random.Random(7)
        for _ in range(30):
            a = RationalMatrix(2, 3, [rng.randint(-2, 2) for _ in range(6)])
            b = RationalMatrix(3, 2, [rng.randint(-2, 2) for _ in range(6)])
            assert (a @ b).rank() <= min(a.rank(), b.rank())


def random_matrix(rng, rows, cols, fill):
    """Entries nonzero with probability fill; ints and "p/q" strings."""
    pool = [-2, -1, 1, 3, "1/2", "-2/3", "5/7"]
    return RationalMatrix(
        rows, cols, [rng.choice(pool) if rng.random() < fill else 0 for _ in range(rows * cols)]
    )


def product_cases(seed, count=300):
    """Seeded (a, b) pairs: empty and 1x1 shapes, sparse and dense fill."""
    rng = random.Random(seed)
    fixed = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1), (1, 0, 1)]
    for m, k, n in fixed:
        for fill in (0.0, 0.5, 1.0):
            yield random_matrix(rng, m, k, fill), random_matrix(rng, k, n, fill)
    for _ in range(count):
        m, k, n = rng.randint(0, 7), rng.randint(0, 7), rng.randint(0, 7)
        fill = rng.choice((0.05, 0.2, 0.5, 1.0))
        yield random_matrix(rng, m, k, fill), random_matrix(rng, k, n, fill)


class TestProductOracle:
    def test_matches_dense_reference(self):
        for a, b in product_cases(seed=31):
            p = a @ b
            expected = ref_product(a.entries(), b.entries(), a.rows, a.cols, b.cols)
            assert p == RationalMatrix(a.rows, b.cols, expected)
            assert (p.rows, p.cols) == (a.rows, b.cols)
            assert all(type(x) is Fraction for x in p.entries())

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for a, b in product_cases(seed=32, count=100):
            expected = sympy.Matrix(a.rows, a.cols, list(a.entries())) * sympy.Matrix(
                b.rows, b.cols, list(b.entries())
            )
            got = a @ b
            assert [Fraction(int(x.p), int(x.q)) for x in expected] == list(got.entries())


def combination_cases(seed, count=400):
    """Seeded (terms, kind) lists of one shape, kind naming how they end.

    Terms are (c, L, R) with R a matrix or None, coefficients of either
    sign and entries from the "p/q" pool, so their denominators differ.
    Shapes include 0xn, nx0 and an inner dimension of 0.  "free" lists
    keep their random sum; "cancel" lists end with terms equal to minus
    that sum, written in one of several forms with their own
    denominators; "one_row" cancels all but one row of it.
    """
    rng = random.Random(seed)
    fixed = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1), (3, 2, 3)]
    shapes = fixed * 3 + [(rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)) for _ in range(count)]
    for m, k, n in shapes:
        terms = []
        for _ in range(rng.randint(1, 3)):
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            fill = rng.choice((0.2, 0.5, 1.0))
            if rng.random() < 0.4:
                terms.append((c, random_matrix(rng, m, n, fill), None))
            else:
                terms.append((c, random_matrix(rng, m, k, fill), random_matrix(rng, k, n, fill)))
        kind = rng.choice(("free", "cancel", "one_row"))
        if kind != "free":
            total = RationalMatrix.zero(m, n)
            for c, left, right in terms:
                total = add(total, scale(left if right is None else matrix_of(left, right), c))
            if kind == "one_row" and m:
                i = rng.randrange(m)
                nums = list(total.numerators)
                nums[i * n : (i + 1) * n] = [0] * n
                total = RationalMatrix.from_numerators(m, n, nums, total.denominator)
            form = rng.randrange(4)
            if form == 0:
                terms.append((-1, total, None))
            elif form == 1:
                terms.append((-2, scale(total, "1/2"), None))
            elif form == 2:
                terms.append((-1, scale(total, "1/3"), scale(RationalMatrix.identity(n), 3)))
            else:
                terms.append((-1, RationalMatrix.identity(m), total))
        rng.shuffle(terms)
        yield terms, kind


def matrix_of(left, right):
    """left @ right by the dense Fraction reference, not by the row loop under @."""
    return RationalMatrix(
        left.rows, right.cols, ref_product(left.entries(), right.entries(), left.rows, left.cols, right.cols)
    )


def reference_vanishes(terms):
    m, n = terms[0][1].rows, (terms[0][2] or terms[0][1]).cols
    total = RationalMatrix.zero(m, n)
    for c, left, right in terms:
        total = add(total, scale(left if right is None else matrix_of(left, right), c))
    return total.is_zero()


class TestCombinationOracle:
    def test_matches_sum_of_products(self):
        seen = {}
        for terms, kind in combination_cases(seed=61):
            expected = reference_vanishes(terms)
            assert combination_vanishes(terms) == expected, (kind, terms)
            seen[kind, expected] = seen.get((kind, expected), 0) + 1
        # cancelled sums vanish, and the others mostly do not
        assert seen["cancel", True] > 50 and ("cancel", False) not in seen
        assert seen["free", False] > 50 and seen["one_row", False] > 50

    def test_commuting_pairs_cancel_exactly(self):
        pool = (-1, 1, 2)
        pairs = commuting_invertible_pairs(2, pool)
        assert pairs
        for a, b in pairs:
            assert combination_vanishes(((1, a, b), (-1, b, a)))
            assert reference_vanishes(((1, a, b), (-1, b, a)))
        commuting = set(pairs)
        a = pairs[0][0]
        for b in (m for m in enumerate_matrices(2, 2, pool) if m.is_invertible()):
            terms = ((1, a, b), (-1, b, a))
            assert combination_vanishes(terms) == ((a, b) in commuting) == reference_vanishes(terms)

    def test_multiply_adds_match_a_count_over_entries(self):
        """combination_madds counts, for each nonzero left entry (i, t) of a
        product term, the nonzeros of right row t; one-factor terms count 0."""
        for terms, _ in combination_cases(seed=62):
            expected = 0
            for _, left, right in terms:
                if right is not None:
                    for i, t in itertools.product(range(left.rows), range(left.cols)):
                        if left[i, t]:
                            expected += sum(1 for j in range(right.cols) if right[t, j])
            assert combination_madds(terms) == expected

    def test_shape_mismatch(self):
        a, b = matrix([[1, 2]]), matrix([[1], [2]])
        for terms in [
            [(1, a, a)],
            [(1, b, a), (1, a, b)],
            [(1, a, None), (1, b, None)],
        ]:
            with pytest.raises(ShapeError):
                combination_vanishes(terms)


def rank_cases(seed, count=200):
    """Seeded matrices for the rank oracle.

    Empty and 1x1 shapes, then random shapes with sparse and dense fill:
    up to 42x42 with small entries and "p/q" entries, and up to 10x10 with
    numerators and denominators around 10**30.  Some cases get zero rows,
    zero columns or repeated columns, or are products through an inner
    dimension of at most min(rows, cols), so that elimination meets rows
    that vanish and columns that hold no pivot, and rows that depend on
    others only through "p/q" coefficients.
    """
    rng = random.Random(seed)
    big = 10**30
    small = [-2, -1, 1, 3, "1/2", "-2/3", "5/7"]
    huge = [big + 1, -big, big - 7, f"{big + 3}/7", f"-{big}/{big + 1}", 1]
    for r, c in [(0, 0), (0, 5), (5, 0), (1, 1)]:
        for fill in (0.0, 1.0):
            yield random_matrix(rng, r, c, fill)
    yield random_matrix(rng, 42, 42, 0.2)
    yield random_matrix(rng, 42, 30, 0.5) @ random_matrix(rng, 30, 42, 0.5)
    for _ in range(count):
        shape = rng.random()
        if shape < 0.05:
            r, c, pool = rng.randint(20, 42), rng.randint(20, 42), small
        elif shape < 0.4:
            r, c, pool = rng.randint(1, 10), rng.randint(1, 10), huge
        else:
            r, c, pool = rng.randint(1, 9), rng.randint(1, 9), small
        fill = rng.choice((0.05, 0.2, 0.5, 1.0))
        grid = [[rng.choice(pool) if rng.random() < fill else 0 for _ in range(c)] for _ in range(r)]
        kind = rng.choice(("plain", "zero_row", "zero_col", "repeat_col", "low_rank"))
        if kind == "zero_row":
            grid[rng.randrange(r)] = [0] * c
        elif kind == "zero_col":
            j = rng.randrange(c)
            for row in grid:
                row[j] = 0
        elif kind == "repeat_col" and c > 1:
            src, dst = rng.sample(range(c), 2)
            for row in grid:
                row[dst] = row[src]
        m = matrix(grid)
        if kind == "low_rank":
            k = rng.randint(1, min(r, c))
            mix = RationalMatrix(r, k, [rng.choice(pool) for _ in range(r * k)])
            m = mix @ matrix(grid[:k])
        yield m


class TestRankOracle:
    def test_matches_rref(self):
        for m in rank_cases(seed=41):
            assert m.rank() == len(m._rref()[1])

    def test_matches_sympy(self):
        """sympy.Matrix.rank up to 10x10; above that, sympy's exact domain rank.

        Matrix.rank does not finish within a minute on some rank-deficient 24x42
        rational matrices, so the large cases go through to_DM().
        """
        sympy = pytest.importorskip("sympy")
        for m in rank_cases(seed=42, count=60):
            s = sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for x in m.entries()])
            expected = s.rank() if max(m.rows, m.cols) <= 10 else s.to_DM().rank()
            assert m.rank() == expected

    def test_row_scaling_keeps_rank(self):
        """Metamorphic: scaling each row by a nonzero p/q leaves rank unchanged."""
        rng = random.Random(43)
        for m in rank_cases(seed=44, count=80):
            factors = [
                Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6))
                for _ in range(m.rows)
            ]
            scaled = RationalMatrix(
                m.rows, m.cols, [factors[i] * x for i in range(m.rows) for x in m.row(i)]
            )
            assert scaled.rank() == m.rank()


class TestTranspose:
    def test_involution(self):
        m = matrix([[1, 2], [3, 4]])
        assert transpose(transpose(m)) == m

    def test_values(self):
        assert transpose(matrix([[1, 2], [3, 4]])) == matrix([[1, 3], [2, 4]])

    def test_zero_shape(self):
        t = transpose(RationalMatrix.zero(2, 3))
        assert (t.rows, t.cols) == (3, 2) and t.is_zero()


class TestInvertible:
    def test_identity(self):
        assert RationalMatrix.identity(3).is_invertible()

    def test_rank_deficient(self):
        assert not matrix([[1, 2], [2, 4]]).is_invertible()

    def test_non_square(self):
        assert not RationalMatrix.zero(2, 3).is_invertible()

    def test_empty_matrix_is_invertible(self):
        # the unique map on the zero space is its own inverse
        assert RationalMatrix.zero(0, 0).is_invertible()

    @pytest.mark.parametrize("n, pool", [
        (1, (0, 1, -1, 2, "1/2", "-2/3")),
        (2, (0, 1, -1, 2, "1/2", "-2/3")),
        (3, (0, 1, "-1/2")),
    ])
    def test_determinant_path_matches_fraction_rank(self, n, pool):
        """Every n x n matrix over pool: is_invertible() agrees with the
        Fraction rank, and a rank it keeps is the rank of an equal matrix."""
        pool = [rat(x) for x in pool]
        seen = set()
        for entries in itertools.product(pool, repeat=n * n):
            m = RationalMatrix(n, n, entries)
            invertible = m.is_invertible()
            rows = [entries[i * n : (i + 1) * n] for i in range(n)]
            assert invertible == (fraction_rank(rows) == n), entries
            if m._rank is not None:
                assert m._rank == RationalMatrix(n, n, entries).rank()
            seen.add((invertible, m._rank))
        assert seen == {(True, n), (False, None)}


@pytest.mark.parametrize("text", ["0.5", "1e3", " 1/2 ", "1_0", "\u0661", "abc", "1/0", "3/-4"])
def test_library_strings_follow_the_file_rule(text):
    message = f"bad rational literal {text!r}"
    for convert in (rat, lambda s: RationalMatrix(1, 1, [s])):
        with pytest.raises(FormatError) as exc:
            convert(text)
        assert str(exc.value) == message


def test_exact_arithmetic_no_drift():
    third = rat("1/3")
    m = RationalMatrix(1, 1, [third])
    acc = m
    for _ in range(30):
        acc = add(acc, m)
    assert acc[0, 0] == Fraction(31, 3)


def test_entry_reduction_invariant():
    m = matrix([["2/4", "3/6"]])
    assert m[0, 0] == Fraction(1, 2) and m[0, 1] == Fraction(1, 2)
    assert all(x.denominator > 0 for x in m.entries())


def test_scale_and_add():
    m = matrix([[1, 2], [3, 4]])
    assert add(scale(m, 2), scale(m, -1)) == m
    assert add(m, scale(m, -1)).is_zero()


def test_block_diag():
    a = matrix([[1]])
    b = matrix([[2, 0], [0, 3]])
    d = block_diag(a, b)
    assert d.rows == 3 and d.cols == 3
    assert d[0, 0] == 1 and d[1, 1] == 2 and d[2, 2] == 3
    assert d[0, 1] == 0 and d[1, 0] == 0


def test_block_diag_degenerate():
    a = RationalMatrix.zero(0, 2)
    b = matrix([[5]])
    d = block_diag(a, b)
    assert (d.rows, d.cols) == (1, 3)
    assert d[0, 2] == 5


def test_zero_matrix():
    z = RationalMatrix.zero(2, 3)
    assert (z.rows, z.cols) == (2, 3) and z.is_zero()
    assert z == RationalMatrix(2, 3, [0] * 6)
    assert all(type(x) is Fraction for x in z.entries())
    for shape in [(-1, 2), (2, -1)]:
        with pytest.raises(ShapeError):
            RationalMatrix.zero(*shape)


def test_bad_entry_count():
    with pytest.raises(ShapeError):
        RationalMatrix(2, 2, [1, 2, 3])


def test_ragged_rows_rejected():
    with pytest.raises(ShapeError):
        matrix([[1, 2], [3]])


# -- storage oracle: every operation against plain Fraction lists ----------

_SMALL = [0, 0, 1, -1, 2, -3, "1/2", "-2/3", "5/7", "7/6", "-9/4"]
_HUGE = [0, 10**30 + 1, -(10**30), f"{10**30 + 3}/7", f"-{10**30}/{10**30 + 1}", "3/5"]


def ref_matrix(rng, rows, cols, pool):
    """(matrix, reference): the same entries as a RationalMatrix and as a Fraction list."""
    ref = [Fraction(rng.choice(pool)) for _ in range(rows * cols)]
    return RationalMatrix(rows, cols, [str(x) for x in ref]), ref


def ref_product(a, b, m, k, n):
    return [sum((a[i * k + t] * b[t * n + j] for t in range(k)), Fraction(0))
            for i in range(m) for j in range(n)]


def ref_transpose(a, m, n):
    return [a[i * n + j] for j in range(n) for i in range(m)]


def ref_block_diag(a, ar, ac, b, br, bc):
    zero = Fraction(0)
    return [a[i * ac + j] if i < ar and j < ac
            else b[(i - ar) * bc + j - ac] if i >= ar and j >= ac else zero
            for i in range(ar + br) for j in range(ac + bc)]


def assert_matches(got, rows, cols, ref):
    """Same shape and entries as the reference, stored canonically."""
    assert (got.rows, got.cols) == (rows, cols)
    assert got.entries() == tuple(ref)
    assert all(type(x) is Fraction for x in got.entries())
    assert got.denominator > 0
    assert gcd(got.denominator, *got.numerators) == 1
    assert got.is_zero() == (not any(ref))


def storage_cases(seed, count=150):
    """Seeded shapes: 0xn, nx0, 0x0, 1x1 and random up to 6x6, small "p/q" or ~10**30 entries."""
    rng = random.Random(seed)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (3, 0), (0, 3)]
    shapes += [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(count)]
    for r, c in shapes:
        yield rng, r, c, rng.choice((_SMALL, _SMALL, _HUGE))


class TestStorageOracle:
    def test_elementwise_operations(self):
        for rng, r, c, pool in storage_cases(seed=51):
            a, ra = ref_matrix(rng, r, c, pool)
            b, rb = ref_matrix(rng, r, c, pool)
            assert_matches(a, r, c, ra)
            assert_matches(add(a, b), r, c, [x + y for x, y in zip(ra, rb)])
            assert_matches(add(a, scale(b, -1)), r, c, [x - y for x, y in zip(ra, rb)])
            assert_matches(add(a, scale(a, -1)), r, c, [Fraction(0)] * (r * c))
            assert_matches(scale(a, -1), r, c, [-x for x in ra])
            s = Fraction(rng.choice(pool))
            assert_matches(scale(a, s), r, c, [s * x for x in ra])
            assert_matches(transpose(a), c, r, ref_transpose(ra, r, c))
            assert a.rank() == fraction_rank([ra[i * c : (i + 1) * c] for i in range(r)])

    def test_product_and_block_diag(self):
        for rng, m, k, pool in storage_cases(seed=52):
            n = rng.randint(0, 6)
            a, ra = ref_matrix(rng, m, k, pool)
            b, rb = ref_matrix(rng, k, n, pool)
            assert_matches(a @ b, m, n, ref_product(ra, rb, m, k, n))
            assert_matches(block_diag(a, b), m + k, k + n, ref_block_diag(ra, m, k, rb, k, n))

    def test_equality_and_hash_follow_the_entries(self):
        for rng, r, c, pool in storage_cases(seed=53):
            a, ra = ref_matrix(rng, r, c, pool)
            # the same entries reached through different denominators
            s = Fraction(rng.choice((3, -5, "2/9", "-7/4")))
            same = scale(scale(a, s), 1 / s)
            assert same == a and hash(same) == hash(a)
            assert RationalMatrix(r, c, ra) == a
            b, rb = ref_matrix(rng, r, c, pool)
            assert (a == b) == (ra == rb)
            assert (a == transpose(a)) == ((r, c) == (c, r) and ra == ref_transpose(ra, r, c))


class TestCanonicalForm:
    def test_scaled_halves_equal_integers(self):
        a = scale(RationalMatrix(1, 2, ["1/2", "3/2"]), 2)
        b = RationalMatrix(1, 2, [1, 3])
        assert a == b and hash(a) == hash(b)
        assert (a.numerators, a.denominator) == ((1, 3), 1)

    def test_sum_with_negation_is_zero(self):
        a = RationalMatrix(2, 2, ["1/3", "-5/6", 7, 1])
        z = add(a, scale(a, -1))
        assert z == RationalMatrix.zero(2, 2) and hash(z) == hash(RationalMatrix.zero(2, 2))
        assert (z.numerators, z.denominator) == ((0,) * 4, 1)

    def test_readers_return_fractions(self):
        a = RationalMatrix(2, 2, ["1/2", 3, 0, "-4/6"])
        assert a[1, 1] == Fraction(-2, 3) and type(a[0, 1]) is Fraction
        assert a.row(0) == (Fraction(1, 2), Fraction(3))
        assert all(type(x) is Fraction for x in a.row(1))
        assert a.entries() == (Fraction(1, 2), Fraction(3), Fraction(0), Fraction(-2, 3))
        assert a.to_lists() == [[Fraction(1, 2), 3], [0, Fraction(-2, 3)]]

    def test_from_numerators_reduces(self):
        a = RationalMatrix.from_numerators(1, 3, [4, -6, 0], 8)
        assert (a.numerators, a.denominator) == ((2, -3, 0), 4)
        assert RationalMatrix.from_numerators(2, 1, [0, 0], 9) == RationalMatrix.zero(2, 1)
        for args in [(1, 1, [1], 0), (1, 1, [1], -2), (1, 2, [1], 1)]:
            with pytest.raises(ShapeError):
                RationalMatrix.from_numerators(*args)

    def test_over_a_common_denominator(self):
        a = RationalMatrix(1, 2, ["1/2", "1/3"])
        assert a.over(6) == (3, 2) and a.over(12) == (6, 4)
        with pytest.raises(ShapeError):
            a.over(4)

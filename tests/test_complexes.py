import hashlib
import random
import tracemalloc
from fractions import Fraction

import pytest
from reference import direct_sum, graded_map, random_complex, shift
from test_acceptance import SEED, _random_dims

from exacthom import complexes
from exacthom.classify import SampleConfig, check_sphere_theorem, enumerate_sphere_representations
from exacthom.complexes import CochainComplex
from exacthom.errors import FormatError, InvalidComplexError
from exacthom.graded import GradedMap, GradedVectorSpace
from exacthom.io import parse_complex
from exacthom.quiver import hom_complex
from exacthom.rational import RationalMatrix, combination_madds


def complex_from(dims, blocks=None):
    space = GradedVectorSpace(dims)
    return CochainComplex(space, graded_map(space, space, 1, blocks or {}))


def surface_complex(g):
    # one generator in degrees -2 and 0, 2g in degree -1, zero differential
    return complex_from({-2: 1, -1: 2 * g, 0: 1})


class TestValidate:
    def test_zero_differential(self):
        assert complex_from({0: 2, 1: 1}).validate()

    def test_identity_twice_fails(self):
        # d^1 d^0 = 0, but d^2 d^1 is the identity: every composite is checked
        with pytest.raises(InvalidComplexError):
            complex_from({0: 1, 1: 1, 2: 1, 3: 1}, {1: [[1]], 2: [[1]]})

    def test_torus_shape(self):
        assert complex_from({-2: 1, -1: 2, 0: 1}).validate()

    def test_invalid_rejected_at_construction(self):
        with pytest.raises(InvalidComplexError):
            complex_from({0: 1, 1: 1, 2: 1}, {0: [[1]], 1: [[1]]})

    def test_wrong_degree_rejected(self):
        space = GradedVectorSpace({0: 1})
        with pytest.raises(InvalidComplexError):
            CochainComplex(space, GradedMap.zero(space, space, 0))


class TestCheckOnce:
    @pytest.fixture
    def checks(self, monkeypatch):
        """Counts the d^2 check's calls: combination_madds counts each
        composite once, and combination_vanishes forms one."""
        calls = {"counted": 0, "formed": 0}

        def counting(name, fn):
            def counted(terms):
                calls[name] += 1
                return fn(terms)

            return counted

        monkeypatch.setattr(complexes, "combination_madds", counting("counted", complexes.combination_madds))
        monkeypatch.setattr(complexes, "combination_vanishes", counting("formed", complexes.combination_vanishes))
        return calls

    def test_checked_complex_squares_once(self, checks):
        # Column 1 of d^1 meets row 1 of d^0, which is zero: no multiply-add,
        # so the composite is counted but not formed.
        c = complex_from({0: 1, 1: 2, 2: 1}, {0: [[1], [0]], 1: [[0, 1]]})
        first = c.cohomology()
        assert c.cohomology() == first
        assert c.cohomology().euler() == c.space.euler()
        assert checks == {"counted": 1, "formed": 0}

    def test_composite_with_multiply_adds_formed_once(self, checks):
        c = complex_from({0: 1, 1: 2, 2: 1}, {0: [[1], [1]], 1: [[1, -1]]})
        assert c.cohomology() == c.cohomology()
        assert checks == {"counted": 1, "formed": 1}

    def test_cached_cohomology_cannot_be_mutated(self):
        c = surface_complex(1)
        c.cohomology().dims[0] = 99
        assert c.cohomology().dims == {-2: 1, -1: 2, 0: 1}


def traced_peak(build):
    """build() and the peak of its tracemalloc-traced allocations, in bytes."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSquareCheckMemory:
    """The d^2 check holds one row of a composite, never all of it.

    Blocks of n entries through a middle degree of dimension 1 or 2 have an
    n x n composite, which would take 8 n^2 bytes as a list (8 MB here).
    """

    N = 1000

    def test_refused_without_the_whole_composite(self):
        n = self.N
        doc = {"dims": {"0": n, "1": 1, "2": n}, "differential": {"0": [[1] * n], "1": [[1]] * n}}

        def build():
            with pytest.raises(InvalidComplexError, match="differential does not square to zero"):
                parse_complex(doc)

        _, peak = traced_peak(build)
        assert peak < 2 << 20

    def test_cancelling_composite_accepted(self):
        n = self.N
        doc = {
            "dims": {"0": n, "1": 2, "2": n},
            "differential": {"0": [[1] * n, [-1] * n], "1": [[1, 1]] * n},
        }
        cx, peak = traced_peak(lambda: parse_complex(doc))
        assert peak < 2 << 20
        assert cx.cohomology().dims == {0: n - 1, 2: n - 1}


def reference_composite_vanishes(left, right):
    """Oracle: form left @ right entry by entry over Fraction, then compare
    every entry with zero."""
    a, b = left.to_lists(), right.to_lists()
    return all(
        sum((a[i][t] * b[t][j] for t in range(left.cols)), Fraction(0)) == 0
        for i in range(left.rows)
        for j in range(right.cols)
    )


def squares_to_zero(left, right):
    """Whether the complex with d^0 = right and d^1 = left constructs."""
    space = GradedVectorSpace({0: right.cols, 1: right.rows, 2: left.rows})
    try:
        CochainComplex(space, GradedMap(space, space, 1, {0: right, 1: left}))
    except InvalidComplexError:
        return False
    return True


def random_block(rng, rows, cols, zero_rows=(), zero_cols=()):
    pool = (-2, -1, 0, 0, 1, 2, "1/2", "-3/4")
    return RationalMatrix(rows, cols, [
        0 if i in zero_rows or j in zero_cols else rng.choice(pool)
        for i in range(rows) for j in range(cols)
    ])


class TestCountFirst:
    """The d^2 check counts each composite's multiply-adds first, refuses
    over the budget, and forms only a composite with some."""

    def test_validate_matches_the_fraction_reference(self):
        rng = random.Random(41)
        seen = set()
        for k in range(300):
            a, b, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            kind = k % 3
            if kind == 0:
                # Disjoint supports: the rows of d^0 that are nonzero meet
                # only zero columns of d^1, so the count is 0.
                split = set(rng.sample(range(b), rng.randint(0, b)))
                right = random_block(rng, b, a, zero_rows=split)
                left = random_block(rng, c, b, zero_cols=set(range(b)) - split)
            elif kind == 1:
                # d^0 spans part of the kernel of d^1: nonzero count, zero composite.
                left = random_block(rng, c, b)
                kernel = left.kernel_basis()
                if kernel.cols == 0:
                    continue
                right = RationalMatrix(b, a, [
                    sum((rng.choice((-1, 1, 2)) * kernel[i, j] for j in range(kernel.cols)), Fraction(0))
                    if rng.random() < 0.8 else 0
                    for i in range(b) for _ in range(a)
                ])
            else:
                left, right = random_block(rng, c, b), random_block(rng, b, a)
            expected = reference_composite_vanishes(left, right)
            assert squares_to_zero(left, right) == expected
            seen.add((combination_madds([(1, left, right)]) > 0, expected))
        assert seen == {(False, True), (True, True), (True, False)}

    def test_morphism_complex_composites_count_nothing(self):
        """Every composable pair of every morphism complex between two of the
        28 exhaustive sphere representations has no multiply-add."""
        reps = list(enumerate_sphere_representations())
        assert len(reps) == 28
        pairs = 0
        for v in reps:
            for w in reps:
                blocks = hom_complex(v, w).complex.differential.blocks()
                for i, b in blocks.items():
                    if i + 1 in blocks:
                        assert combination_madds([(1, blocks[i + 1], b)]) == 0
                        pairs += 1
        assert pairs > 100

    def test_misplaced_entry_is_caught(self):
        """A nonzero entry of d^p moved into an unshifted-summand row (a
        nonzero column t of d^(p+1)) makes the composite nonzero, and the
        count sees it."""
        moved = 0
        for v in enumerate_sphere_representations():
            cx = hom_complex(v, v).complex
            blocks = dict(cx.differential.blocks())
            for p, right in cx.differential.blocks().items():
                left = blocks.get(p + 1)
                if left is None:
                    continue
                t = next(j for j in range(left.cols) if any(left[i, j] for i in range(left.rows)))
                r, c = next((i, j) for i in range(right.rows) for j in range(right.cols) if right[i, j])
                nums = list(right.numerators)
                nums[t * right.cols + c], nums[r * right.cols + c] = nums[r * right.cols + c], 0
                bad = dict(blocks)
                bad[p] = RationalMatrix.from_numerators(right.rows, right.cols, nums, right.denominator)
                with pytest.raises(InvalidComplexError):
                    CochainComplex(cx.space, GradedMap(cx.space, cx.space, 1, bad))
                moved += 1
        assert moved > 5

    def test_over_budget_refused_before_any_composite(self, monkeypatch):
        """Built in the library, not read from a file, the same bound holds:
        32 M multiply-adds are refused and no composite is formed."""
        monkeypatch.setattr(complexes, "combination_vanishes", lambda terms: pytest.fail("formed"))
        n = 4000
        with pytest.raises(FormatError) as info:
            complex_from({0: n, 1: 2, 2: n}, {0: [[1] * n, [-1] * n], 1: [[1, 1]] * n})
        assert str(info.value) == (
            "checking that d^2 = 0 needs 32000000 multiply-adds, "
            "more than the 2000000 a complex file may ask for"
        )

    def test_sphere_sweep_forms_no_composite(self, monkeypatch, cpus):
        """validate runs once per morphism complex and forms no composite."""
        cpus(1)
        formed, constructed, validated = [], [], []
        monkeypatch.setattr(complexes, "combination_vanishes", lambda terms: formed.append(terms))
        construct, validate = CochainComplex.__init__, CochainComplex.validate
        monkeypatch.setattr(
            CochainComplex, "__init__", lambda self, *a: constructed.append(1) or construct(self, *a)
        )
        monkeypatch.setattr(
            CochainComplex, "validate", lambda self: validated.append(1) or validate(self)
        )
        report = check_sphere_theorem(SampleConfig(seed=4, count=300, max_total_dim=4))
        assert report.passed and report.samples_checked == 328
        assert formed == []
        assert len(validated) == len(constructed) > 100


class TestCohomology:
    def test_circle(self):
        c = complex_from({-1: 1, 0: 1})
        assert c.cohomology().dims == {-1: 1, 0: 1}

    def test_sphere(self):
        c = complex_from({-2: 1, 0: 1})
        h = c.cohomology()
        assert (h.dim(-2), h.dim(-1), h.dim(0)) == (1, 0, 1)

    def test_torus(self):
        assert surface_complex(1).cohomology().dims == {-2: 1, -1: 2, 0: 1}

    def test_acyclic_pair(self):
        c = complex_from({0: 1, 1: 1}, {0: [[1]]})
        assert c.cohomology().dims == {}

    def test_vanishes_outside_support(self):
        rng = random.Random(2)
        for k in range(20):
            dims = {i: rng.randint(0, 3) for i in range(-2, 3)}
            c = random_complex(dims, seed=k)
            degs = c.space.degrees()
            if not degs:
                continue
            for n in c.cohomology().dims:
                assert min(degs) <= n <= max(degs)


class TestEuler:
    def test_genus_g_surface(self):
        for g in range(6):
            assert surface_complex(g).space.euler() == 2 - 2 * g

    def test_zero_complex(self):
        assert complex_from({}).space.euler() == 0

    def test_sphere(self):
        assert complex_from({-2: 1, 0: 1}).space.euler() == 2

    def test_zero_differential_trivially_agrees(self):
        c = complex_from({0: 2, 1: 3, 3: 1})
        assert c.space.euler() == c.cohomology().euler()

    def test_both_formulas_agree_on_random_complexes(self):
        """Oracle: compute both alternating sums independently here."""
        rng = random.Random(17)
        for k in range(60):
            dims = {i: rng.randint(0, 3) for i in range(-3, 4)}
            c = random_complex(dims, seed=k)
            by_dims = sum(
                (-1 if i % 2 else 1) * d for i, d in c.space.dims.items()
            )
            by_cohomology = sum(
                (-1 if i % 2 else 1) * d for i, d in c.cohomology().dims.items()
            )
            assert by_dims == by_cohomology
            assert c.space.euler() == by_dims


class TestShift:
    def test_zero_shift_is_identity(self):
        c = complex_from({0: 1, 1: 2}, {0: [[1], [0]]})
        assert shift(c, 0) == c

    def test_euler_sign(self):
        rng = random.Random(23)
        for k in range(20):
            dims = {i: rng.randint(0, 2) for i in range(-2, 3)}
            c = random_complex(dims, seed=100 + k)
            for s in range(-3, 4):
                sign = -1 if s % 2 else 1
                assert shift(c, s).space.euler() == sign * c.space.euler()

    def test_double_shift_restores_sign(self):
        c = complex_from({0: 1, 1: 1}, {0: [[2]]})
        assert shift(shift(c, 1), 1) == shift(c, 2)
        assert shift(c, 2).differential.block(-2) == c.differential.block(0)

    def test_shift_translates_cohomology(self):
        rng = random.Random(29)
        for k in range(15):
            dims = {i: rng.randint(0, 2) for i in range(-2, 3)}
            c = random_complex(dims, seed=200 + k)
            h = c.cohomology()
            for s in (-2, -1, 1, 3):
                hs = shift(c, s).cohomology()
                assert all(hs.dim(i) == h.dim(i + s) for i in range(-6, 7))

    def test_shift_preserves_validity(self):
        c = complex_from({0: 2, 1: 2}, {0: [[1, 1], [1, 1]]})
        assert shift(c, -1).validate() and shift(c, 3).validate()


class TestDirectSum:
    def test_zero_neutral(self):
        c = complex_from({0: 1, 1: 1}, {0: [[3]]})
        z = complex_from({})
        assert direct_sum(c, z) == c

    def test_euler_additive(self):
        rng = random.Random(31)
        for k in range(20):
            a = random_complex({i: rng.randint(0, 2) for i in range(-2, 2)}, seed=k)
            b = random_complex({i: rng.randint(0, 2) for i in range(0, 3)}, seed=k + 500)
            assert direct_sum(a, b).space.euler() == a.space.euler() + b.space.euler()

    def test_cohomology_additive(self):
        """Oracle: block-diagonal rank additivity means the sum's cohomology
        is the degreewise sum; check against independently computed sides."""
        rng = random.Random(37)
        for k in range(20):
            a = random_complex({i: rng.randint(0, 2) for i in range(-2, 2)}, seed=k)
            b = random_complex({i: rng.randint(0, 2) for i in range(-1, 3)}, seed=k + 900)
            ha, hb = a.cohomology(), b.cohomology()
            hs = direct_sum(a, b).cohomology()
            for i in range(-4, 5):
                assert hs.dim(i) == ha.dim(i) + hb.dim(i)


class TestRandomComplex:
    def test_valid_by_construction(self):
        for k in range(30):
            c = random_complex({-1: 2, 0: 3, 1: 2, 2: 1}, seed=k)
            assert c.validate()

    def test_deterministic(self):
        a = random_complex({0: 3, 1: 3, 2: 2}, seed=77)
        b = random_complex({0: 3, 1: 3, 2: 2}, seed=77)
        assert a == b

    def test_produces_nonzero_differentials(self):
        hits = sum(
            1
            for k in range(20)
            if not random_complex({0: 3, 1: 3}, seed=k).differential.is_zero()
        )
        assert hits > 10

    def test_draws_are_pinned(self):
        """sha256 of the dims, denominators and numerators of every complex
        that criterion 2, criterion 8 and this module draw, so a rewritten
        generator must draw the same complexes."""
        digest = hashlib.sha256()
        for dims, seed in _pinned_draws():
            c = random_complex(dims, seed=seed)
            blocks = [(i, b.denominator, b.numerators) for i, b in c.differential.blocks().items()]
            digest.update(repr((c.space.dims, blocks)).encode())
        assert digest.hexdigest() == PINNED_DRAWS


PINNED_DRAWS = "42f4143761f8e7b2da2abb389084d4af3254311f816c4881276b6916d06b9f23"


def _pinned_draws():
    """(dims, seed) of each random complex, in the order the tests draw them."""
    rng = random.Random(SEED)
    for i in range(500):
        yield _random_dims(rng), SEED + i
    yield from (({-1: 2, 0: 3, 1: 2}, i) for i in range(20))
    for rng_seed, count, span, top, first in [
        (2, 20, (-2, 3), 3, 0), (17, 60, (-3, 4), 3, 0), (23, 20, (-2, 3), 2, 100), (29, 15, (-2, 3), 2, 200)
    ]:
        rng = random.Random(rng_seed)
        for k in range(count):
            yield {i: rng.randint(0, top) for i in range(*span)}, first + k
    for rng_seed, span, offset in [(31, (0, 3), 500), (37, (-1, 3), 900)]:
        rng = random.Random(rng_seed)
        for k in range(20):
            yield {i: rng.randint(0, 2) for i in range(-2, 2)}, k
            yield {i: rng.randint(0, 2) for i in range(*span)}, k + offset
    yield from (({-1: 2, 0: 3, 1: 2, 2: 1}, k) for k in range(30))
    yield {0: 3, 1: 3, 2: 2}, 77
    yield from (({0: 3, 1: 3}, k) for k in range(20))


def test_cohomology_result_helpers():
    """Cohomology comes back as a GradedVectorSpace; a zero entry is dropped from every view."""
    h = GradedVectorSpace({0: 1, 2: 1, 5: 0})
    assert h.dims == {0: 1, 2: 1}
    assert h.total_dim() == 2
    assert h.euler() == 2
    assert h.degrees() == (0, 2)
    assert isinstance(surface_complex(1).cohomology(), GradedVectorSpace)

import hashlib
import random
import tracemalloc

import pytest
from reference import direct_sum, graded_map, random_complex, shift
from test_acceptance import SEED, _random_dims

from exacthom import complexes
from exacthom.complexes import CochainComplex
from exacthom.errors import InvalidComplexError
from exacthom.graded import GradedMap, GradedVectorSpace
from exacthom.io import parse_complex


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
    def composites(self, monkeypatch):
        """Counts d^2 composites checked: one combination_vanishes call each."""
        calls = []
        vanishes = complexes.combination_vanishes

        def counted(terms):
            calls.append(terms)
            return vanishes(terms)

        monkeypatch.setattr(complexes, "combination_vanishes", counted)
        return calls

    def test_checked_complex_squares_once(self, composites):
        c = complex_from({0: 1, 1: 2, 2: 1}, {0: [[1], [0]], 1: [[0, 1]]})
        first = c.cohomology()
        assert c.cohomology() == first
        assert c.cohomology().euler() == c.space.euler()
        assert len(composites) == 1

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

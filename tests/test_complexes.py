import random

import pytest

from exacthom.complexes import (
    CochainComplex,
    random_complex,
)
from exacthom.errors import InvalidComplexError
from exacthom.graded import GradedMap, GradedVectorSpace
from exacthom.rational import RationalMatrix


def complex_from(dims, blocks=None):
    space = GradedVectorSpace(dims)
    mats = {
        i: RationalMatrix.from_rows(m) for i, m in (blocks or {}).items()
    }
    return CochainComplex(space, GradedMap(space, space, 1, mats))


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
    def products(self, monkeypatch):
        """Counts graded compositions: the d^2 check is the only one here."""
        calls = []
        compose = GradedMap.__matmul__

        def counted(f, g):
            calls.append((f, g))
            return compose(f, g)

        monkeypatch.setattr(GradedMap, "__matmul__", counted)
        return calls

    def test_checked_complex_squares_once(self, products):
        c = complex_from({0: 1, 1: 2, 2: 1}, {0: [[1], [0]], 1: [[0, 1]]})
        first = c.cohomology()
        assert c.cohomology() == first
        assert c.euler_from_cohomology() == c.euler_from_dims()
        assert len(products) == 1

    def test_cached_cohomology_cannot_be_mutated(self):
        c = surface_complex(1)
        c.cohomology().dims[0] = 99
        assert c.cohomology().dims == {-2: 1, -1: 2, 0: 1}


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
            assert surface_complex(g).euler_from_dims() == 2 - 2 * g

    def test_zero_complex(self):
        assert complex_from({}).euler_from_dims() == 0

    def test_sphere(self):
        assert complex_from({-2: 1, 0: 1}).euler_from_dims() == 2

    def test_zero_differential_trivially_agrees(self):
        c = complex_from({0: 2, 1: 3, 3: 1})
        assert c.euler_from_dims() == c.euler_from_cohomology()

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
            assert c.euler_from_dims() == by_dims


class TestShift:
    def test_zero_shift_is_identity(self):
        c = complex_from({0: 1, 1: 2}, {0: [[1], [0]]})
        assert c.shift(0) == c

    def test_euler_sign(self):
        rng = random.Random(23)
        for k in range(20):
            dims = {i: rng.randint(0, 2) for i in range(-2, 3)}
            c = random_complex(dims, seed=100 + k)
            for s in range(-3, 4):
                sign = -1 if s % 2 else 1
                assert c.shift(s).euler_from_dims() == sign * c.euler_from_dims()

    def test_double_shift_restores_sign(self):
        c = complex_from({0: 1, 1: 1}, {0: [[2]]})
        assert c.shift(1).shift(1) == c.shift(2)
        assert c.shift(2).differential.block(-2) == c.differential.block(0)

    def test_shift_translates_cohomology(self):
        rng = random.Random(29)
        for k in range(15):
            dims = {i: rng.randint(0, 2) for i in range(-2, 3)}
            c = random_complex(dims, seed=200 + k)
            h = c.cohomology()
            for s in (-2, -1, 1, 3):
                hs = c.shift(s).cohomology()
                assert all(hs.dim(i) == h.dim(i + s) for i in range(-6, 7))

    def test_shift_preserves_validity(self):
        c = complex_from({0: 2, 1: 2}, {0: [[1, 1], [1, 1]]})
        assert c.shift(-1).validate() and c.shift(3).validate()


class TestDirectSum:
    def test_zero_neutral(self):
        c = complex_from({0: 1, 1: 1}, {0: [[3]]})
        z = complex_from({})
        assert c.direct_sum(z) == c

    def test_euler_additive(self):
        rng = random.Random(31)
        for k in range(20):
            a = random_complex({i: rng.randint(0, 2) for i in range(-2, 2)}, seed=k)
            b = random_complex({i: rng.randint(0, 2) for i in range(0, 3)}, seed=k + 500)
            assert a.direct_sum(b).euler_from_dims() == a.euler_from_dims() + b.euler_from_dims()

    def test_cohomology_additive(self):
        """Oracle: block-diagonal rank additivity means the sum's cohomology
        is the degreewise sum; check against independently computed sides."""
        rng = random.Random(37)
        for k in range(20):
            a = random_complex({i: rng.randint(0, 2) for i in range(-2, 2)}, seed=k)
            b = random_complex({i: rng.randint(0, 2) for i in range(-1, 3)}, seed=k + 900)
            ha, hb = a.cohomology(), b.cohomology()
            hs = a.direct_sum(b).cohomology()
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


def test_cohomology_result_helpers():
    """Cohomology comes back as a GradedVectorSpace; a zero entry is dropped from every view."""
    h = GradedVectorSpace({0: 1, 2: 1, 5: 0})
    assert h.dims == {0: 1, 2: 1}
    assert h.total_dim() == 2
    assert h.euler() == 2
    assert h.degrees() == (0, 2)
    assert isinstance(surface_complex(1).cohomology(), GradedVectorSpace)

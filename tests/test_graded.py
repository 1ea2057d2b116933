import random

import pytest

from exacthom.errors import ShapeError
from exacthom.graded import (
    GradedMap,
    GradedVectorSpace,
    hom_basis,
    hom_block_layout,
    hom_coordinates,
    hom_space,
)
from exacthom.rational import RationalMatrix


def space(**kw):
    return GradedVectorSpace({int(k): v for k, v in kw.items()})


def _random_space(rng):
    return GradedVectorSpace(
        {d: rng.randint(0, 2) for d in range(rng.randint(-3, 0), rng.randint(1, 4))}
    )


class TestSpace:
    def test_zero_dims_dropped(self):
        assert GradedVectorSpace({0: 1, 5: 0}).dims == {0: 1}

    def test_negative_dim_rejected(self):
        with pytest.raises(ShapeError):
            GradedVectorSpace({0: -1})

    # Each would be accepted if the bad key or value were converted with int().
    @pytest.mark.parametrize(
        "dims",
        [{0: 1.5}, {"2": 1}, {0: True}, {True: 1}, {1.0: 1}, {0: "1"}],
        ids=["float dim", "str degree", "bool dim", "bool degree", "float degree", "str dim"],
    )
    def test_non_int_degrees_and_dims_rejected(self, dims):
        with pytest.raises(ShapeError):
            GradedVectorSpace(dims)

    def test_total_dim_and_euler(self):
        v = GradedVectorSpace({0: 1, 1: 2, 2: 1})
        assert v.total_dim() == 4
        assert v.euler() == 0


class TestShift:
    def test_line_down_two(self):
        # one generator in degree 0, shifted by -2, lands in degree 2
        assert GradedVectorSpace({0: 1}).shift(-2).dims == {2: 1}

    def test_identity_shift(self):
        v = GradedVectorSpace({-1: 2, 3: 1})
        assert v.shift(0) == v

    def test_plane_down_one(self):
        assert GradedVectorSpace({1: 2}).shift(1).dims == {0: 2}

    def test_shifts_compose_additively(self):
        rng = random.Random(3)
        for _ in range(20):
            v = _random_space(rng)
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            assert v.shift(a).shift(b) == v.shift(a + b)


class TestDirectSum:
    def test_zero_neutral(self):
        v = GradedVectorSpace({0: 1, 2: 3})
        assert v.direct_sum(GradedVectorSpace({})) == v

    def test_same_degree_adds(self):
        v = GradedVectorSpace({0: 1})
        assert v.direct_sum(v).dims == {0: 2}

    def test_disjoint_degrees(self):
        out = GradedVectorSpace({0: 1}).direct_sum(GradedVectorSpace({2: 1}))
        assert out.dims == {0: 1, 2: 1}


class TestHomSpace:
    def test_lines(self):
        v = GradedVectorSpace({0: 1})
        assert hom_space(v, v).dims == {0: 1}

    def test_two_degree_gap(self):
        for n, k in [(0, 1), (-2, 3), (1, 2)]:
            v = GradedVectorSpace({n: 1, n + k: 1})
            h = hom_space(v, v)
            assert h.dim(-k) > 0 and h.dim(k) > 0

    def test_enumeration_oracle(self):
        """Count basis pairs directly: a map basis element per (source
        basis vector, target basis vector) pair, in degree j - i."""
        v = GradedVectorSpace({0: 1, 1: 1})
        expected = {}
        for i, di in v.dims.items():
            for j, dj in v.dims.items():
                d = j - i
                expected[d] = expected.get(d, 0) + di * dj
        expected = {k: n for k, n in expected.items() if n}
        assert hom_space(v, v).dims == expected == {-1: 1, 0: 2, 1: 1}

    def test_total_dim_product(self):
        rng = random.Random(5)
        for _ in range(20):
            v, w = _random_space(rng), _random_space(rng)
            assert hom_space(v, w).total_dim() == v.total_dim() * w.total_dim()

    def test_shift_source_relation(self):
        rng = random.Random(6)
        for _ in range(20):
            v, w = _random_space(rng), _random_space(rng)
            s = rng.randint(-3, 3)
            assert hom_space(v.shift(s), w) == hom_space(v, w).shift(-s)


def _map(v, w, degree, blocks):
    return GradedMap(v, w, degree, {i: RationalMatrix.from_rows(m) for i, m in blocks.items()})


class TestGradedMap:
    def test_block_shape_enforced(self):
        v = GradedVectorSpace({0: 2, 1: 1})
        with pytest.raises(ShapeError):
            GradedMap(v, v, 0, {0: RationalMatrix.identity(1)})

    # Each used to be converted with int(): the str key's block was dropped
    # silently (a zero map) and every other value was taken as degree 0.
    @pytest.mark.parametrize(
        "degree, key",
        [(0, "0"), (0, False), (0, 0.0), (False, 0), ("0", 0), (0.0, 0)],
        ids=["str key", "bool key", "float key", "bool degree", "str degree", "float degree"],
    )
    def test_non_int_degree_and_keys_rejected(self, degree, key):
        s = GradedVectorSpace({0: 1})
        with pytest.raises(ShapeError):
            GradedMap(s, s, degree, {key: RationalMatrix.identity(1)})

    def test_identity_compose(self):
        v = GradedVectorSpace({0: 2, 1: 1})
        f = _map(v, v, 0, {0: [[1, 2], [3, 4]], 1: [[5]]})
        one = GradedMap(v, v, 0, {i: RationalMatrix.identity(v.dim(i)) for i in v.degrees()})
        assert one @ f == f
        assert f @ one == f

    def test_zero_absorbs(self):
        v = GradedVectorSpace({0: 1, 1: 1})
        f = _map(v, v, -1, {1: [[2]]})
        assert (f @ GradedMap.zero(v, v, 0)).is_zero()

    def test_degrees_add(self):
        v = GradedVectorSpace({0: 1, 1: 1, 2: 1})
        f = _map(v, v, -1, {1: [[1]], 2: [[1]]})
        assert (f @ f).degree == -2
        assert (f @ f).block(2)[0, 0] == 1

    def test_compose_associative(self):
        rng = random.Random(13)
        v = GradedVectorSpace({0: 2, 1: 2})

        def rand_map(d):
            blocks = {}
            for i in v.degrees():
                r, c = v.dim(i + d), v.dim(i)
                if r:
                    blocks[i] = RationalMatrix(r, c, [rng.randint(-2, 2) for _ in range(r * c)])
            return GradedMap(v, v, d, blocks)

        for _ in range(15):
            f, g, h = rand_map(0), rand_map(-1), rand_map(1)
            assert (f @ g) @ h == f @ (g @ h)

    def test_compose_matches_blockwise_reference(self):
        """Composition that skips empty products equals block(i + d) @ block(i) everywhere.

        The spaces leave gaps between their degrees, so many products have
        a zero-dimensional middle, source or target.
        """
        rng = random.Random(17)

        def gappy_space():
            return GradedVectorSpace(
                {d: rng.choice((0, 0, 1, 2, 3)) for d in range(-3, 4)}
            )

        def rand_map(src, tgt, d):
            blocks = {}
            for i in src.degrees():
                r, c = tgt.dim(i + d), src.dim(i)
                if r:
                    blocks[i] = RationalMatrix(
                        r, c, [rng.choice((0, 0, 1, -2, "1/3")) for _ in range(r * c)]
                    )
            return GradedMap(src, tgt, d, blocks)

        for _ in range(60):
            u, v, w = gappy_space(), gappy_space(), gappy_space()
            f = rand_map(u, v, rng.randint(-2, 2))
            g = rand_map(v, w, rng.randint(-2, 2))
            gf = g @ f
            assert (gf.source, gf.target, gf.degree) == (u, w, f.degree + g.degree)
            for i in range(-6, 7):
                assert gf.block(i) == g.block(i + f.degree) @ f.block(i)

    def test_scale_and_add(self):
        v = GradedVectorSpace({0: 2})
        f = _map(v, v, 0, {0: [[1, 2], [3, 4]]})
        g = _map(v, v, 0, {0: [[0, 1], [1, 0]]})
        assert f.scale(1) + g.scale(0) == f
        assert (f.scale(1) + f.scale(-1)).is_zero()

    def test_commutator_of_commuting_maps(self):
        v = GradedVectorSpace({0: 2})
        a = _map(v, v, 0, {0: [[1, 0], [0, 2]]})
        b = _map(v, v, 0, {0: [[3, 0], [0, 1]]})
        assert (a @ b - b @ a).is_zero()

    def test_zero_map_stores_no_block(self):
        big = GradedVectorSpace({0: 2000, 1: 2000})
        assert GradedMap.zero(big, big, 1).blocks() == {}
        v = GradedVectorSpace({0: 2, 1: 1})
        assert GradedMap.zero(v, v, 1).block(0) == RationalMatrix.zero(1, 2)

    def test_stored_blocks_is_a_read_only_view(self):
        v = GradedVectorSpace({0: 1, 1: 1, 2: 1})
        m = GradedMap(v, v, 0, {2: RationalMatrix.identity(1), 1: RationalMatrix.zero(1, 1)})
        view = m.blocks()
        assert view == {2: RationalMatrix.identity(1)}
        with pytest.raises(TypeError):
            view[0] = RationalMatrix.identity(1)
        assert m.block(0) == RationalMatrix.zero(1, 1)

    def test_one_canonical_form(self):
        """An explicit zero block and the order of the keys leave no trace."""
        v = GradedVectorSpace({0: 2, 1: 1})
        a, b = RationalMatrix.identity(2), RationalMatrix.from_rows([[3]])
        plain = GradedMap(v, v, 0, {0: a, 1: b})
        variants = [
            GradedMap(v, v, 0, {1: b, 0: a}),
            GradedMap(v, v, 0, {0: a, 1: b, 5: RationalMatrix.zero(0, 0)}),
            GradedMap(v, v, 0, {0: a, 1: b.scale(0)}) + GradedMap(v, v, 0, {1: b}),
        ]
        for f in variants:
            assert f == plain
            assert hash(f) == hash(plain)
            assert repr(f) == repr(plain) == "GradedMap(degree=0, blocks={0: 2x2, 1: 1x1})"
        zero_block = GradedMap(v, v, 0, {0: a, 1: RationalMatrix.zero(1, 1)})
        no_block = GradedMap(v, v, 0, {0: a})
        assert zero_block == no_block
        assert hash(zero_block) == hash(no_block)
        assert repr(zero_block) == repr(no_block) == "GradedMap(degree=0, blocks={0: 2x2})"

    def test_mismatched_add_rejected(self):
        v = GradedVectorSpace({0: 1})
        f = GradedMap.zero(v, v, 0)
        g = GradedMap.zero(v, v, 1)
        with pytest.raises(ShapeError):
            f + g


class TestHomBasis:
    def test_layout_matches_dimensions(self):
        v = GradedVectorSpace({0: 2, 1: 1})
        w = GradedVectorSpace({0: 1, 2: 2})
        h = hom_space(v, w)
        for d in h.degrees():
            layout = hom_block_layout(v, w, d)
            assert len(layout) == h.dim(d)

    def test_coordinates_roundtrip(self):
        v = GradedVectorSpace({0: 1, 1: 2})
        basis = hom_basis(v, v, 0)
        for idx, e in enumerate(basis):
            coords = hom_coordinates(e)
            assert coords[idx] == 1
            assert sum(1 for x in coords if x) == 1

import random
import tracemalloc
from fractions import Fraction

import pytest
from reference import (
    add, block_diag, fraction_rank, graded_map, map_add, map_scale, matrix, scale, space_shift, space_sum,
)

from exacthom.errors import (
    FormatError,
    RepresentationError,
    UnsupportedDifferentialError,
)
from exacthom.classify import SampleConfig, sample_representation_at
from exacthom.graded import GradedMap, GradedVectorSpace, hom_basis, hom_coordinates, hom_space
from exacthom.quiver import (
    Generator,
    QuiverPresentation,
    Representation,
    builtin_quiver,
    euler_of_hom,
    floer_cohomology,
    hom_complex,
    sphere_quiver,
    torus_quiver,
    torus_trivial_representation,
    zero_section_representation,
)
from exacthom.rational import RationalMatrix


def sphere_rep(dims, blocks):
    space = GradedVectorSpace(dims)
    return Representation(sphere_quiver(), space, {"z": graded_map(space, space, -1, blocks)})


def elementary_block(v, w, p):
    """Reference degree-p block of the hom_complex differential.

    Each basis map t of degree p (hom_basis order) goes to
    x t - (-1)^{p|x|} t x in the summand of every generator x, read back
    with hom_coordinates; the unshifted summand's rows stay zero, and so
    do the columns of the shifted summands.
    """
    u = hom_space(v.space, w.space)
    gens = v.quiver.generators
    rows = u.dim(p + 1) + sum(u.dim(p + g.degree) for g in gens)
    cols = u.dim(p) + sum(u.dim(p + g.degree - 1) for g in gens)
    grid = [[Fraction(0)] * cols for _ in range(rows)]
    for col, t in enumerate(hom_basis(v.space, w.space, p)):
        off = u.dim(p + 1)
        for g in gens:
            sign = -1 if (p * g.degree) % 2 else 1
            image = map_add(w.maps[g.name] @ t, map_scale(t @ v.maps[g.name], -sign))
            for k, val in enumerate(hom_coordinates(image)):
                grid[off + k][col] = val
            off += u.dim(p + g.degree)
    return grid


def random_sphere_rep(rng, pool=(0, 1, -2, "1/2", "-3/4"), degrees=range(-1, 3), most=2):
    """Sphere representation with up to `most` basis vectors per degree and z drawn from pool."""
    space = GradedVectorSpace({d: rng.randint(0, most) for d in degrees})
    blocks = {}
    for i in space.degrees():
        r, c = space.dim(i - 1), space.dim(i)
        if r:
            blocks[i] = RationalMatrix(r, c, [rng.choice(pool) for _ in range(r * c)])
    return Representation(sphere_quiver(), space, {"z": GradedMap(space, space, -1, blocks)})


def torus_rep(dims, alpha, beta, gamma=None):
    space = GradedVectorSpace(dims)
    maps = {"m": graded_map(space, space, 0, alpha), "n": graded_map(space, space, 0, beta)}
    if gamma:
        maps["h"] = graded_map(space, space, -1, gamma)
    return Representation(torus_quiver(), space, maps)


class TestPresentations:
    def test_sphere_generator(self):
        q = sphere_quiver()
        assert [g.name for g in q.generators] == ["z"]
        assert q.generator("z").degree == -1
        assert not q.generator("z").invertible
        assert dict(q.relations)["z"] == ()
        assert q.all_differentials_vanish()

    def test_torus_generators(self):
        q = torus_quiver()
        assert [(g.name, g.degree, g.invertible) for g in q.generators] == [
            ("m", 0, True),
            ("n", 0, True),
            ("h", -1, False),
        ]
        assert dict(q.relations)["h"] == ((1, ("m", "n")), (-1, ("n", "m")))
        assert not q.all_differentials_vanish()

    def test_builtin_lookup(self):
        assert builtin_quiver("sphere") == sphere_quiver()
        with pytest.raises(FormatError):
            builtin_quiver("cylinder")

    def test_duplicate_names_rejected(self):
        with pytest.raises(FormatError):
            QuiverPresentation((Generator("x", 0), Generator("x", 1)))

    def test_relation_degree_checked(self):
        # dx must have degree |x| + 1; the word (x, x) has degree 0 != 1
        with pytest.raises(FormatError):
            QuiverPresentation(
                (Generator("x", 0),), (("x", ((1, ("x", "x")),)),)
            )

    # Each case would be a valid presentation if the one bad field were
    # converted with str(), int() or bool().
    @pytest.mark.parametrize(
        "generators, relations",
        [
            (((1, 0, False),), ()),
            ((("x", True, False),), ()),
            ((("x", "0", False),), ()),
            ((("x", 0, 1),), ()),
            ((("1", -1, False), ("a", 0, False)), ((1, ((1, ("a",)),)),)),
            ((("x", -1, False), ("a", 0, False)), (("x", (("1", ("a",)),)),)),
            ((("x", -1, False), ("a", 0, False)), (("x", ((True, ("a",)),)),)),
            ((("x", -1, False), ("0", 0, False)), (("x", ((1, (0,)),)),)),
            ((("x", -1, False), ("5", 0, False)), (("x", ((0, (5,)),)),)),
        ],
        ids=["name", "bool degree", "str degree", "invertible", "relation generator",
             "str coefficient", "bool coefficient", "word letter", "zero-coefficient word letter"],
    )
    def test_fields_are_not_coerced(self, generators, relations):
        with pytest.raises(FormatError):
            QuiverPresentation(generators, relations)

    def test_long_words_rejected(self):
        with pytest.raises(FormatError):
            QuiverPresentation(
                (Generator("x", -1),), (("x", ((1, ("x", "x", "x")),)),)
            )


def constructed_violation(quiver, space, maps):
    """The constraint the Representation constructor names, or None when it builds."""
    prefix = "invalid representation: constraint "
    try:
        Representation(quiver, space, maps)
    except RepresentationError as exc:
        assert str(exc).startswith(prefix), exc
        return str(exc)[len(prefix):]
    return None


class TestValidation:
    def test_zero_map_sphere_rep(self):
        assert sphere_rep({0: 1}, {}).first_violation() is None

    def test_scalar_torus_rep(self):
        rep = torus_trivial_representation()
        assert rep.first_violation() is None

    def test_noncommuting_pair_fails_relation(self):
        with pytest.raises(RepresentationError, match="^invalid representation: constraint relation:h$"):
            torus_rep({0: 2}, {0: [[1, 1], [0, 1]]}, {0: [[1, 0], [1, 1]]})

    def test_commutator_oracle(self):
        # direct computation: ab - ba = [[1,0],[0,-1]] for these two
        a = matrix([[1, 1], [0, 1]])
        b = matrix([[1, 0], [1, 1]])
        comm = add(a @ b, scale(b @ a, -1))
        assert comm.to_lists() == [[1, 0], [0, -1]]

    def test_singular_invertible_generator_fails(self):
        with pytest.raises(RepresentationError, match="^invalid representation: constraint invertibility:m$"):
            torus_rep({0: 2}, {0: [[1, 2], [2, 4]]}, {0: [[1, 0], [0, 1]]})

    def test_wrong_degree_fails(self):
        space = GradedVectorSpace({0: 1})
        wrong = GradedMap.zero(space, space, 0)
        with pytest.raises(RepresentationError, match="^invalid representation: constraint degree:z$"):
            Representation(sphere_quiver(), space, {"z": wrong})

    def test_unknown_generator_rejected(self):
        space = GradedVectorSpace({0: 1})
        with pytest.raises(RepresentationError):
            Representation(
                sphere_quiver(), space, {"w": GradedMap.zero(space, space, 0)}
            )

    def test_relation_check_holds_one_row(self):
        """dg = xy through a 1-dimensional degree: xy is n x n, all ones.

        As a list it would take 8 n^2 bytes (8 MB here); the check stops at
        its first row.
        """
        n = 1000
        quiver = QuiverPresentation(
            (Generator("x", 1), Generator("y", 1), Generator("g", 1)),
            (("g", ((1, ("x", "y")),)),),
        )
        space = GradedVectorSpace({0: n, 1: 1, 2: n})
        maps = {
            "y": GradedMap(space, space, 1, {0: RationalMatrix.from_numerators(1, n, [1] * n, 1)}),
            "x": GradedMap(space, space, 1, {1: RationalMatrix.from_numerators(n, 1, [1] * n, 1)}),
        }
        tracemalloc.start()
        try:
            with pytest.raises(RepresentationError, match="^invalid representation: constraint relation:g$"):
                Representation(quiver, space, maps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_missing_maps_default_to_zero(self):
        rep = Representation(sphere_quiver(), GradedVectorSpace({0: 1}), {})
        assert rep.maps["z"].is_zero()
        assert rep.maps["z"].degree == -1


def reference_first_violation(quiver, space, maps):
    """first_violation through whole graded maps, as an independent oracle.

    Generators missing from maps act by zero.  Each word is composed as
    GradedMaps, the terms are scaled and added, and the sum is tested with
    is_zero; invertibility is a rank from fraction_rank.
    """
    maps = {g.name: maps[g.name] if g.name in maps else GradedMap.zero(space, space, g.degree)
            for g in quiver.generators}
    for g in quiver.generators:
        if maps[g.name].degree != g.degree:
            return f"degree:{g.name}"
    for name, terms in quiver.relations:
        acc = None
        for coeff, word in terms:
            m = maps[word[0]]
            for x in word[1:]:
                m = m @ maps[x]
            m = map_scale(m, coeff)
            acc = m if acc is None else map_add(acc, m)
        if acc is not None and not acc.is_zero():
            return f"relation:{name}"
    for g in quiver.generators:
        if g.invertible:
            for i in space.degrees():
                if fraction_rank(maps[g.name].block(i).to_lists()) != space.dim(i):
                    return f"invertibility:{g.name}"
    return None


# Degrees -1, 0 and 1, a length-1 word in each relation, and one invertible
# generator: dc = b - ac + ca and db = a + ua - au.
MIXED_QUIVER = QuiverPresentation(
    (Generator("a", 1), Generator("b", 0), Generator("c", -1), Generator("u", 0, True)),
    (
        ("c", ((1, ("b",)), (-1, ("a", "c")), (1, ("c", "a")))),
        ("b", ((1, ("a",)), (1, ("u", "a")), (-1, ("a", "u")))),
    ),
)


def random_mixed_data(rng):
    """Space and maps for a MIXED_QUIVER representation, not necessarily valid;
    each of a, b, c is zero half the time."""
    space = GradedVectorSpace({d: rng.randint(0, 2) for d in (-1, 0, 1)})
    pool = (0, 1, -1, "1/2")
    maps = {}
    for g in MIXED_QUIVER.generators:
        if g.name != "u" and rng.random() < 0.5:
            continue
        blocks = {}
        for i in space.degrees():
            r, c = space.dim(i + g.degree), space.dim(i)
            if r:
                blocks[i] = RationalMatrix(r, c, [rng.choice(pool) for _ in range(r * c)])
        maps[g.name] = GradedMap(space, space, g.degree, blocks)
    return space, maps


class TestFirstViolationOracle:
    """The constraint the constructor names against reference_first_violation."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_sampled_torus_reps(self, seed):
        cfg = SampleConfig(seed=seed, count=60)
        for index in range(60):
            rep = sample_representation_at(torus_quiver(), cfg, index)
            assert rep.first_violation() == reference_first_violation(rep.quiver, rep.space, rep.maps) is None

    def test_broken_torus_reps(self):
        rng = random.Random(5)
        cfg = SampleConfig(seed=3, count=60)
        seen = set()
        for index in range(60):
            rep = sample_representation_at(torus_quiver(), cfg, index)
            space = rep.space
            i = rng.choice(space.degrees())
            d = space.dim(i)
            kind = index % 3
            if kind == 0:  # n replaced in one degree: usually no longer commuting
                entries = [rng.choice((0, 1, 2, "1/3")) for _ in range(d * d)]
                name, blk = "n", RationalMatrix(d, d, entries)
            elif kind == 1:  # m made singular in one degree
                name, blk = "m", RationalMatrix.zero(d, d)
            else:  # h given the degree of m
                maps = dict(rep.maps, h=rep.maps["m"])
                got = constructed_violation(torus_quiver(), space, maps)
                assert got == reference_first_violation(torus_quiver(), space, maps) == "degree:h"
                continue
            blocks = dict(rep.maps[name].blocks())
            blocks[i] = blk
            maps = dict(rep.maps)
            maps[name] = GradedMap(space, space, 0, blocks)
            got = constructed_violation(torus_quiver(), space, maps)
            assert got == reference_first_violation(torus_quiver(), space, maps)
            seen.add(got)
        assert {"relation:h", "invertibility:m"} <= seen

    def test_mixed_degree_presentation(self):
        rng = random.Random(17)
        seen = set()
        for _ in range(300):
            space, maps = random_mixed_data(rng)
            got = constructed_violation(MIXED_QUIVER, space, maps)
            assert got == reference_first_violation(MIXED_QUIVER, space, maps)
            seen.add(got)
        assert {None, "relation:c", "relation:b", "invertibility:u"} <= seen

    @pytest.mark.parametrize("u0, expected", [("3/2", None), ("1/2", "relation:b"), ("3", "relation:b")])
    def test_terms_over_different_denominators(self, u0, expected):
        """db = a + ua - au with a = 1, u = u0 at degree 0 and 1/2 at degree 1:
        the term a is over 1, ua and au over 2, and the sum 3/2 - u0 vanishes
        only for u0 = 3/2."""
        space = GradedVectorSpace({0: 1, 1: 1})
        maps = {
            "a": GradedMap(space, space, 1, {0: RationalMatrix.identity(1)}),
            "u": GradedMap(space, space, 0, {0: RationalMatrix(1, 1, [u0]), 1: RationalMatrix(1, 1, ["1/2"])}),
        }
        got = constructed_violation(MIXED_QUIVER, space, maps)
        assert got == reference_first_violation(MIXED_QUIVER, space, maps) == expected


class TestHomComplex:
    def test_zero_section_summands(self):
        zs = zero_section_representation()
        result = hom_complex(zs, zs)
        assert result.complex.space.dims == {0: 1, 2: 1}
        assert result.differential_defined
        assert result.complex.differential.is_zero()

    def test_torus_summands(self):
        tt = torus_trivial_representation()
        result = hom_complex(tt, tt)
        assert result.complex.space.dims == {0: 1, 1: 2, 2: 1}
        assert not result.differential_defined
        assert result.complex.differential.is_zero()

    def test_graded_dims_are_shifted_hom_copies(self):
        rep = sphere_rep({0: 2, 2: 1}, {})
        u = hom_space(rep.space, rep.space)
        total = space_sum(u, space_shift(u, -2))
        assert hom_complex(rep, rep).complex.space == total

    def test_quiver_mismatch(self):
        with pytest.raises(RepresentationError):
            hom_complex(zero_section_representation(), torus_trivial_representation())

    def test_invalid_input_rejected(self):
        # A representation hom_complex could be handed is refused when built.
        with pytest.raises(RepresentationError, match="constraint relation:h$"):
            torus_rep({0: 2}, {0: [[1, 1], [0, 1]]}, {0: [[1, 0], [1, 1]]})

    def test_each_distinct_representation_validated_once(self, monkeypatch):
        checked = []
        first_violation = Representation.first_violation

        def counted(r):
            checked.append(r)
            return first_violation(r)

        monkeypatch.setattr(Representation, "first_violation", counted)
        v = sphere_rep({0: 1, 1: 1}, {1: [[1]]})
        w = sphere_rep({0: 1}, {})
        assert [id(r) for r in checked] == [id(v), id(w)]
        hom_complex(v, v)
        hom_complex(v, w)
        euler_of_hom(w, v)
        floer_cohomology(v, w)
        assert [id(r) for r in checked] == [id(v), id(w)]

    def test_invalid_second_representation_rejected(self):
        good = torus_rep({0: 2}, {0: [[1, 0], [0, 1]]}, {0: [[1, 0], [0, 1]]})
        assert good.first_violation() is None
        with pytest.raises(RepresentationError, match="constraint relation:h$"):
            torus_rep({0: 2}, {0: [[1, 1], [0, 1]]}, {0: [[1, 0], [1, 1]]})

    def test_differential_against_hand_assembly(self):
        """Oracle: assemble every block of the differential by hand for the
        two-degree representation with f the identity V^1 -> V^0.

        For a basis endomorphism t0 of degree p the image is
        s = f t0 - (-1)^p t0 f placed in the shifted summand.  Degree by
        degree this gives the matrices below (columns: unshifted basis
        then shifted basis; rows likewise one degree up).
        """
        rep = sphere_rep({0: 1, 1: 1}, {1: [[1]]})
        result = hom_complex(rep, rep)
        assert result.complex.space.dims == {-1: 1, 0: 2, 1: 2, 2: 2, 3: 1}

        expected = {
            -1: [[0], [0]],
            0: [[0, 0], [-1, 1]],
            1: [[1, 0], [1, 0]],
            2: [[0, 0]],
        }
        for p, rows in expected.items():
            assert result.complex.differential.block(p).to_lists() == [
                [Fraction(x) for x in row] for row in rows
            ], f"block at degree {p}"

        # cohomology recomputed from the hand blocks with an independent rank
        dims = result.complex.space.dims
        ranks = {p: fraction_rank(rows) for p, rows in expected.items()}
        hand = {
            n: dims.get(n, 0) - ranks.get(n, 0) - ranks.get(n - 1, 0)
            for n in dims
        }
        hand = {n: d for n, d in hand.items() if d}
        assert floer_cohomology(rep, rep).dims == hand == {-1: 1, 0: 1, 2: 1, 3: 1}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_differential_matches_elementary_assembly_on_sphere_samples(self, seed):
        for max_dim in (2, 5, 8):
            cfg = SampleConfig(seed=seed, count=4, max_total_dim=max_dim)
            reps = [sample_representation_at(sphere_quiver(), cfg, k) for k in range(4)]
            for v, w in [(reps[0], reps[0]), (reps[1], reps[2]), (reps[3], reps[1])]:
                cx = hom_complex(v, w).complex
                for p in cx.space.degrees():
                    assert cx.differential.block(p).to_lists() == elementary_block(v, w, p)

    def test_differential_matches_elementary_assembly_on_mixed_degrees(self):
        """Generators of degree 0, 1 and -2, or 0, -3 and 1, with no relations.

        Only the unshifted summand maps out, so d^2 = 0 whatever the
        entries: this comparison is what pins the sign (-1)^{p|x|} and the
        offset of each generator's summand.  Besides random spaces on
        degrees -2..2, it takes spaces with gaps and disjoint degree sets,
        so that hom^d has source degrees with no target.
        """
        quivers = [
            QuiverPresentation((Generator("a", 0), Generator("b", 1), Generator("c", -2))),
            QuiverPresentation((Generator("a", 0), Generator("d", -3), Generator("b", 1))),
        ]
        rng = random.Random(7)

        def random_rep(quiver, dims=None):
            if dims is None:
                dims = {d: rng.randint(0, 2) for d in range(-2, 3)}
            space = GradedVectorSpace(dims)
            maps = {}
            for g in quiver.generators:
                blocks = {}
                for i in space.degrees():
                    r, c = space.dim(i + g.degree), space.dim(i)
                    if r:
                        blocks[i] = RationalMatrix(
                            r, c, [rng.choice((0, 1, -2, "1/2", "-3/4")) for _ in range(r * c)]
                        )
                maps[g.name] = GradedMap(space, space, g.degree, blocks)
            return Representation(quiver, space, maps)

        def check(a, b):
            cx = hom_complex(a, b).complex
            for p in cx.space.degrees():
                assert cx.differential.block(p).to_lists() == elementary_block(a, b, p)

        for _ in range(6):
            v, w = random_rep(quivers[0]), random_rep(quivers[0])
            for a, b in [(v, v), (v, w)]:
                check(a, b)
        spaces = [
            ({-3: 1, 2: 2}, {0: 2, 1: 1}),  # disjoint
            ({-3: 2, 0: 1, 2: 1}, {-1: 1, 2: 2}),  # gaps, one shared degree
            ({-2: 1, 1: 2}, {-2: 1, 1: 2}),  # gap of 3, the degree of d
            ({0: 1, 3: 1}, {-3: 1, 0: 2}),
        ]
        for quiver in quivers:
            for dims_v, dims_w in spaces:
                v, w = random_rep(quiver, dims_v), random_rep(quiver, dims_w)
                for a, b in [(v, w), (w, v), (v, v), (w, w)]:
                    check(a, b)

    def test_differential_squares_to_zero_on_samples(self):
        for blocks in [{}, {1: [[1]]}, {1: [[-1]]}]:
            rep = sphere_rep({0: 1, 1: 1}, blocks)
            assert hom_complex(rep, rep).complex.validate()


class TestFloer:
    def test_zero_section_golden(self):
        zs = zero_section_representation()
        hf = floer_cohomology(zs, zs)
        assert (hf.dim(0), hf.dim(1), hf.dim(2)) == (1, 0, 1)

    def test_concentrated_squares(self):
        for m, s in [(1, 0), (2, 0), (3, -2), (2, 3)]:
            rep = sphere_rep({s: m}, {})
            assert floer_cohomology(rep, rep).dims == {0: m * m, 2: m * m}

    def test_direct_sum_additivity(self):
        """Metamorphic: HF(v+v', w) = HF(v, w) + HF(v', w) in every degree."""
        rng = random.Random(23)

        def direct_sum(a, b):
            space = space_sum(a.space, b.space)
            za, zb = a.maps["z"], b.maps["z"]
            z = GradedMap(
                space, space, -1, {i: block_diag(za.block(i), zb.block(i)) for i in space.degrees()}
            )
            return Representation(sphere_quiver(), space, {"z": z})

        for _ in range(12):
            v, v2, w = (random_sphere_rep(rng) for _ in range(3))
            total = floer_cohomology(direct_sum(v, v2), w)
            hv, hv2 = floer_cohomology(v, w), floer_cohomology(v2, w)
            for n in set(total.dims) | set(hv.dims) | set(hv2.dims):
                assert total.dim(n) == hv.dim(n) + hv2.dim(n)

    def test_cross_pair_duality(self):
        """2-Calabi-Yau duality across pairs: HF^d(V, W) = HF^{2-d}(W, V) in every degree.

        Sampled pairs have integer entries; the drawn pairs also have entries
        with denominators.  Neither side of the identity is read off the
        other, so a wrong entry in the assembled differential shows here.
        """
        pairs = []
        for seed in (1, 2):
            cfg = SampleConfig(seed=seed, count=50, max_total_dim=6)
            reps = [sample_representation_at(sphere_quiver(), cfg, k) for k in range(50)]
            pairs += zip(reps[::2], reps[1::2])
        rng = random.Random(31)
        pool = (0, 0, 1, -1, 2, "1/2", "-3/4", "5/3", "-7/6")
        for _ in range(50):
            pairs.append(tuple(random_sphere_rep(rng, pool, range(-2, 3), 3) for _ in range(2)))
        for v, w in pairs:
            vw, wv = floer_cohomology(v, w), floer_cohomology(w, v)
            for d in set(vw.dims) | {2 - e for e in wv.dims}:
                assert vw.dim(d) == wv.dim(2 - d), (v, w, d)

    def test_torus_unsupported(self):
        tt = torus_trivial_representation()
        with pytest.raises(UnsupportedDifferentialError):
            floer_cohomology(tt, tt)


class TestEulerOfHom:
    def test_torus_vanishes(self):
        tt = torus_trivial_representation()
        assert euler_of_hom(tt, tt) == 0

    def test_torus_diagonal_pair(self):
        rep = torus_rep({0: 2}, {0: [[1, 0], [0, 2]]}, {0: [[3, 0], [0, 1]]})
        assert euler_of_hom(rep, rep) == 0

    def test_sphere_point(self):
        zs = zero_section_representation()
        assert euler_of_hom(zs, zs) == 2

    def test_zero_rep(self):
        'A representation on the zero space pairs to zero with anything.'
        zero = Representation(sphere_quiver(), GradedVectorSpace({}), {})
        assert euler_of_hom(zero, zero_section_representation()) == 0

    @pytest.mark.parametrize("quiver", [sphere_quiver(), torus_quiver()])
    def test_matches_the_morphism_complex(self, quiver):
        cfg = SampleConfig(seed=8, count=30, max_total_dim=4)
        reps = [sample_representation_at(quiver, cfg, i) for i in range(30)]
        for v, w in zip(reps, reps[1:] + reps[:1]):
            for a, b in ((v, v), (v, w)):
                assert euler_of_hom(a, b) == hom_complex(a, b).complex.space.euler()

    def test_sphere_doubling_identity(self):
        # the two summands differ by an even shift, so chi doubles
        for dims, blocks in [({0: 1, 1: 1}, {1: [[1]]}), ({-1: 2}, {}), ({0: 1, 2: 1}, {})]:
            rep = sphere_rep(dims, blocks)
            u = hom_space(rep.space, rep.space)
            assert euler_of_hom(rep, rep) == 2 * u.euler()

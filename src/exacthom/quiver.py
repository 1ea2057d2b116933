"""One-object dg categories presented by quivers, and their representations.

A presentation lists loop generators with degrees, an invertibility flag,
and the differential of each generator as a formal integer combination of
words of length at most 2 (all the built-in categories need).  A
representation assigns a graded vector space with zero differential and
one graded map per generator, and its constructor refuses one that breaks
the degree, relation, or invertibility constraints.  A relation is checked
one source degree at a time by rational.combination_vanishes, which forms
the sum of its words' products one row at a time and holds at most one row;
its terms are read once per presentation.

The morphism complex of two representations is one unshifted copy of the
graded hom space plus one copy shifted by |x|-1 per generator x.  Its
differential sends (t0, t1, ..., tn) to (0, s1, ..., sn) with
s_i = g_i t0 - (-1)^{|t0||x_i|} t0 f_i, and is only available when every
generator's differential vanishes formally; the first component of the
image being zero forces d^2 = 0.  Each entry of the differential goes to a
position computed from the two spaces' dimensions, in the basis order of
graded.hom_block_layout, with no basis or layout built.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from ._record import Record
from .complexes import CochainComplex, require_differential_fits
from .errors import (
    FormatError,
    RepresentationError,
    UnsupportedDifferentialError,
    require_type,
)
from .graded import GradedMap, GradedVectorSpace
# Not used here; bench/spans.py patches these names until ROADMAP item 0 drops them.
from .graded import hom_basis, hom_coordinates  # noqa: F401
from .rational import RationalMatrix, combination_vanishes

Word = Tuple[str, ...]
Term = Tuple[int, Word]


class Generator(Record):
    __slots__ = ("name", "degree", "invertible")
    name: str
    degree: int
    invertible: bool

    def __init__(self, name: str, degree: int, invertible: bool = False):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "invertible", invertible)


class QuiverPresentation(Record):
    """Loop generators and their formal differentials.

    relations is a tuple of (generator name, terms); terms is a tuple of
    (integer coefficient, word) with words of length 1 or 2.  Generators
    without a listed relation have differential 0.
    """

    __slots__ = ("generators", "relations")
    generators: Tuple[Generator, ...]
    relations: Tuple[Tuple[str, Tuple[Term, ...]], ...]

    def __init__(
        self,
        generators: Tuple[Generator, ...],
        relations: Tuple[Tuple[str, Tuple[Term, ...]], ...] = (),
    ):
        gens = tuple(g if isinstance(g, Generator) else Generator(*g) for g in generators)
        for g in gens:
            require_type(g.name, str, "generator name")
            require_type(g.degree, int, f"degree of generator {g.name!r}")
            require_type(g.invertible, bool, f"invertible flag of generator {g.name!r}")
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise FormatError("generator names must be unique")
        degree_of = {g.name: g.degree for g in gens}
        rels = []
        seen = set()
        for name, terms in relations:
            require_type(name, str, "relation generator")
            if name not in degree_of:
                raise FormatError(f"relation for unknown generator {name!r}")
            if name in seen:
                raise FormatError(f"duplicate relation for generator {name!r}")
            seen.add(name)
            clean: list = []
            for coeff, word in terms:
                require_type(coeff, int, f"relation coefficient for {name!r}")
                word = tuple(require_type(x, str, "word letter") for x in word)
                if coeff == 0:
                    continue
                if not 1 <= len(word) <= 2:
                    raise FormatError("relation words must have length 1 or 2")
                for x in word:
                    if x not in degree_of:
                        raise FormatError(f"relation word uses unknown generator {x!r}")
                if sum(degree_of[x] for x in word) != degree_of[name] + 1:
                    raise FormatError(
                        f"relation term for {name!r} must have degree {degree_of[name] + 1}"
                    )
                clean.append((coeff, word))
            rels.append((name, tuple(clean)))
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relations", tuple(rels))

    def generator(self, name: str) -> Generator:
        for g in self.generators:
            if g.name == name:
                return g
        raise FormatError(f"unknown generator {name!r}")

    def all_differentials_vanish(self) -> bool:
        """True iff dx = 0 formally for every generator."""
        return all(not terms for _, terms in self.relations)


@lru_cache(maxsize=None)
def sphere_quiver() -> QuiverPresentation:
    """One generator z of degree -1 with dz = 0."""
    return QuiverPresentation((Generator("z", -1, False),), (("z", ()),))


@lru_cache(maxsize=None)
def torus_quiver() -> QuiverPresentation:
    """Invertible m, n of degree 0 and h of degree -1 with dh = mn - nm."""
    return QuiverPresentation(
        (Generator("m", 0, True), Generator("n", 0, True), Generator("h", -1, False)),
        (("m", ()), ("n", ()), ("h", ((1, ("m", "n")), (-1, ("n", "m"))))),
    )


def builtin_quiver(name: str) -> QuiverPresentation:
    if name == "sphere":
        return sphere_quiver()
    if name == "torus":
        return torus_quiver()
    raise FormatError(f"unknown builtin quiver {name!r}")


class Representation(Record):
    """Graded vector space plus one graded endomorphism per generator.

    Generators missing from maps get the zero map of their degree.  The
    constructor checks the shape, then raises RepresentationError naming the
    constraint first_violation reports, so consumers take a Representation
    as valid.  The maps dict makes a representation unhashable.
    """

    __slots__ = ("quiver", "space", "maps")
    quiver: QuiverPresentation
    space: GradedVectorSpace
    maps: Dict[str, GradedMap]

    def __init__(
        self,
        quiver: QuiverPresentation,
        space: GradedVectorSpace,
        maps: Mapping[str, GradedMap] = MappingProxyType({}),
    ):
        known = {g.name for g in quiver.generators}
        out: Dict[str, GradedMap] = {}
        for name, m in maps.items():
            if name not in known:
                raise RepresentationError(f"map for unknown generator {name!r}")
            if (m.source is not space and m.source != space) or (
                m.target is not space and m.target != space
            ):
                raise RepresentationError(
                    f"map for {name!r} must be an endomorphism of the representation space"
                )
            out[name] = m
        for g in quiver.generators:
            if g.name not in out:
                out[g.name] = GradedMap.zero(space, space, g.degree)
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "maps", out)
        bad = self.first_violation()
        if bad is not None:
            raise RepresentationError(f"invalid representation: constraint {bad}")

    def first_violation(self) -> Optional[str]:
        """Name of the first failed constraint, or None if valid.

        Checks every generator's degree, then each relation in order, then
        the invertibility of every block of every invertible generator.  A
        relation holds at source degree i iff combination_vanishes finds
        the sum of its words' composites out of degree i zero.
        """
        generators, maps = self.quiver.generators, self.maps
        for g in generators:
            if maps[g.name].degree != g.degree:
                return f"degree:{g.name}"
        blocks = {name: m._blocks for name, m in maps.items()}
        degrees = self.space._dims
        for name, terms in _relation_terms(self.quiver.relations):
            for i in degrees:
                # A letter without a block there makes its term zero.
                combination = []
                for coeff, outer, inner in terms:
                    first = blocks[inner].get(i)
                    if first is None:
                        continue
                    if outer is None:
                        combination.append((coeff, first, None))
                    elif (second := blocks[outer].get(i + maps[inner].degree)) is not None:
                        combination.append((coeff, second, first))
                if combination and not combination_vanishes(combination):
                    return f"relation:{name}"
        for g in generators:
            if not g.invertible:
                continue
            stored = blocks[g.name]
            for i in degrees:
                b = stored.get(i)
                if b is None or not b.is_invertible():
                    return f"invertibility:{g.name}"
        return None


@lru_cache(maxsize=None)
def _relation_terms(relations: Tuple[Tuple[str, Tuple[Term, ...]], ...]) -> tuple:
    """The relations with terms, each term as (coeff, outer, inner): the word
    x y applies inner y, then outer x (None for a one-letter word)."""
    return tuple(
        (name, tuple((c, word[0] if len(word) == 2 else None, word[-1]) for c, word in terms))
        for name, terms in relations
        if terms
    )


def _require_same_quiver(v: Representation, w: Representation) -> None:
    if v.quiver != w.quiver:
        raise RepresentationError("representations live over different quivers")


class HomComplexResult(Record):
    """Morphism complex between two representations.

    The summands are the unshifted hom space, then one copy shifted by
    |x|-1 per generator x, in the quiver's order.  When
    differential_defined is false the complex carries a zero differential
    placeholder and only its graded dimensions are meaningful.
    """

    __slots__ = ("complex", "differential_defined")
    complex: CochainComplex
    differential_defined: bool

    def __init__(self, complex: CochainComplex, differential_defined: bool):
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "differential_defined", differential_defined)


def hom_complex(v: Representation, w: Representation) -> HomComplexResult:
    """Morphism complex hom(v, w) with its differential when available.

    The graded dimensions are always computed.  The differential exists
    iff every generator has formally vanishing differential (true for the
    sphere presentation, false for the torus one); a differential over the
    entry budget of require_differential_fits is refused before it is built.

    Entry (i, r, c) of the blocks V^i -> W^{i+d} is basis vector
    starts[d][i] + r * dim V^i + c of hom^d, the hom_block_layout order.
    """
    _require_same_quiver(v, w)
    quiver = v.quiver
    v_dims, w_dims = v.space._dims, w.space._dims
    u: Dict[int, int] = {}  # dim hom^d
    starts: Dict[int, Dict[int, int]] = {}
    for i, n in v_dims.items():
        for j, m in w_dims.items():
            at = u.get(j - i, 0)
            starts.setdefault(j - i, {})[i] = at
            u[j - i] = at + n * m
    dims = dict(u)
    for g in quiver.generators:
        for d, n in u.items():
            dims[d + 1 - g.degree] = dims.get(d + 1 - g.degree, 0) + n
    total = GradedVectorSpace(dims)
    if not quiver.all_differentials_vanish():
        return HomComplexResult(CochainComplex.zero_differential(total), False)
    require_differential_fits(total)

    # For x of degree e, x E_rc puts column r of rho_W(x) at W^{i+p} into
    # column c, and E_rc x puts row c of rho_V(x) at V^{i-e} into row r, of
    # a block out of V^i, resp. V^{i-e}, in hom^{p+e}.  Blocks are read as
    # numerators over one denominator den.
    maps = [(g.degree, w.maps[g.name]._blocks, v.maps[g.name]._blocks) for g in quiver.generators]
    den = lcm(*(b.denominator for _, wb, vb in maps for b in (*wb.values(), *vb.values())))
    gens = [
        (e, {i: b.over(den) for i, b in wb.items()}, {i: b.over(den) for i, b in vb.items()})
        for e, wb, vb in maps
    ]
    blocks: Dict[int, RationalMatrix] = {}
    # Only the unshifted summand, hom^p, has nonzero columns.
    for p, columns in starts.items():
        rows_dim = dims.get(p + 1, 0)
        if not rows_dim:
            continue
        cols_dim = dims[p]
        out = [0] * (rows_dim * cols_dim)
        off = u.get(p + 1, 0)
        for e, w_blocks, v_blocks in gens:
            into = starts.get(p + e)
            sign = -1 if (p * e) % 2 else 1
            for i, col0 in columns.items():
                # Column (i, r, c) is col0 + r * n + c; stepping c moves one
                # row and one column of the block alike.
                n, m = v_dims[i], w_dims[i + p]
                if (g := w_blocks.get(i + p)) is not None:
                    for a in range(w_dims[i + p + e]):
                        row = off + into[i] + a * n
                        for r in range(m):
                            if x := g[a * m + r]:
                                at = row * cols_dim + col0 + r * n
                                for c in range(n):
                                    out[at + c * (cols_dim + 1)] += x
                if (f := v_blocks.get(i - e)) is not None:
                    k = v_dims[i - e]
                    for c in range(n):
                        for b in range(k):
                            if x := sign * f[c * k + b]:
                                at = (off + into[i - e] + b) * cols_dim + col0 + c
                                for r in range(m):
                                    out[at + r * (k * cols_dim + n)] -= x
            off += u.get(p + e, 0)
        blocks[p] = RationalMatrix._canonical(rows_dim, cols_dim, tuple(out), den)
    diff = GradedMap(total, total, 1, blocks)
    return HomComplexResult(CochainComplex(total, diff), True)


def floer_cohomology(v: Representation, w: Representation) -> GradedVectorSpace:
    """Cohomology of the morphism complex; needs the differential."""
    result = hom_complex(v, w)
    if not result.differential_defined:
        raise UnsupportedDifferentialError(
            "morphism-complex differential is not defined for this quiver presentation"
        )
    return result.complex.cohomology()


def euler_of_hom(v: Representation, w: Representation) -> int:
    """Euler characteristic of the morphism complex, from dimensions alone.

    The hom space has chi(V) * chi(W), as (-1)^(j-i) = (-1)^(i+j), and the
    summand of a generator x, shifted by |x| - 1, contributes (-1)^(|x|-1)
    times that.
    """
    _require_same_quiver(v, w)
    signs = 1 + sum(1 if g.degree % 2 else -1 for g in v.quiver.generators)
    return v.space.euler() * w.space.euler() * signs


def zero_section_representation() -> Representation:
    """Sphere-quiver representation on one generator in degree 0; z acts by 0."""
    space = GradedVectorSpace({0: 1})
    return Representation(sphere_quiver(), space, {})


def torus_trivial_representation() -> Representation:
    """Torus-quiver representation on one generator in degree 0; m = n = 1, h = 0."""
    space = GradedVectorSpace({0: 1})
    one = GradedMap(space, space, 0, {0: RationalMatrix.identity(1)})
    return Representation(torus_quiver(), space, {"m": one, "n": one})

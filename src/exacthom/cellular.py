"""Cell complexes with supplied incidence data, homology, surface classification.

Cells carry a dimension; incidence coefficients between an (i)-cell and an
(i-1)-cell are input data (signed counts determined by whoever built the
decomposition, not computed here).  Internally the boundary data becomes a
cochain complex by placing i-cells in degree -i; results are reported back
in geometric (lower) indices, so callers never see the sign flip.  The
boundary blocks are written as int numerators straight from the stored dicts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ._record import Record
from .complexes import CochainComplex, require_differential_fits
from .errors import (
    CellComplexError,
    ClassificationError,
    FormatError,
    InvalidComplexError,
    integer_literal,
    require_type,
)
from .graded import GradedMap, GradedVectorSpace
from .rational import RationalMatrix


class SurfaceVerdict(Record):
    """Outcome of classifying a closed orientable surface by its invariants."""

    __slots__ = ("genus", "euler", "connected", "orientable_assumed")
    genus: int
    euler: int
    connected: bool
    orientable_assumed: bool

    def __init__(self, genus: int, euler: int, connected: bool, orientable_assumed: bool):
        if euler != 2 - 2 * genus:
            raise ClassificationError(f"inconsistent verdict: euler {euler} vs genus {genus}")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "euler", euler)
        object.__setattr__(self, "connected", connected)
        object.__setattr__(self, "orientable_assumed", orientable_assumed)


class CellComplex:
    """Finite cell decomposition: cells plus integer incidence coefficients.

    Pairs not listed have coefficient 0.  Construction checks structural
    sanity only; whether the induced boundary squares to zero is checked
    when the chain complex is built.  Cell ids and incidence ends must be
    strs, dimensions and coefficients ints (a bool is not one): anything
    else raises FormatError rather than being converted.  Cells are (id, dim)
    pairs and incidences (from, to, coeff) triples; only the id -> dim and
    (from, to) -> coeff dicts the checks build are kept, in input order.
    """

    __slots__ = ("_dim_of", "_coeff_of")

    def __init__(self, cells: Iterable, incidence: Iterable = ()):
        dim_of: Dict[str, int] = {}
        dups = set()
        for c in cells:
            cid, dim = c[0], c[1]
            # Exact types pass at the cost of two type() calls; otherwise
            # require_type accepts subclasses or names the bad field.
            if type(cid) is not str or type(dim) is not int:
                require_type(cid, str, "cell id")
                require_type(dim, int, f"dimension of cell {cid!r}")
            if dim < 0:
                raise CellComplexError(f"cell {cid!r} has negative dimension")
            if cid in dim_of:
                dups.add(cid)
            dim_of[cid] = dim
        if dups:
            raise CellComplexError(f"duplicate cell ids: {sorted(dups)}")
        coeff_of: Dict[Tuple[str, str], int] = {}
        for e in incidence:
            frm, to, coeff = e[0], e[1], e[2]
            if type(frm) is not str or type(to) is not str or type(coeff) is not int:
                require_type(frm, str, "incidence 'from'")
                require_type(to, str, "incidence 'to'")
                require_type(coeff, int, f"coefficient of incidence {frm!r}->{to!r}")
            top, bottom = dim_of.get(frm), dim_of.get(to)
            if top is None or bottom is None:
                ref = frm if top is None else to
                raise CellComplexError(f"incidence references unknown cell {ref!r}")
            if top != bottom + 1:
                raise CellComplexError(
                    f"incidence {frm!r}->{to!r} must drop dimension by exactly 1"
                )
            pair = (frm, to)
            if pair in coeff_of:
                raise CellComplexError(f"duplicate incidence pair {frm!r}->{to!r}")
            coeff_of[pair] = coeff
        self._dim_of = dim_of
        self._coeff_of = coeff_of

    def max_dim(self) -> int:
        return max(self._dim_of.values(), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellComplex):
            return NotImplemented
        # Ordered comparisons: dict_items == alone would ignore input order.
        return (
            list(self._dim_of.items()) == list(other._dim_of.items())
            and list(self._coeff_of.items()) == list(other._coeff_of.items())
        )

    def __repr__(self) -> str:
        counts: Dict[int, int] = {}
        for d in self._dim_of.values():
            counts[d] = counts.get(d, 0) + 1
        return f"CellComplex(cells per dim {dict(sorted(counts.items()))})"


def chain_complex_of(cc: CellComplex) -> CochainComplex:
    """Boundary data as a cochain complex, i-cells in degree -i.

    The block out of degree -i is the boundary from i-cells to (i-1)-cells;
    entry (b, a) is the coefficient of the pair a -> b.  Raises FormatError
    before any block is built if the boundary would exceed the entry budget
    of require_differential_fits, and after if its d^2 check would exceed
    MAX_SQUARE_CHECK_MADDS; CellComplexError if it does not square to zero.
    """
    ids: Dict[int, List[str]] = {}  # dimension -> cell ids, only where there are cells
    for i, d in cc._dim_of.items():
        ids.setdefault(d, []).append(i)
    space = GradedVectorSpace({-d: len(of_d) for d, of_d in ids.items()})
    require_differential_fits(space)
    coeff = cc._coeff_of
    blocks: Dict[int, RationalMatrix] = {}
    for d, sources in ids.items():
        targets = ids.get(d - 1)
        if targets is None:
            continue
        entries = [coeff.get((a, b), 0) for b in targets for a in sources]
        blocks[-d] = RationalMatrix.from_numerators(len(targets), len(sources), entries, 1)
    diff = GradedMap(space, space, 1, blocks)
    try:
        return CochainComplex(space, diff)
    except InvalidComplexError:
        raise CellComplexError("inconsistent incidence data: boundary of boundary is nonzero")


def homology_of(cc: CellComplex) -> GradedVectorSpace:
    """Homology in geometric (lower) indices i >= 0."""
    return _homology(chain_complex_of(cc))


def _homology(chains: CochainComplex) -> GradedVectorSpace:
    """Homology of a complex built by chain_complex_of, in lower indices."""
    return GradedVectorSpace({-n: v for n, v in chains.cohomology().dims.items()})


def circle() -> CellComplex:
    """One 0-cell and one 1-cell, incidence coefficient 0."""
    return CellComplex([("v", 0), ("e", 1)])


def genus_surface(g: int) -> CellComplex:
    """Closed orientable genus-g surface: 1, 2g, 1 cells, all coefficients 0.

    Each 1-cell is traversed once in each direction by the 2-cell's
    attaching word and hits the unique 0-cell with cancelling signs, so
    every incidence count is 1 - 1 = 0.  A genus whose boundary would
    exceed the entry budget of require_differential_fits is refused before
    any cell is built.
    """
    if g < 0:
        raise FormatError("genus must be nonnegative")
    require_differential_fits(GradedVectorSpace({0: 1, -1: 2 * g, -2: 1}))
    cells = [("v", 0)]
    cells += [(f"a{k}", 1) for k in range(1, 2 * g + 1)]
    cells.append(("f", 2))
    return CellComplex(cells)


def builtin(name: str) -> CellComplex:
    """Named decomposition: circle, sphere, torus, or genus_g:<g>."""
    if name == "circle":
        return circle()
    if name == "sphere":
        return genus_surface(0)
    if name == "torus":
        return genus_surface(1)
    if name.startswith("genus_g:"):
        genus = name[len("genus_g:"):]
        return genus_surface(integer_literal(genus, f"genus in builtin name {name!r}"))
    raise FormatError(f"unknown builtin cell complex {name!r}")


def genus_from_euler(chi: int) -> int:
    """Genus of the closed orientable surface with Euler characteristic chi."""
    if chi % 2 != 0:
        raise ClassificationError(
            f"Euler characteristic {chi} is odd: not a closed orientable surface"
        )
    g = (2 - chi) // 2
    if g < 0:
        raise ClassificationError(
            f"Euler characteristic {chi} exceeds 2: not a closed orientable surface"
        )
    return g


def classify_surface(cc: CellComplex) -> SurfaceVerdict:
    """Identify a closed connected orientable surface by genus = (2 - chi)/2.

    Requires dim H_0 = 1 (connected) and homology vanishing above
    dimension 2; orientability is an assumption on the input, not checked.
    """
    complex_ = chain_complex_of(cc)
    h = _homology(complex_)
    if h.dim(0) != 1:
        raise ClassificationError(
            f"not classifiable: dim H_0 = {h.dim(0)}, expected 1 (connected)"
        )
    above = [n for n in h.degrees() if n > 2]
    if above:
        raise ClassificationError(
            f"not a surface: homology nonzero in dimension {above[0]}"
        )
    chi = complex_.space.euler()
    g = genus_from_euler(chi)
    return SurfaceVerdict(genus=g, euler=chi, connected=True, orientable_assumed=True)

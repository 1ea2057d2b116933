"""Cell complexes with supplied incidence data, homology, surface classification.

Cells carry a dimension; incidence coefficients between an (i)-cell and an
(i-1)-cell are input data (signed counts determined by whoever built the
decomposition, not computed here).  Internally the boundary data becomes a
cochain complex by placing i-cells in degree -i; results are reported back
in geometric (lower) indices, so callers never see the sign flip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .complexes import CochainComplex, CohomologyResult
from .errors import (
    CellComplexError,
    ClassificationError,
    FormatError,
    InvalidComplexError,
    require_type,
)
from .graded import GradedMap, GradedVectorSpace
from .rational import RationalMatrix


@dataclass(frozen=True)
class Cell:
    id: str
    dim: int


@dataclass(frozen=True)
class Incidence:
    frm: str
    to: str
    coeff: int


@dataclass(frozen=True)
class SurfaceVerdict:
    """Outcome of classifying a closed orientable surface by its invariants."""

    genus: int
    euler: int
    connected: bool
    orientable_assumed: bool

    def __post_init__(self):
        if self.euler != 2 - 2 * self.genus:
            raise ClassificationError(
                f"inconsistent verdict: euler {self.euler} vs genus {self.genus}"
            )


class CellComplex:
    """Finite cell decomposition: cells plus integer incidence coefficients.

    Pairs not listed have coefficient 0.  Construction checks structural
    sanity only; whether the induced boundary squares to zero is checked
    when the chain complex is built.  Cell ids and incidence ends must be
    strs, dimensions and coefficients ints (a bool is not one): anything
    else raises FormatError rather than being converted.
    """

    __slots__ = ("cells", "incidence")

    def __init__(self, cells: Iterable, incidence: Iterable = ()):
        cell_list: List[Cell] = []
        for c in cells:
            if not isinstance(c, Cell):
                c = Cell(c[0], c[1])
            # Exact types pass at the cost of two type() calls; otherwise
            # require_type accepts subclasses or names the bad field.
            if type(c.id) is not str or type(c.dim) is not int:
                require_type(c.id, str, "cell id")
                require_type(c.dim, int, f"dimension of cell {c.id!r}")
            if c.dim < 0:
                raise CellComplexError(f"cell {c.id!r} has negative dimension")
            cell_list.append(c)
        ids = [c.id for c in cell_list]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise CellComplexError(f"duplicate cell ids: {dup}")
        by_id = {c.id: c for c in cell_list}
        inc_list: List[Incidence] = []
        seen = set()
        for e in incidence:
            if not isinstance(e, Incidence):
                e = Incidence(e[0], e[1], e[2])
            if type(e.frm) is not str or type(e.to) is not str or type(e.coeff) is not int:
                require_type(e.frm, str, "incidence 'from'")
                require_type(e.to, str, "incidence 'to'")
                require_type(e.coeff, int, f"coefficient of incidence {e.frm!r}->{e.to!r}")
            for ref in (e.frm, e.to):
                if ref not in by_id:
                    raise CellComplexError(f"incidence references unknown cell {ref!r}")
            if by_id[e.frm].dim != by_id[e.to].dim + 1:
                raise CellComplexError(
                    f"incidence {e.frm!r}->{e.to!r} must drop dimension by exactly 1"
                )
            if (e.frm, e.to) in seen:
                raise CellComplexError(f"duplicate incidence pair {e.frm!r}->{e.to!r}")
            seen.add((e.frm, e.to))
            inc_list.append(e)
        self.cells = tuple(cell_list)
        self.incidence = tuple(inc_list)

    def cells_of_dim(self, d: int) -> Tuple[Cell, ...]:
        return tuple(c for c in self.cells if c.dim == d)

    def max_dim(self) -> int:
        return max((c.dim for c in self.cells), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellComplex):
            return NotImplemented
        return self.cells == other.cells and self.incidence == other.incidence

    def __repr__(self) -> str:
        counts: Dict[int, int] = {}
        for c in self.cells:
            counts[c.dim] = counts.get(c.dim, 0) + 1
        return f"CellComplex(cells per dim {dict(sorted(counts.items()))})"


def chain_complex_of(cc: CellComplex) -> CochainComplex:
    """Boundary data as a cochain complex, i-cells in degree -i.

    The block out of degree -i is the boundary from i-cells to (i-1)-cells;
    entry (b, a) is the coefficient of the pair a -> b.  Raises if the
    assembled boundary does not square to zero.
    """
    coeff = {(e.frm, e.to): e.coeff for e in cc.incidence}
    space = GradedVectorSpace(
        {-d: len(cc.cells_of_dim(d)) for d in range(cc.max_dim() + 1)}
    )
    blocks: Dict[int, RationalMatrix] = {}
    for d in range(1, cc.max_dim() + 1):
        sources = cc.cells_of_dim(d)
        targets = cc.cells_of_dim(d - 1)
        if not sources or not targets:
            continue
        entries = [
            coeff.get((a.id, b.id), 0) for b in targets for a in sources
        ]
        blocks[-d] = RationalMatrix(len(targets), len(sources), entries)
    diff = GradedMap(space, space, 1, blocks)
    try:
        return CochainComplex(space, diff)
    except InvalidComplexError:
        raise CellComplexError("inconsistent incidence data: boundary of boundary is nonzero")


def homology_of(cc: CellComplex) -> CohomologyResult:
    """Homology in geometric (lower) indices i >= 0."""
    return _homology(chain_complex_of(cc))


def _homology(chains: CochainComplex) -> CohomologyResult:
    """Homology of a complex built by chain_complex_of, in lower indices."""
    return CohomologyResult({-n: v for n, v in chains.cohomology().dims.items()})


def circle() -> CellComplex:
    """One 0-cell and one 1-cell, incidence coefficient 0."""
    return CellComplex([Cell("v", 0), Cell("e", 1)])


def genus_surface(g: int) -> CellComplex:
    """Closed orientable genus-g surface: 1, 2g, 1 cells, all coefficients 0.

    Each 1-cell is traversed once in each direction by the 2-cell's
    attaching word and hits the unique 0-cell with cancelling signs, so
    every incidence count is 1 - 1 = 0.
    """
    if g < 0:
        raise FormatError("genus must be nonnegative")
    cells = [Cell("v", 0)]
    cells += [Cell(f"a{k}", 1) for k in range(1, 2 * g + 1)]
    cells.append(Cell("f", 2))
    return CellComplex(cells)


def sphere() -> CellComplex:
    return genus_surface(0)


def torus() -> CellComplex:
    return genus_surface(1)


def builtin(name: str) -> CellComplex:
    """Named decomposition: circle, sphere, torus, or genus_g:<g>."""
    if name == "circle":
        return circle()
    if name == "sphere":
        return sphere()
    if name == "torus":
        return torus()
    if name.startswith("genus_g:"):
        try:
            g = int(name.split(":", 1)[1])
        except ValueError:
            raise FormatError(f"bad genus in builtin name {name!r}")
        return genus_surface(g)
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
    above = [n for n in h.support() if n > 2]
    if above:
        raise ClassificationError(
            f"not a surface: homology nonzero in dimension {above[0]}"
        )
    chi = complex_.euler_from_dims()
    g = genus_from_euler(chi)
    return SurfaceVerdict(genus=g, euler=chi, connected=True, orientable_assumed=True)

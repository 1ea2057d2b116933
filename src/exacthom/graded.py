"""Integer-graded vector spaces and graded linear maps over the rationals.

A graded vector space is a finite family of finite-dimensional rational
vector spaces indexed by integers.  Only the dimensions are tracked; maps
carry explicit matrices for the degrees where they are nonzero, and a
missing degree is a zero block.  The grading is cohomological: a map of
degree d sends degree i to degree i+d.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Mapping, Tuple

from .errors import ShapeError
from .rational import RationalMatrix


class GradedVectorSpace:
    """Finite-dimensional integer-graded vector space, dimensions only.

    Degrees and dimensions must be plain ints; anything else, a bool
    included, is refused with ShapeError rather than converted.
    """

    __slots__ = ("_dims",)

    def __init__(self, dims: Mapping[int, int]):
        clean: Dict[int, int] = {}
        for k, v in dims.items():
            if type(k) is not int or type(v) is not int:  # refuses bool, float, str
                raise ShapeError(f"degree {k!r} and dimension {v!r} must both be ints")
            if v < 0:
                raise ShapeError(f"negative dimension {v} in degree {k}")
            if v > 0:
                clean[k] = v
        self._dims = dict(sorted(clean.items()))

    @property
    def dims(self) -> Dict[int, int]:
        """Degree to dimension, zero entries omitted, ascending degree."""
        return dict(self._dims)

    def dim(self, n: int) -> int:
        return self._dims.get(n, 0)

    def degrees(self) -> Tuple[int, ...]:
        return tuple(self._dims)

    def total_dim(self) -> int:
        return sum(self._dims.values())

    def is_zero(self) -> bool:
        return not self._dims

    def euler(self) -> int:
        """Alternating sum of dimensions."""
        return sum((-1 if n % 2 else 1) * d for n, d in self._dims.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedVectorSpace):
            return NotImplemented
        return self._dims == other._dims

    def __hash__(self) -> int:
        return hash(tuple(self._dims.items()))

    def __repr__(self) -> str:
        return f"GradedVectorSpace({self._dims})"


class GradedMap:
    """Degree-d linear map between graded vector spaces.

    Stored as one matrix per source degree i, of shape
    target.dim(i+d) x source.dim(i), for the degrees where that matrix is
    nonzero, in ascending degree.  Zero blocks are never stored, so
    equality is plain field comparison.  The degree and the block keys
    must be plain ints; anything else, a bool included, is refused with
    ShapeError rather than converted.
    """

    __slots__ = ("source", "target", "degree", "_blocks")

    def __init__(
        self,
        source: GradedVectorSpace,
        target: GradedVectorSpace,
        degree: int,
        blocks: Mapping[int, RationalMatrix],
    ):
        if type(degree) is not int:  # refuses bool, float, str
            raise ShapeError(f"map degree {degree!r} must be an int")
        self.source = source
        self.target = target
        self.degree = degree
        kept: Dict[int, RationalMatrix] = {}
        for i, blk in blocks.items():
            if type(i) is not int:
                raise ShapeError(f"block degree {i!r} must be an int")
            rows, cols = target.dim(i + degree), source.dim(i)
            if blk.rows != rows or blk.cols != cols:
                raise ShapeError(
                    f"block at degree {i} must be {rows}x{cols}, got {blk.rows}x{blk.cols}"
                )
            if not blk.is_zero():
                kept[i] = blk
        self._blocks = dict(sorted(kept.items()))

    @classmethod
    def zero(
        cls, source: GradedVectorSpace, target: GradedVectorSpace, degree: int
    ) -> "GradedMap":
        return cls(source, target, degree, {})

    def block(self, i: int) -> RationalMatrix:
        """Matrix in source degree i; a zero matrix, built here, if none is stored."""
        blk = self._blocks.get(i)
        if blk is not None:
            return blk
        return RationalMatrix.zero(self.target.dim(i + self.degree), self.source.dim(i))

    def blocks(self) -> Mapping[int, RationalMatrix]:
        """Read-only view of the stored (nonzero) blocks, in ascending degree."""
        return MappingProxyType(self._blocks)

    def is_zero(self) -> bool:
        return not self._blocks

    def __matmul__(self, other: "GradedMap") -> "GradedMap":
        """Composition self after other.

        Only degrees where both factors store a block are multiplied; every
        other block of the composite is zero, and is not stored.
        """
        if other.target != self.source:
            raise ShapeError("composition needs matching middle space")
        d = self.degree + other.degree
        out = {}
        for i, b in other._blocks.items():
            a = self._blocks.get(i + other.degree)
            if a is not None:
                out[i] = a @ b
        return GradedMap(other.source, self.target, d, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.degree == other.degree
            and self._blocks == other._blocks
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.degree, tuple(self._blocks.items())))

    def __repr__(self) -> str:
        return (
            f"GradedMap(degree={self.degree}, "
            f"blocks={{{', '.join(f'{i}: {b.rows}x{b.cols}' for i, b in self._blocks.items())}}})"
        )


def hom_space(v: GradedVectorSpace, w: GradedVectorSpace) -> GradedVectorSpace:
    """Graded space of linear maps v -> w.

    Degree-d component collects the blocks V^i -> W^{i+d}, so its
    dimension is the sum over i of dim V^i * dim W^{i+d}.
    """
    dims: Dict[int, int] = {}
    for i in v.degrees():
        for j in w.degrees():
            d = j - i
            dims[d] = dims.get(d, 0) + v.dim(i) * w.dim(j)
    return GradedVectorSpace(dims)


def hom_block_layout(
    v: GradedVectorSpace, w: GradedVectorSpace, d: int
) -> Tuple[Tuple[int, int, int], ...]:
    """Basis order for the degree-d component of hom_space(v, w).

    Triples (i, r, c): source degree ascending, then matrix entries
    row-major.  Everything that converts between maps and coordinate
    vectors must use this one ordering.
    """
    out = []
    for i in v.degrees():
        rows = w.dim(i + d)
        cols = v.dim(i)
        for r in range(rows):
            for c in range(cols):
                out.append((i, r, c))
    return tuple(out)


def hom_basis(
    v: GradedVectorSpace, w: GradedVectorSpace, d: int
) -> Tuple[GradedMap, ...]:
    """Elementary maps realizing hom_block_layout(v, w, d)."""
    maps = []
    for i, r, c in hom_block_layout(v, w, d):
        rows = w.dim(i + d)
        cols = v.dim(i)
        m = RationalMatrix(
            rows, cols, [1 if (a, b) == (r, c) else 0 for a in range(rows) for b in range(cols)]
        )
        maps.append(GradedMap(v, w, d, {i: m}))
    return tuple(maps)


def hom_coordinates(f: GradedMap) -> Tuple:
    """Coordinates of f in the hom_block_layout basis of its component."""
    return tuple(
        f.block(i)[r, c] for i, r, c in hom_block_layout(f.source, f.target, f.degree)
    )

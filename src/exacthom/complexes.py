"""Cochain complexes over the rationals.

A cochain complex is a graded vector space with a degree +1 differential
squaring to zero.  Its cohomology is a GradedVectorSpace of dimensions, and
its Euler characteristic is the space's euler().  The differential stores
only its nonzero blocks.  A command that assembles a differential from
dimensions it reads calls require_differential_fits first, so a short file
cannot ask for an unbounded dense allocation.
"""

from __future__ import annotations

from .errors import FormatError, InvalidComplexError
from .graded import GradedMap, GradedVectorSpace

# Dense entries a differential may hold, sum over p of dim C^p * dim C^(p+1).
# The largest test or benchmark input holds 128,524 (verify sphere --seed 1
# --count 50 --max-dim 24); floer on the sphere space {0: 20, 1: 20}, 1.92 M
# entries, peaks at 42 MiB.
MAX_DIFFERENTIAL_ENTRIES = 2_000_000


def require_differential_fits(space: GradedVectorSpace) -> None:
    """Raise FormatError if a differential on space needs over the budget."""
    dims = space.dims
    entries = sum(n * dims.get(p + 1, 0) for p, n in dims.items())
    if entries > MAX_DIFFERENTIAL_ENTRIES:
        raise FormatError(
            f"differential needs {entries} entries, "
            f"more than the {MAX_DIFFERENTIAL_ENTRIES} a complex may hold"
        )


class CochainComplex:
    """Graded space with a degree +1 differential.

    The differential is checked to square to zero once, on construction.
    """

    __slots__ = ("space", "differential")

    def __init__(self, space: GradedVectorSpace, differential: GradedMap):
        if differential.degree != 1:
            raise InvalidComplexError(
                f"differential must have degree +1, got {differential.degree}"
            )
        if differential.source != space or differential.target != space:
            raise InvalidComplexError("differential must be an endomorphism of the space")
        self.space = space
        self.differential = differential
        if not self.validate():
            raise InvalidComplexError("differential does not square to zero")

    @classmethod
    def zero_differential(cls, space: GradedVectorSpace) -> "CochainComplex":
        return cls(space, GradedMap.zero(space, space, 1))

    def validate(self) -> bool:
        """True iff every composite d(i+1) . d(i) is the zero matrix."""
        return (self.differential @ self.differential).is_zero()

    def cohomology(self) -> GradedVectorSpace:
        """dim H^n = dim C^n - rank d^n - rank d^{n-1}.

        Only stored blocks are ranked: a missing block is zero, of rank 0.
        """
        ranks = {i: b.rank() for i, b in self.differential.blocks().items()}
        dims = {
            n: self.space.dim(n) - ranks.get(n, 0) - ranks.get(n - 1, 0)
            for n in self.space.degrees()
        }
        return GradedVectorSpace(dims)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CochainComplex):
            return NotImplemented
        return self.space == other.space and self.differential == other.differential

    def __repr__(self) -> str:
        return f"CochainComplex(dims={self.space.dims})"

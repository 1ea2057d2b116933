"""Cochain complexes over the rationals.

A cochain complex is a graded vector space with a degree +1 differential
squaring to zero, checked on construction: the composites' multiply-adds
are counted and bounded first, and only a composite with some is formed,
by combination_vanishes one row at a time.  Its cohomology is a
GradedVectorSpace of dimensions, and its Euler characteristic is the
space's euler().  The differential stores only its nonzero blocks, and
require_differential_fits bounds their dense entries before one is built.
"""

from __future__ import annotations

from .errors import FormatError, InvalidComplexError
from .graded import GradedMap, GradedVectorSpace
from .rational import combination_madds, combination_vanishes

# Dense entries a differential may hold, sum over p of dim C^p * dim C^(p+1).
# The largest test or benchmark input holds 128,524 (verify sphere --seed 1
# --count 50 --max-dim 24); floer on the sphere space {0: 20, 1: 20}, 1.92 M
# entries, peaks at 42 MiB.
MAX_DIFFERENTIAL_ENTRIES = 2_000_000

# Multiply-adds (combination_madds) one d^2 or relation check may take; the
# cancelling complex on {0: 1000, 1: 2, 2: 1000} in tests takes exactly these.
MAX_SQUARE_CHECK_MADDS = 2_000_000


def require_differential_fits(space: GradedVectorSpace) -> None:
    """Raise FormatError if a differential on space needs over the budget."""
    dims = space._dims
    entries = sum(n * dims.get(p + 1, 0) for p, n in dims.items())
    if entries > MAX_DIFFERENTIAL_ENTRIES:
        raise FormatError(
            f"differential needs {entries} entries, "
            f"more than the {MAX_DIFFERENTIAL_ENTRIES} a complex may hold"
        )


def require_check_fits(madds: int, check: str, owner: str) -> None:
    """Raise FormatError if a check needs over MAX_SQUARE_CHECK_MADDS multiply-adds."""
    if madds > MAX_SQUARE_CHECK_MADDS:
        raise FormatError(
            f"{check} needs {madds} multiply-adds, "
            f"more than the {MAX_SQUARE_CHECK_MADDS} a {owner} file may ask for"
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
        if (differential.source is not space and differential.source != space) or (
            differential.target is not space and differential.target != space
        ):
            raise InvalidComplexError("differential must be an endomorphism of the space")
        self.space = space
        self.differential = differential
        if not self.validate():
            raise InvalidComplexError("differential does not square to zero")

    @classmethod
    def zero_differential(cls, space: GradedVectorSpace) -> "CochainComplex":
        return cls(space, GradedMap.zero(space, space, 1))

    def validate(self) -> bool:
        """True iff every composite d(i+1) . d(i) of stored blocks is zero; one
        with no multiply-add is not formed.  FormatError over the budget."""
        blocks = self.differential.blocks()
        pairs = [[(1, blocks[i + 1], b)] for i, b in blocks.items() if i + 1 in blocks]
        madds = [combination_madds(terms) for terms in pairs]
        require_check_fits(sum(madds), "checking that d^2 = 0", "complex")
        return all(combination_vanishes(terms) for terms, n in zip(pairs, madds) if n)

    def cohomology(self) -> GradedVectorSpace:
        """dim H^n = dim C^n - rank d^n - rank d^{n-1}.

        Only stored blocks are ranked: a missing block is zero, of rank 0.
        """
        ranks = {i: b.rank() for i, b in self.differential._blocks.items()}
        dims = {
            n: d - ranks.get(n, 0) - ranks.get(n - 1, 0) for n, d in self.space._dims.items()
        }
        return GradedVectorSpace(dims)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CochainComplex):
            return NotImplemented
        return self.space == other.space and self.differential == other.differential

    def __repr__(self) -> str:
        return f"CochainComplex(dims={self.space.dims})"

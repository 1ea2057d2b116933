"""Cochain complexes over the rationals.

A cochain complex is a graded vector space with a degree +1 differential
squaring to zero.  Cohomology (a GradedVectorSpace of dimensions), Euler
characteristic (computed two ways), shift, and direct sum are provided,
together with a seeded generator of random valid complexes for property
tests.  The differential stores only its nonzero blocks.
"""

from __future__ import annotations

import random
from typing import Dict, Mapping

from .errors import InvalidComplexError
from .graded import GradedMap, GradedVectorSpace
from .rational import RationalMatrix, block_diag

# Entries of the random complexes' coefficient matrices.
_ENTRY_POOL = (-2, -1, 0, 1, 2)


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

    def euler_from_dims(self) -> int:
        """Alternating sum of the chain dimensions."""
        return self.space.euler()

    def euler_from_cohomology(self) -> int:
        """Alternating sum of the cohomology dimensions; equals euler_from_dims."""
        return self.cohomology().euler()

    def shift(self, s: int) -> "CochainComplex":
        """Shifted complex: space moves by s, differential picks up (-1)^s."""
        sign = -1 if s % 2 else 1
        return CochainComplex(self.space.shift(s), self.differential.shift(s).scale(sign))

    def direct_sum(self, other: "CochainComplex") -> "CochainComplex":
        space = self.space.direct_sum(other.space)
        degrees = self.differential.blocks().keys() | other.differential.blocks().keys()
        blocks = {
            i: block_diag(self.differential.block(i), other.differential.block(i))
            for i in degrees
        }
        return CochainComplex(space, GradedMap(space, space, 1, blocks))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CochainComplex):
            return NotImplemented
        return self.space == other.space and self.differential == other.differential

    def __repr__(self) -> str:
        return f"CochainComplex(dims={self.space.dims})"


def random_complex(dims: Mapping[int, int], seed: int) -> CochainComplex:
    """Seeded random complex on the given dimensions, valid by construction.

    Blocks are sampled in ascending degree.  Each block B must kill the
    image of the previous block A, so B is drawn as C * K^T where the
    columns of K span the kernel of A^T: then B*A = C*(A^T K)^T = 0.
    """
    space = GradedVectorSpace(dims)
    rng = random.Random(seed)
    blocks: Dict[int, RationalMatrix] = {}
    if space.is_zero():
        return CochainComplex.zero_differential(space)
    lo, hi = min(space.degrees()), max(space.degrees())
    prev = RationalMatrix.zero(space.dim(lo), 0)
    for i in range(lo, hi + 1):
        rows = space.dim(i + 1)
        basis = prev.transpose().kernel_basis()
        coeff = RationalMatrix(
            rows, basis.cols, [rng.choice(_ENTRY_POOL) for _ in range(rows * basis.cols)]
        )
        blocks[i] = prev = coeff @ basis.transpose()
    return CochainComplex(space, GradedMap(space, space, 1, blocks))

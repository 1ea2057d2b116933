"""Algebra that only the tests need, as plain functions on the library's
public integer form (numerators over one denominator, from_numerators, over,
a map's blocks()).  Shifts are cohomological: V[s]^i = V^{i+s}, and a
complex's differential picks up the sign (-1)^s.
"""

import random
from fractions import Fraction
from math import lcm

from exacthom.classify import sample_representation_at
from exacthom.complexes import CochainComplex
from exacthom.errors import ShapeError
from exacthom.graded import GradedMap, GradedVectorSpace
from exacthom.rational import RationalMatrix, rat


def matrix(grid):
    """The matrix with these rows; ragged rows raise ShapeError."""
    cols = len(grid[0]) if grid else 0
    if any(len(row) != cols for row in grid):
        raise ShapeError("ragged rows")
    return RationalMatrix(len(grid), cols, [x for row in grid for x in row])


def scale(m, c):
    f = rat(c)
    nums = [f.numerator * x for x in m.numerators]
    return RationalMatrix.from_numerators(m.rows, m.cols, nums, f.denominator * m.denominator)


def add(a, b):
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeError(f"cannot add {a.rows}x{a.cols} and {b.rows}x{b.cols}")
    den = lcm(a.denominator, b.denominator)
    nums = [x + y for x, y in zip(a.over(den), b.over(den))]
    return RationalMatrix.from_numerators(a.rows, a.cols, nums, den)


def transpose(m):
    nums, n = m.numerators, m.cols
    flipped = [nums[i * n + j] for j in range(n) for i in range(m.rows)]
    return RationalMatrix.from_numerators(m.cols, m.rows, flipped, m.denominator)


def block_diag(a, b):
    """[[a, 0], [0, b]]; a block with a zero dimension adds only zeros."""
    den = lcm(a.denominator, b.denominator)
    na, nb = a.over(den), b.over(den)
    out = []
    for i in range(a.rows):
        out += [*na[i * a.cols : (i + 1) * a.cols], *[0] * b.cols]
    for i in range(b.rows):
        out += [*[0] * a.cols, *nb[i * b.cols : (i + 1) * b.cols]]
    return RationalMatrix.from_numerators(a.rows + b.rows, a.cols + b.cols, out, den)


def fraction_rank(rows):
    """Rank of a list of rows by Fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def graded_map(source, target, degree, grids):
    return GradedMap(source, target, degree, {i: matrix(g) for i, g in grids.items()})


def space_shift(v, s):
    return GradedVectorSpace({k - s: d for k, d in v.dims.items()})


def space_sum(v, w):
    return GradedVectorSpace({k: v.dim(k) + w.dim(k) for k in {*v.degrees(), *w.degrees()}})


def map_add(f, g):
    if (f.source, f.target, f.degree) != (g.source, g.target, g.degree):
        raise ShapeError("can only add maps with identical type and degree")
    blocks = {i: add(f.block(i), g.block(i)) for i in {*f.blocks(), *g.blocks()}}
    return GradedMap(f.source, f.target, f.degree, blocks)


def map_scale(f, c):
    return GradedMap(f.source, f.target, f.degree, {i: scale(b, c) for i, b in f.blocks().items()})


def shift(c, s):
    space = space_shift(c.space, s)
    sign = -1 if s % 2 else 1
    blocks = {i - s: scale(b, sign) for i, b in c.differential.blocks().items()}
    return CochainComplex(space, GradedMap(space, space, 1, blocks))


def direct_sum(a, b):
    space = space_sum(a.space, b.space)
    da, db = a.differential, b.differential
    blocks = {i: block_diag(da.block(i), db.block(i)) for i in {*da.blocks(), *db.blocks()}}
    return CochainComplex(space, GradedMap(space, space, 1, blocks))


def random_complex(dims, seed):
    """Seeded random complex on the given dimensions, valid by construction.

    Blocks are sampled in ascending degree.  Each block B must kill the
    image of the previous block A, so B is drawn as C * K^T where the
    columns of K span the kernel of A^T: then B*A = C*(A^T K)^T = 0.
    """
    space = GradedVectorSpace(dims)
    if space.is_zero():
        return CochainComplex.zero_differential(space)
    rng = random.Random(seed)
    lo, hi = min(space.degrees()), max(space.degrees())
    prev = RationalMatrix.zero(space.dim(lo), 0)
    blocks = {}
    for i in range(lo, hi + 1):
        rows = space.dim(i + 1)
        basis = transpose(prev).kernel_basis()
        entries = [rng.choice((-2, -1, 0, 1, 2)) for _ in range(rows * basis.cols)]
        blocks[i] = prev = RationalMatrix(rows, basis.cols, entries) @ transpose(basis)
    return CochainComplex(space, GradedMap(space, space, 1, blocks))


def sample_representations(quiver, cfg):
    return [sample_representation_at(quiver, cfg, i) for i in range(cfg.count)]

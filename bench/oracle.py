"""Independent answers that the benchmark checks the program's outputs against.

Nothing here imports exacthom.  Ranks and determinants come from sympy's
exact ``DomainMatrix`` over QQ; counts come from plain integer enumeration.
``check_torus_block`` returns a list of error strings, empty when the
sampled blocks are right.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from gen import identity, matmul

Matrix = List[List[Fraction]]


def _domain_matrix(rows: Sequence[Sequence[Fraction]], ncols: int):
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    data = [[QQ(Fraction(x).numerator, Fraction(x).denominator) for x in row] for row in rows]
    return DomainMatrix(data, (len(rows), ncols), QQ)


def rank(rows: Matrix, ncols: int) -> int:
    if not rows or not ncols:
        return 0
    return _domain_matrix(rows, ncols).rank()


def invertible(m: Sequence[Sequence[Fraction]]) -> bool:
    return _domain_matrix(m, len(m)).det() != 0


def _kron(a: Matrix, b: Matrix) -> Matrix:
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)]


def floer_dims(v, w) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Graded dimensions of the morphism complex C and its cohomology HF.

    v, w are {"space": {degree: dim}, "z": {source degree: matrix}} for
    sphere-quiver representations (z of degree -1).  U^p = hom(V, W)^p is
    the sum over i of Hom(V^i, W^(i+p)); C^p = U^p + U^(p-2), and the
    differential is zero except on the U^p summand, where
    D_p: U^p -> U^(p-1) sends t to g t - (-1)^p t f (g = w.z, f = v.z).
    With column-major vec, vec(g t) = (I (x) g) vec(t) and
    vec(t f) = (f^T (x) I) vec(t).
    """
    sv, sw = v["space"], w["space"]
    f, g = v["z"], w["z"]

    def pieces(p: int) -> List[Tuple[int, int, int]]:
        """Summands (i, dim W^(i+p), dim V^i) of U^p in a fixed order."""
        return [(i, sw[i + p], sv[i]) for i in sorted(sv) if sw.get(i + p, 0)]

    degrees = sorted({j - i for i in sv for j in sw})
    u = {p: sum(r * c for _, r, c in pieces(p)) for p in degrees}
    ranks: Dict[int, int] = {}
    for p in degrees:
        src, dst = pieces(p), pieces(p - 1)
        if not src or not dst:
            continue
        col_off, row_off = {}, {}
        acc = 0
        for i, r, c in src:
            col_off[i] = acc
            acc += r * c
        ncols = acc
        acc = 0
        for i, r, c in dst:
            row_off[i] = acc
            acc += r * c
        nrows = acc
        mat = [[Fraction(0)] * ncols for _ in range(nrows)]

        def place(block: Matrix, row0: int, col0: int, scale: int) -> None:
            for a, row in enumerate(block):
                for b, x in enumerate(row):
                    if x:
                        mat[row0 + a][col0 + b] += scale * x

        sign = -1 if p % 2 else 1
        for i, r, c in dst:  # target summand Hom(V^i, W^(i+p-1)), r x c
            if i in col_off and (i + p) in g:
                # g_(i+p): W^(i+p) -> W^(i+p-1) acting on t_i.
                place(_kron(identity(c), g[i + p]), row_off[i], col_off[i], 1)
            if (i - 1) in col_off and i in f:
                # f_i: V^i -> V^(i-1); t_(i-1) f_i, vec = (f_i^T (x) I_r) vec(t_(i-1)).
                place(_kron(_transpose(f[i]), identity(r)), row_off[i], col_off[i - 1], -sign)
        ranks[p] = rank(mat, ncols)
    cdims: Dict[int, int] = {}
    for p, d in u.items():
        for q in (p, p + 2):
            cdims[q] = cdims.get(q, 0) + d
    hf = {
        q: cdims[q] - ranks.get(q, 0) - ranks.get(q - 1, 0)
        for q in cdims
    }
    return {q: d for q, d in cdims.items() if d}, hf


def euler(dims: Mapping[int, int]) -> int:
    return sum((-1) ** (q % 2) * d for q, d in dims.items())


def floer_answer(v, w) -> dict:
    cdims, hf = floer_dims(v, w)
    lo, hi = min(cdims), max(cdims)
    chi = euler(cdims)
    if euler(hf) != chi:
        raise RuntimeError("oracle: chi(HF) differs from chi of the graded dimensions")
    return {
        "hf": {str(q): hf.get(q, 0) for q in range(lo, hi + 1)},
        "chi": chi,
        "differential_defined": True,
    }


# ---------------------------------------------------------------------------
# exhaustive counts of the verify sweeps

def _spaces(max_total_dim: int, band: Tuple[int, int]):
    lo, hi = band
    for total in range(1, max_total_dim + 1):
        for combo in itertools.combinations_with_replacement(range(lo, hi + 1), total):
            dims: Dict[int, int] = {}
            for d in combo:
                dims[d] = dims.get(d, 0) + 1
            yield dims


def _degree_minus_one_entries(dims: Mapping[int, int]) -> int:
    """Number of matrix entries of a degree -1 endomorphism."""
    return sum(dims.get(i - 1, 0) * n for i, n in dims.items())


def sphere_exhaustive_count(max_total_dim=2, band=(-2, 2), pool_size=3) -> int:
    return sum(
        pool_size ** _degree_minus_one_entries(dims) for dims in _spaces(max_total_dim, band)
    )


def commuting_invertible_pair_count(n: int, pool: Sequence[int]) -> int:
    mats = []
    for entries in itertools.product(pool, repeat=n * n):
        m = [list(entries[r * n:(r + 1) * n]) for r in range(n)]
        if invertible(m):
            mats.append(m)
    return sum(1 for a in mats for b in mats if matmul(a, b, n) == matmul(b, a, n))


def torus_exhaustive_count(max_total_dim=2, band=(-1, 1), pool=(-1, 1, 2)) -> int:
    pairs = {n: commuting_invertible_pair_count(n, pool) for n in range(1, max_total_dim + 1)}
    total = 0
    for dims in _spaces(max_total_dim, band):
        count = len(pool) ** _degree_minus_one_entries(dims)
        for n in dims.values():
            count *= pairs[n]
        total += count
    return total


def check_torus_block(m: Sequence[Sequence[Fraction]], n: Sequence[Sequence[Fraction]]) -> List[str]:
    errors = []
    if not (invertible(m) and invertible(n)):
        errors.append("sampled torus block is singular")
    if matmul(m, n, len(m)) != matmul(n, m, len(m)):
        errors.append("sampled torus blocks do not commute")
    return errors

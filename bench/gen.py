"""Seeded input generators for the benchmark workloads.

Every generator takes the benchmark seed and returns plain JSON values in
the program's input formats, together with the answer known by
construction where there is one.  Nothing here imports exacthom.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Matrix = List[List[Fraction]]


def rng_for(seed: int, name: str) -> random.Random:
    """Independent stream per (seed, name); string seeds hash with SHA-512."""
    return random.Random(f"exacthom-bench:{name}:{seed}")


def scalar_literal(x: Fraction):
    """JSON scalar in the program's format: an int or a "p/q" string."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _draw_scalar(rng: random.Random) -> Fraction:
    if rng.random() < 0.2:
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((2, 3, 4)))
    return Fraction(rng.randint(-2, 2))


# ---------------------------------------------------------------------------
# floer_pairs: sphere-quiver representations

# Dimensions in consecutive degrees; total 8-10 over 2-4 degrees.
FLOER_SHAPES: Dict[str, Tuple[int, ...]] = {
    "A": (4, 4),
    "B": (3, 3, 3),
    "C": (2, 3, 2, 2),
}
# Self-pairs (v, v) and distinct pairs (v, w).
FLOER_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("A", "A"), ("C", "C"), ("A", "B"), ("C", "A"),
)


def sphere_representation(rng: random.Random, shape: Sequence[int], base: int):
    """{"space": {degree: dim}, "z": {source degree: matrix}} with z of degree -1."""
    space = {base + k: d for k, d in enumerate(shape)}
    z: Dict[int, Matrix] = {}
    for i, cols in space.items():
        rows = space.get(i - 1, 0)
        if rows:
            z[i] = [[_draw_scalar(rng) for _ in range(cols)] for _ in range(rows)]
    return {"space": space, "z": z}


def representation_document(rep) -> dict:
    return {
        "quiver": "sphere",
        "space": {str(d): n for d, n in rep["space"].items()},
        "maps": {
            "z": {
                str(i): [[scalar_literal(x) for x in row] for row in m]
                for i, m in rep["z"].items()
            }
        },
    }


def floer_inputs(seed: int):
    """Representations by shape name, each at a seeded base degree."""
    rng = rng_for(seed, "floer")
    return {
        name: sphere_representation(rng, shape, rng.randint(-1, 1))
        for name, shape in FLOER_SHAPES.items()
    }


# ---------------------------------------------------------------------------
# cell_homology: boundaries in normal form, conjugated by unimodular matrices

def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a: Matrix, b: Matrix, inner: int) -> Matrix:
    cols = len(b[0]) if b else 0
    return [
        [sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
        for i in range(len(a))
    ]


def unimodular_pair(rng: random.Random, n: int, steps: int) -> Tuple[Matrix, Matrix]:
    """(U, U^-1): integer matrices of determinant +-1 from elementary moves.

    Each move adds k times row j to row i of U (and subtracts k times
    column i from column j of the inverse), or negates a row.
    """
    u, v = identity(n), identity(n)
    if n < 2:
        return u, v
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.1:
            u[i] = [-x for x in u[i]]
            for row in v:
                row[i] = -row[i]
            continue
        k = rng.choice((-2, -1, 1, 2))
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]
        for row in v:
            row[j] -= k * row[i]
    return u, v


def conjugated_complex(
    rng: random.Random, dims: Sequence[int], ranks: Sequence[int], rescale: bool
) -> Tuple[List[Matrix], List[int]]:
    """Differentials d_i: C^i -> C^(i+1) for i < len(dims)-1, and cohomology.

    In the normal form, d_i sends the first ranks[i] basis vectors of C^i
    to the last ranks[i] basis vectors of C^(i+1), scaled by small nonzero
    integers; so d_(i+1) d_i = 0 when ranks[i] + ranks[i+1] <= dims[i+1].
    The complex is then conjugated by P_i = D_i U_i with U_i unimodular
    and D_i a rational diagonal (identity unless rescale).  Conjugation
    keeps every rank, so H^i = dims[i] - ranks[i] - ranks[i-1].
    """
    n = len(dims)
    for i in range(n - 1):
        later = ranks[i + 1] if i + 1 < len(ranks) else 0
        assert ranks[i] + later <= dims[i + 1] and ranks[i] <= dims[i]
    p, p_inv = [], []
    for d in dims:
        u, v = unimodular_pair(rng, d, 3 * d)
        if rescale:
            diag = [Fraction(rng.choice((1, -1, 2, 3)), rng.choice((1, 2, 3, 5))) for _ in range(d)]
            u = [[diag[r] * x for x in u[r]] for r in range(d)]
            v = [[x / diag[c] for c, x in enumerate(row)] for row in v]
        p.append(u)
        p_inv.append(v)
    diffs = []
    for i in range(n - 1):
        rows, cols, r = dims[i + 1], dims[i], ranks[i]
        normal = [[Fraction(0)] * cols for _ in range(rows)]
        for k in range(r):
            normal[rows - r + k][k] = Fraction(rng.choice((1, 1, -1, 2, 3)))
        diffs.append(matmul(matmul(p[i + 1], normal, rows), p_inv[i], cols))
    coh = [
        dims[i] - (ranks[i] if i < n - 1 else 0) - (ranks[i - 1] if i > 0 else 0)
        for i in range(n)
    ]
    return diffs, coh


# (vertices, faces, genus) of the surface files; edges = v - 1 + 2g + f - 1.
SURFACES: Tuple[Tuple[int, int, int], ...] = ((12, 14, 2), (14, 18, 4), (16, 16, 6))
# Degrees and dimensions of the cochain files, with the rank of each d.
COCHAINS: Tuple[Tuple[int, Tuple[int, ...], Tuple[int, ...]], ...] = (
    (-1, (8, 18, 18, 8), (7, 8, 6)),
    (0, (12, 22, 11), (9, 10)),
)


def surface_document(rng: random.Random, vertices: int, faces: int, genus: int):
    """Cell-complex JSON of a closed orientable genus-g surface and its answer.

    The boundary in degree 1 has rank vertices-1 and in degree 2 rank
    faces-1, so H_0 = H_2 = 1, H_1 = 2g and chi = 2 - 2g.
    """
    edges = (vertices - 1) + 2 * genus + (faces - 1)
    # Chain degrees 2, 1, 0 become cochain positions 0, 1, 2 of the helper.
    (d2, d1), _ = conjugated_complex(
        rng, (faces, edges, vertices), (faces - 1, vertices - 1), rescale=False
    )
    cells = [{"id": f"v{k}", "dim": 0} for k in range(vertices)]
    cells += [{"id": f"e{k}", "dim": 1} for k in range(edges)]
    cells += [{"id": f"f{k}", "dim": 2} for k in range(faces)]
    incidence = []
    for boundary, src, dst in ((d1, "e", "v"), (d2, "f", "e")):
        for b, row in enumerate(boundary):
            for a, x in enumerate(row):
                if x:
                    incidence.append({"from": f"{src}{a}", "to": f"{dst}{b}", "coeff": int(x)})
    rng.shuffle(incidence)
    answer = {
        "homology": {"0": 1, "1": 2 * genus, "2": 1},
        "euler": 2 - 2 * genus,
        "genus": genus,
    }
    return {"cells": cells, "incidence": incidence}, answer


def cochain_document(rng: random.Random, lo: int, dims: Sequence[int], ranks: Sequence[int]):
    diffs, coh = conjugated_complex(rng, dims, ranks, rescale=True)
    doc = {
        "dims": {str(lo + i): d for i, d in enumerate(dims)},
        "differential": {
            str(lo + i): [[scalar_literal(x) for x in row] for row in m]
            for i, m in enumerate(diffs)
        },
    }
    euler = sum((-1) ** ((lo + i) % 2) * d for i, d in enumerate(dims))
    answer = {"homology": {str(lo + i): h for i, h in enumerate(coh)}, "euler": euler}
    return doc, answer


def cell_inputs(seed: int):
    """[(kind, document, answer)] with kind "surface" or "cochain"."""
    rng = rng_for(seed, "cell")
    out = [("surface",) + surface_document(rng, *s) for s in SURFACES]
    out += [("cochain",) + cochain_document(rng, *c) for c in COCHAINS]
    return out

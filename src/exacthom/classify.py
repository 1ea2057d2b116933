"""Finite verification of the surface-classification statements.

Three checks run over sampled (and, where stated, exhaustively enumerated)
representations.  The sphere and concentrated checks compare HF(V, V) of
sphere-quiver representations with its exact closed form and with
2-Calabi–Yau duality; the concentrated one takes only the samples spread
over several degrees.  The torus check is the Euler-characteristic
cancellation.  Violations are collected into reports, never thrown: the
reports are the output.

Sampling is deterministic per (seed, index), and the exhaustive
representations come in a fixed order, so a sweep can be split: _sweep
numbers its items (the exhaustive ones, then the samples) and hands
chunks of consecutive positions to forked children as each child comes
free (see _shares); the violations come back in position order.  A run on
one CPU and a run split over several report the same, byte for byte.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache, partial
from operator import mul
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ._record import Record
from ._shares import run_chunks, worker_count
from .errors import FormatError, RepresentationError
from .graded import GradedMap, GradedVectorSpace
from .quiver import (
    QuiverPresentation,
    Representation,
    euler_of_hom,
    floer_cohomology,
    sphere_quiver,
    torus_quiver,
)
from .rational import RationalMatrix, Scalar

_MASK64 = (1 << 64) - 1

# Samples lie in degrees -3..3 and draw their entries from this pool.
_DEGREE_BAND = (-3, 3)
_SCALAR_POOL = (-2, -1, 0, 1, 2)
_NONZERO_POOL = tuple(x for x in _SCALAR_POOL if x)


def _mix(seed: int, index: int) -> int:
    """splitmix64-style hash of (seed, index); stable across platforms."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class SampleConfig(Record):
    __slots__ = ("seed", "count", "max_total_dim")
    seed: int
    count: int
    max_total_dim: int

    def __init__(self, seed: int = 0, count: int = 100, max_total_dim: int = 3):
        if count < 1:
            raise FormatError("count must be at least 1")
        if max_total_dim < 1:
            raise FormatError("max_total_dim must be at least 1")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "max_total_dim", max_total_dim)


class TheoremReport(Record):
    __slots__ = ("theorem", "samples_checked", "violations")
    theorem: str
    samples_checked: int
    violations: Tuple[Dict[str, object], ...]

    def __init__(
        self, theorem: str, samples_checked: int, violations: Tuple[Dict[str, object], ...] = ()
    ):
        object.__setattr__(self, "theorem", theorem)
        object.__setattr__(self, "samples_checked", samples_checked)
        object.__setattr__(self, "violations", violations)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_payload(self) -> Dict[str, object]:
        return {
            "theorem": self.theorem,
            "checked": self.samples_checked,
            "violations": list(self.violations),
        }


def _violation(sample: str, space: GradedVectorSpace, detail: str) -> Dict[str, object]:
    return {
        "sample": sample,
        "space": {str(k): v for k, v in space.dims.items()},
        "detail": detail,
    }


# ---------------------------------------------------------------------------
# deterministic sampling

def _rng_for(cfg: SampleConfig, index: int) -> random.Random:
    return random.Random(_mix(cfg.seed, index))


def _sample_space(rng: random.Random, cfg: SampleConfig) -> GradedVectorSpace:
    total = rng.randint(1, cfg.max_total_dim)
    lo, hi = _DEGREE_BAND
    dims: Dict[int, int] = {}
    for _ in range(total):
        d = rng.randint(lo, hi)
        dims[d] = dims.get(d, 0) + 1
    return GradedVectorSpace(dims)


def _sample_matrix(rng: random.Random, rows: int, cols: int) -> RationalMatrix:
    # Integer entries over denominator 1 are already canonical.
    choice = rng.choice
    return RationalMatrix._raw(rows, cols, tuple([choice(_SCALAR_POOL) for _ in range(rows * cols)]), 1)


def _sample_invertible(rng: random.Random, n: int) -> RationalMatrix:
    for _ in range(64):
        m = _sample_matrix(rng, n, n)
        if m.is_invertible():
            return m
    return RationalMatrix.identity(n)


def _sample_degree_map(
    rng: random.Random, space: GradedVectorSpace, degree: int
) -> GradedMap:
    dims = space._dims
    blocks = {i: _sample_matrix(rng, dims.get(i + degree, 0), n) for i, n in dims.items()}
    return GradedMap(space, space, degree, blocks)


def sample_representation_at(
    quiver: QuiverPresentation, cfg: SampleConfig, index: int
) -> Representation:
    """Deterministic sample for one index; the unit of parallel evaluation.

    Sphere: the z-map is drawn freely (no constraint to satisfy).  Torus:
    per degree, m is drawn invertible and n either as an invertible
    polynomial in m (commutation for free) or, on every third index, as a
    member of the diagonal-pair family; h is drawn freely in degree -1.
    """
    sphere = quiver == sphere_quiver()
    if not sphere and quiver != torus_quiver():
        raise RepresentationError(
            "sampling supports only the builtin sphere and torus quivers"
        )
    rng = _rng_for(cfg, index)
    space = _sample_space(rng, cfg)
    if sphere:
        return Representation(quiver, space, {"z": _sample_degree_map(rng, space, -1)})
    alpha_blocks: Dict[int, RationalMatrix] = {}
    beta_blocks: Dict[int, RationalMatrix] = {}
    diagonal_family = index % 3 == 2
    for i, d in space._dims.items():
        if diagonal_family:
            a = _diagonal(rng, d)
            b = _diagonal(rng, d)
        else:
            a = _sample_invertible(rng, d)
            b = _sample_polynomial_in(rng, a)
        alpha_blocks[i] = a
        beta_blocks[i] = b
    gamma = _sample_degree_map(rng, space, -1)
    return Representation(
        quiver,
        space,
        {
            "m": GradedMap(space, space, 0, alpha_blocks),
            "n": GradedMap(space, space, 0, beta_blocks),
            "h": gamma,
        },
    )


def _sample_polynomial_in(rng: random.Random, a: RationalMatrix) -> RationalMatrix:
    """First invertible c0·I + c1·a + c2·a² of up to 64 draws, else a itself.

    a is integral (_sample_invertible draws it from the int pool, or falls
    back to the identity), so each candidate is one integer combination of
    the numerators of I, a and a², over denominator 1.
    """
    n = a.rows
    ident = [1 if i == j else 0 for i in range(n) for j in range(n)]
    linear = a.numerators
    quadratic = (a @ a).numerators
    choice = rng.choice
    for _ in range(64):
        c0, c1, c2 = choice(_SCALAR_POOL), choice(_SCALAR_POOL), choice(_SCALAR_POOL)
        nums = tuple([c0 * x + c1 * y + c2 * z for x, y, z in zip(ident, linear, quadratic)])
        cand = RationalMatrix._raw(n, n, nums, 1)
        if cand.is_invertible():
            return cand
    return a


def _diagonal(rng: random.Random, n: int) -> RationalMatrix:
    nums = tuple([rng.choice(_NONZERO_POOL) if i == j else 0 for i in range(n) for j in range(n)])
    return RationalMatrix._raw(n, n, nums, 1)


# ---------------------------------------------------------------------------
# exhaustive enumeration

def enumerate_spaces(
    max_total_dim: int, degree_band: Tuple[int, int]
) -> Iterator[GradedVectorSpace]:
    """All graded spaces of total dimension 1..max over the degree band."""
    lo, hi = degree_band
    for total in range(1, max_total_dim + 1):
        for combo in itertools.combinations_with_replacement(range(lo, hi + 1), total):
            dims: Dict[int, int] = {}
            for d in combo:
                dims[d] = dims.get(d, 0) + 1
            yield GradedVectorSpace(dims)


def enumerate_matrices(
    rows: int, cols: int, pool: Tuple[Scalar, ...]
) -> Iterator[RationalMatrix]:
    for entries in itertools.product(pool, repeat=rows * cols):
        yield RationalMatrix(rows, cols, entries)


@lru_cache(maxsize=None)
def commuting_invertible_pairs(
    dim: int, pool: Tuple[Scalar, ...]
) -> Tuple[Tuple[RationalMatrix, RationalMatrix], ...]:
    """Every ordered pair (a, b) of invertible dim x dim matrices over pool
    with ab = ba, in the order of enumerate_matrices for a, then for b.

    Commuting is symmetric, so each unordered pair is checked once, entry
    by entry on the integer numerators: ab and ba share the denominator of
    a times that of b, so they are equal exactly when their numerator
    products are.
    """
    invertible = [m for m in enumerate_matrices(dim, dim, pool) if m.is_invertible()]
    # The numerator rows and columns of each matrix.
    lines = [
        ([m.numerators[i * dim : (i + 1) * dim] for i in range(dim)],
         [m.numerators[j::dim] for j in range(dim)])
        for m in invertible
    ]
    # partners[i] lists, ascending, the j whose matrix commutes with matrix i.
    partners: List[List[int]] = [[] for _ in invertible]
    for i, a in enumerate(lines):
        partners[i].append(i)
        for j in range(i + 1, len(invertible)):
            if _commute(a, lines[j]):
                partners[i].append(j)
                partners[j].append(i)
    return tuple((a, invertible[j]) for a, row in zip(invertible, partners) for j in row)


def _commute(a: tuple, b: tuple) -> bool:
    """Whether the numerator products ab and ba agree, given each matrix as
    (rows, columns) of numerators; stops at the first entry that differs."""
    (a_rows, a_cols), (b_rows, b_cols) = a, b
    for a_row, b_row in zip(a_rows, b_rows):
        for b_col, a_col in zip(b_cols, a_cols):
            if sum(map(mul, a_row, b_col)) != sum(map(mul, b_row, a_col)):
                return False
    return True


def _degree_minus_one_maps(
    space: GradedVectorSpace, pool: Tuple[Scalar, ...]
) -> Iterator[GradedMap]:
    """Every degree -1 endomorphism of space with entries in pool: the
    product, in ascending source degree, of enumerate_matrices per block."""
    slots = [i for i in space.degrees() if space.dim(i - 1) > 0]
    blocks = [enumerate_matrices(space.dim(i - 1), space.dim(i), pool) for i in slots]
    for choice in itertools.product(*blocks):
        yield GradedMap(space, space, -1, dict(zip(slots, choice)))


def _sphere_builders() -> Iterator[Callable[[], Representation]]:
    """For each exhaustive sphere representation, in order, the call that
    builds and validates it."""
    quiver = sphere_quiver()
    for space in enumerate_spaces(2, (-2, 2)):
        for z in _degree_minus_one_maps(space, (-1, 0, 1)):
            yield partial(Representation, quiver, space, {"z": z})


def enumerate_sphere_representations() -> Iterator[Representation]:
    """Every sphere-quiver representation of total dimension 1..2 in
    degrees -2..2 with z-entries in {-1, 0, 1}: 28 of them."""
    return (build() for build in _sphere_builders())


def _torus_builders() -> Iterator[Callable[[], Representation]]:
    """For each exhaustive torus representation, in order, the call that
    builds and validates it."""
    pool = (-1, 1, 2)
    quiver = torus_quiver()
    for space in enumerate_spaces(2, (-1, 1)):
        degrees = space.degrees()
        pair_families = [commuting_invertible_pairs(space.dim(i), pool) for i in degrees]
        h_maps = tuple(_degree_minus_one_maps(space, pool))
        for pairs in itertools.product(*pair_families):
            for h in h_maps:
                yield partial(_torus_representation, quiver, space, pairs, h)


def _torus_representation(
    quiver: QuiverPresentation, space: GradedVectorSpace, pairs: tuple, h: GradedMap
) -> Representation:
    """The torus representation with blocks (m, n) = pairs, one pair per
    degree of space in ascending order, and the map h."""
    degrees = space.degrees()
    m = GradedMap(space, space, 0, {i: p[0] for i, p in zip(degrees, pairs)})
    n = GradedMap(space, space, 0, {i: p[1] for i, p in zip(degrees, pairs)})
    return Representation(quiver, space, {"m": m, "n": n, "h": h})


def enumerate_torus_representations() -> Iterator[Representation]:
    """Every valid torus-quiver representation of total dimension 1..2 in
    degrees -1..1 with entries in {-1, 1, 2}: 1068 of them."""
    return (build() for build in _torus_builders())


# ---------------------------------------------------------------------------
# theorem checks

# Most distinct self-pairs whose HF(V, V) one sweep keeps in one process,
# which bounds the table's memory (an entry of a max-dim 4 sweep takes about
# 1 KiB).  A full table takes no more entries; the rest are computed every
# time they occur.  Each process of a split sweep fills its own table, so the
# cap holds per process.
_HF_TABLE_CAP = 4096


def _content(rep: Representation) -> tuple:
    """The exact content of a representation over a fixed quiver: the
    space's dims and each map's blocks as (degree, denominator, numerators)."""
    return (
        tuple(rep.space._dims.items()),
        tuple(
            tuple((i, b.denominator, b.numerators) for i, b in rep.maps[g.name]._blocks.items())
            for g in rep.quiver.generators
        ),
    )


def _self_pair_check() -> Callable[[Representation, str], List[Dict[str, object]]]:
    """_self_pair_violations for one sweep, with HF(V, V) computed once per
    distinct content while the sweep's table has room (_HF_TABLE_CAP)."""
    table: Dict[tuple, GradedVectorSpace] = {}

    def examine(rep: Representation, label: str) -> List[Dict[str, object]]:
        key = _content(rep)
        hf = table.get(key)
        if hf is None:
            hf = floer_cohomology(rep, rep)
            if len(table) < _HF_TABLE_CAP:
                table[key] = hf
        return _self_pair_violations(rep.space, hf, label)

    return examine


def _self_pair_violations(
    space: GradedVectorSpace, hf: GradedVectorSpace, label: str
) -> List[Dict[str, object]]:
    """How HF(V, V) of a sphere-quiver representation on space breaks its
    exact form.

    Let V lie in degrees lo..hi, with spread k = hi - lo.  Dimensions alone
    force the closed form.  For k = 0, z = 0 and HF = {0: m², 2: m²} with
    m = dim V.  For k >= 1, the two ends of the morphism complex are
    cocycles that nothing hits, so HF^{-k} = HF^{k+2} = dim V^lo · dim V^hi,
    and the support lies in [-k, k+2].  Only duality, HF^d = HF^{2-d}
    (k[z] with |z| = -1 is 2-Calabi–Yau), depends on the differential.
    """
    degrees, h = space.degrees(), hf._dims
    k, ends = degrees[-1] - degrees[0], space.dim(degrees[0]) * space.dim(degrees[-1])
    out: List[Dict[str, object]] = []

    def flag(detail: str) -> None:
        out.append(_violation(label, space, detail))

    if k == 0:
        if h != {0: ends, 2: ends}:
            flag(f"cohomology {hf.dims} != {{0: {ends}, 2: {ends}}}")
    else:
        if h.get(-k, 0) != ends or h.get(k + 2, 0) != ends:
            flag(
                f"HF^{-k} = {hf.dim(-k)} and HF^{k + 2} = {hf.dim(k + 2)}, "
                f"not dim V^lo * dim V^hi = {ends}"
            )
        if any(not -k <= d <= k + 2 for d in h):
            flag(f"support {hf.degrees()} leaves [{-k}, {k + 2}]")
    broken = sorted({min(d, 2 - d) for d in h if h.get(2 - d, 0) != h[d]})
    if broken:
        flag(f"duality HF^d = HF^(2-d) fails at d in {broken}: cohomology {hf.dims}")
    return out


def _torus_violations(rep: Representation, label: str) -> List[Dict[str, object]]:
    chi = euler_of_hom(rep, rep)
    return [_violation(label, rep.space, f"euler characteristic {chi} != 0")] if chi else []


# What a sweep reports of one checked representation: its violations, or
# None when it lies outside the statement's hypothesis and is not counted.
Examine = Callable[[Representation, str], Optional[List[Dict[str, object]]]]


def _sweep(
    theorem: str,
    quiver: QuiverPresentation,
    cfg: SampleConfig,
    examine: Examine,
    builders: Tuple[Callable[[], Representation], ...] = (),
) -> TheoremReport:
    """examine the representation each of builders builds, then cfg.count
    samples.

    The items are numbered in that order, sample i at position
    len(builders) + i.  A split sweep (see _shares) examines them in chunks
    of consecutive positions, and each process builds only the items of the
    chunks it takes; the violations come back in position order, so the
    report is the serial one.
    """
    size = len(builders)

    def work(start: int, stop: int) -> Tuple[int, List[Dict[str, object]]]:
        """(checked, violations) of the items at positions start..stop-1."""
        checked, found = 0, []
        for position in range(start, stop):
            if position < size:
                rep, label = builders[position](), f"exhaustive:{position}"
            else:
                index = position - size
                rep, label = sample_representation_at(quiver, cfg, index), f"sample:{index}"
            violations = examine(rep, label)
            if violations is not None:
                checked += 1
                found += violations
        return checked, found

    items = size + cfg.count
    results = run_chunks(work, items, worker_count(items))
    return TheoremReport(
        theorem,
        sum(checked for checked, _ in results),
        tuple(v for _, found in results for v in found),
    )


def check_sphere_theorem(cfg: SampleConfig) -> TheoremReport:
    """Dichotomy sweep: exhaustive small cases plus cfg.count random samples.

    HF(V, V) must have the exact form of _self_pair_violations: supported in
    [0, 2] with the sphere's values (squared) for a one-degree space, and
    reaching -k and k+2 for a space of spread k >= 1.
    """
    return _sweep(
        "sphere", sphere_quiver(), cfg, _self_pair_check(), tuple(_sphere_builders())
    )


def check_concentrated_lemma(cfg: SampleConfig) -> TheoremReport:
    """Spread-k spaces have cohomology at degrees -k and k+2: gap 2k+2 >= 4.

    Each checked sample must meet the exact form of _self_pair_violations.
    Draws cfg.count sphere-quiver samples; those concentrated in a single
    degree are outside the hypothesis and are skipped, so samples_checked
    counts only the spread >= 1 ones.
    """
    self_pair = _self_pair_check()

    def examine(rep: Representation, label: str) -> Optional[List[Dict[str, object]]]:
        return None if len(rep.space.degrees()) == 1 else self_pair(rep, label)

    return _sweep("concentrated", sphere_quiver(), cfg, examine)


def check_torus_theorem(cfg: SampleConfig) -> TheoremReport:
    """Euler characteristic of end(r) vanishes for every valid torus rep.

    Exhaustive over small total dimension plus cfg.count random
    commuting-pair samples; each must give chi = 0, the characteristic of
    a genus-1 surface.
    """
    return _sweep(
        "torus", torus_quiver(), cfg, _torus_violations, tuple(_torus_builders())
    )


# The theorems verify takes; argparse lists them in this order.
CHECKS = {
    "sphere": check_sphere_theorem,
    "torus": check_torus_theorem,
    "concentrated": check_concentrated_lemma,
}

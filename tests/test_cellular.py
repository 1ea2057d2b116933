import tracemalloc

import pytest

from exacthom.cellular import (
    CellComplex,
    SurfaceVerdict,
    builtin,
    chain_complex_of,
    circle,
    classify_surface,
    genus_from_euler,
    genus_surface,
    homology_of,
)
from exacthom.errors import CellComplexError, ClassificationError, FormatError


def tetrahedron_boundary():
    """Subdivided sphere: boundary of the 3-simplex with simplicial signs.

    Edge (i,j) with i<j has boundary j - i; face (i,j,k) has boundary
    (j,k) - (i,k) + (i,j).
    """
    verts = [1, 2, 3, 4]
    edges = [(i, j) for i in verts for j in verts if i < j]
    faces = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    cells = (
        [(f"v{i}", 0) for i in verts]
        + [(f"e{i}{j}", 1) for i, j in edges]
        + [(f"f{i}{j}{k}", 2) for i, j, k in faces]
    )
    incidence = []
    for i, j in edges:
        incidence.append((f"e{i}{j}", f"v{j}", 1))
        incidence.append((f"e{i}{j}", f"v{i}", -1))
    for i, j, k in faces:
        incidence.append((f"f{i}{j}{k}", f"e{j}{k}", 1))
        incidence.append((f"f{i}{j}{k}", f"e{i}{k}", -1))
        incidence.append((f"f{i}{j}{k}", f"e{i}{j}", 1))
    return CellComplex(cells, incidence)


def cells_per_dim(cc):
    """Cells of each dimension, counted through the chain complex."""
    return {-d: n for d, n in chain_complex_of(cc).space.dims.items()}


class TestBuiltins:
    def test_circle_cells(self):
        assert cells_per_dim(circle()) == {0: 1, 1: 1}

    def test_sphere_has_no_one_cells(self):
        assert cells_per_dim(genus_surface(0)) == {0: 1, 2: 1}

    def test_genus_one_is_torus(self):
        assert builtin("torus") == genus_surface(1)

    def test_genus_three_cell_count(self):
        assert cells_per_dim(genus_surface(3)) == {0: 1, 1: 6, 2: 1}

    def test_builtin_names(self):
        assert builtin("circle") == circle()
        assert builtin("sphere") == genus_surface(0)
        assert builtin("genus_g:1") == genus_surface(1)

    def test_unknown_builtin(self):
        with pytest.raises(FormatError):
            builtin("klein_bottle")

    def test_negative_genus(self):
        with pytest.raises(FormatError):
            genus_surface(-1)


class TestEquality:
    """Equality compares cells and incidence in input order, and coefficients."""

    CELLS = [("v", 0), ("a", 1), ("b", 1), ("f", 2)]
    INCIDENCE = [("a", "v", 0), ("b", "v", 0), ("f", "a", 0), ("f", "b", 0)]

    def test_same_input_is_equal(self):
        assert CellComplex(self.CELLS, self.INCIDENCE) == CellComplex(
            list(self.CELLS), list(self.INCIDENCE)
        )

    def test_cells_in_another_order_are_not_equal(self):
        swapped = [self.CELLS[0], self.CELLS[2], self.CELLS[1], self.CELLS[3]]
        assert CellComplex(self.CELLS, self.INCIDENCE) != CellComplex(swapped, self.INCIDENCE)

    def test_incidence_in_another_order_is_not_equal(self):
        assert CellComplex(self.CELLS, self.INCIDENCE) != CellComplex(
            self.CELLS, self.INCIDENCE[::-1]
        )

    def test_other_coefficient_is_not_equal(self):
        other = self.INCIDENCE[:-1] + [("f", "b", 1)]
        assert CellComplex(self.CELLS, self.INCIDENCE) != CellComplex(self.CELLS, other)

    def test_not_equal_to_other_types(self):
        assert CellComplex(self.CELLS) != self.CELLS


class TestChainComplex:
    def test_circle_complex(self):
        c = chain_complex_of(circle())
        assert c.space.dims == {-1: 1, 0: 1}
        assert c.differential.is_zero()

    def test_torus_complex(self):
        c = chain_complex_of(genus_surface(1))
        assert c.space.dims == {-2: 1, -1: 2, 0: 1}
        assert c.differential.is_zero()

    def test_point(self):
        c = chain_complex_of(CellComplex([("p", 0)]))
        assert c.space.dims == {0: 1}

    def test_incidence_signs_land_in_matrix(self):
        cc = CellComplex(
            [("a", 0), ("b", 0), ("e", 1)],
            [("e", "a", -1), ("e", "b", 1)],
        )
        block = chain_complex_of(cc).differential.block(-1)
        assert sorted(x for x in block.entries()) == [-1, 1]

    def test_all_builtins_validate(self):
        for name in ["circle", "sphere", "torus", "genus_g:4"]:
            assert chain_complex_of(builtin(name)).validate()

    def test_inconsistent_incidence_rejected(self):
        cc = CellComplex(
            [("p", 0), ("e", 1), ("f", 2)],
            [("e", "p", 1), ("f", "e", 1)],
        )
        with pytest.raises(CellComplexError):
            chain_complex_of(cc)

    def test_far_apart_dimensions_cost_no_empty_blocks(self):
        """Only dimensions that have cells get a degree or a block."""
        cc = CellComplex([("v", 0), ("c", 100000)])
        tracemalloc.start()
        try:
            cx = chain_complex_of(cc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert cx.space.dims == {-100000: 1, 0: 1}
        assert cx.differential.is_zero()
        with pytest.raises(ClassificationError, match="homology nonzero in dimension 100000"):
            classify_surface(cc)


class TestHomology:
    def test_golden_surfaces(self):
        for g in range(6):
            h = homology_of(genus_surface(g))
            assert (h.dim(0), h.dim(1), h.dim(2)) == (1, 2 * g, 1)

    def test_circle(self):
        h = homology_of(circle())
        assert h.dims == {0: 1, 1: 1}

    def test_subdivided_sphere_matches_minimal(self):
        assert homology_of(tetrahedron_boundary()) == homology_of(genus_surface(0))

    def test_subdivision_preserves_euler(self):
        fine = chain_complex_of(tetrahedron_boundary())
        coarse = chain_complex_of(genus_surface(0))
        assert fine.space.euler() == coarse.space.euler() == 2


class TestClassify:
    def test_torus_genus_one(self):
        v = classify_surface(genus_surface(1))
        assert v.genus == 1 and v.euler == 0 and v.connected

    def test_sphere_genus_zero(self):
        assert classify_surface(genus_surface(0)).genus == 0

    def test_all_small_genera(self):
        for g in range(6):
            v = classify_surface(genus_surface(g))
            assert v.genus == g
            assert v.euler == 2 - 2 * g

    def test_subdivided_sphere(self):
        assert classify_surface(tetrahedron_boundary()).genus == 0

    def test_disconnected_rejected(self):
        two_points = CellComplex([("p", 0), ("q", 0)])
        with pytest.raises(ClassificationError):
            classify_surface(two_points)

    def test_genus_from_euler(self):
        assert genus_from_euler(2) == 0
        assert genus_from_euler(0) == 1
        assert genus_from_euler(-2) == 2

    def test_odd_euler_rejected(self):
        with pytest.raises(ClassificationError):
            genus_from_euler(1)

    def test_euler_above_two_rejected(self):
        with pytest.raises(ClassificationError):
            genus_from_euler(4)

    def test_verdict_consistency_enforced(self):
        with pytest.raises(ClassificationError):
            SurfaceVerdict(genus=1, euler=2, connected=True, orientable_assumed=True)


class TestStructuralErrors:
    def test_duplicate_ids(self):
        with pytest.raises(CellComplexError):
            CellComplex([("a", 0), ("a", 1)])

    def test_dangling_reference(self):
        with pytest.raises(CellComplexError):
            CellComplex([("a", 0)], [("ghost", "a", 1)])

    def test_dimension_gap_in_incidence(self):
        with pytest.raises(CellComplexError):
            CellComplex([("a", 0), ("f", 2)], [("f", "a", 1)])

    def test_duplicate_incidence_pair(self):
        with pytest.raises(CellComplexError):
            CellComplex(
                [("a", 0), ("e", 1)],
                [("e", "a", 1), ("e", "a", 2)],
            )

    def test_negative_dimension(self):
        with pytest.raises(CellComplexError):
            CellComplex([("a", -1)])

    # Each case would be a valid complex if the one bad field were converted
    # with str() or int().
    @pytest.mark.parametrize(
        "cells, incidence",
        [
            ([(1, 0)], []),
            ([(None, 0)], []),
            ([("a", True)], []),
            ([("a", "0")], []),
            ([("a", 0), ("e", 1)], [(1, "a", 1)]),
            ([("a", 0), ("e", 1)], [("e", None, 1)]),
            ([("a", 0), ("e", 1)], [("e", "a", "1")]),
            ([("a", 0), ("e", 1)], [("e", "a", True)]),
        ],
        ids=["int id", "None id", "bool dim", "str dim", "int from", "None to",
             "str coeff", "bool coeff"],
    )
    def test_fields_are_not_coerced(self, cells, incidence):
        with pytest.raises(FormatError):
            CellComplex(cells, incidence)

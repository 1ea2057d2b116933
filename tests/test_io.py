import json
from fractions import Fraction

import pytest

from exacthom.cellular import CellComplex
from exacthom.complexes import CochainComplex
from exacthom.errors import CellComplexError, FormatError, InvalidComplexError
from exacthom.io import (
    load_cell_complex,
    load_complex,
    load_document,
    load_homology_input,
    load_representation,
    parse_cell_complex,
    parse_complex,
    parse_graded_space,
    parse_matrix,
    parse_quiver,
    parse_representation,
)
from exacthom.quiver import sphere_quiver, torus_quiver


def write_json(tmp_path, payload, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestScalars:
    def test_integers_and_strings(self):
        m = parse_matrix([[1, "2/4", "-3"], [0, 1, "7"]])
        assert m[(0, 1)] == Fraction(1, 2)
        assert m[(0, 2)] == -3
        assert m[(1, 2)] == 7

    def test_float_rejected(self):
        with pytest.raises(FormatError):
            parse_matrix([[0.5]])

    def test_bool_rejected(self):
        with pytest.raises(FormatError):
            parse_matrix([[True]])

    def test_garbage_string_rejected(self):
        with pytest.raises(FormatError):
            parse_matrix([["two"]])

    def test_ragged_rejected(self):
        with pytest.raises(FormatError):
            parse_matrix([[1, 2], [3]])

    def test_signed_and_padded_digits_accepted(self):
        m = parse_matrix([["+3", "-2/4", "007", "0/5"]])
        assert m.entries() == (3, Fraction(-1, 2), 7, 0)
        assert parse_graded_space({"+1": "02", "-0": 1}).dims == {0: 1, 1: 2}

    @pytest.mark.parametrize(
        "literal", ["1e5", "0.5", " 3 ", "1_000", "\u0663", "3\n", "1/0", "1/-2", "+", "", "1/"]
    )
    def test_only_plain_integers_and_fractions(self, literal):
        with pytest.raises(FormatError):
            parse_matrix([[literal]])
        with pytest.raises(FormatError):
            parse_graded_space({literal: 1})
        with pytest.raises(FormatError):
            parse_graded_space({"0": literal})


class TestGradedSpace:
    def test_string_degree_keys(self):
        space = parse_graded_space({"-1": 2, "0": 1, "3": 4})
        assert space.dims == {-1: 2, 0: 1, 3: 4}

    def test_zero_dims_dropped(self):
        assert parse_graded_space({"0": 0}).is_zero()

    def test_negative_dim_rejected(self):
        with pytest.raises(FormatError):
            parse_graded_space({"0": -1})

    def test_non_integer_key_rejected(self):
        with pytest.raises(FormatError):
            parse_graded_space({"half": 1})


class TestComplex:
    def test_round_trip(self):
        cx = parse_complex(
            {
                "dims": {"0": 1, "1": 2},
                "differential": {"0": [[1], [0]]},
            }
        )
        assert cx.space.dims == {0: 1, 1: 2}
        assert cx.cohomology().dims == {1: 1}

    def test_shape_mismatch(self):
        with pytest.raises(FormatError):
            parse_complex({"dims": {"0": 1, "1": 1}, "differential": {"0": [[1, 2]]}})

    def test_not_a_complex(self):
        # well-formed file, invalid mathematics: the domain error surfaces
        doc = {
            "dims": {"0": 1, "1": 1, "2": 1},
            "differential": {"0": [[1]], "1": [[1]]},
        }
        with pytest.raises(InvalidComplexError):
            parse_complex(doc)

    def test_differential_optional(self):
        cx = parse_complex({"dims": {"0": 1}})
        assert cx.differential.is_zero()

    def test_dims_required(self):
        with pytest.raises(FormatError):
            parse_complex({"differential": {}})


class TestCellComplex:
    def test_parse(self):
        doc = {
            "cells": [
                {"id": "v", "dim": 0},
                {"id": "e", "dim": 1},
            ],
            "incidence": [{"from": "e", "to": "v", "coeff": 0}],
        }
        cx = parse_cell_complex(doc)
        assert isinstance(cx, CellComplex)
        assert cx.max_dim() == 1

    def test_dangling_reference(self):
        doc = {
            "cells": [{"id": "v", "dim": 0}],
            "incidence": [{"from": "e", "to": "v", "coeff": 1}],
        }
        with pytest.raises(CellComplexError):
            parse_cell_complex(doc)

    def test_incidence_optional(self):
        cx = parse_cell_complex({"cells": [{"id": "v", "dim": 0}]})
        assert cx.max_dim() == 0


class TestQuiver:
    def test_builtin_by_name(self):
        assert parse_quiver("torus") == torus_quiver()

    def test_inline(self):
        doc = {
            "generators": [
                {"name": "a", "degree": 0, "invertible": True},
                {"name": "b", "degree": -1},
            ],
            "relations": [
                {"generator": "b", "terms": [{"coeff": 1, "word": ["a", "a"]}]}
            ],
        }
        q = parse_quiver(doc)
        assert q.generator("a").invertible
        assert q.differential_of("b") == ((1, ("a", "a")),)

    def test_unknown_relation_generator(self):
        doc = {
            "generators": [{"name": "a", "degree": -1}],
            "relations": [{"generator": "c", "terms": [{"coeff": 1, "word": ["a"]}]}],
        }
        with pytest.raises(FormatError):
            parse_quiver(doc)


class TestRepresentation:
    def test_parse(self):
        doc = {
            "quiver": "sphere",
            "space": {"0": 1, "1": 1},
            "maps": {"z": {"1": [[2]]}},
        }
        rep = parse_representation(doc)
        assert rep.quiver == sphere_quiver()
        assert rep.maps["z"].block(1)[(0, 0)] == 2

    def test_unknown_generator(self):
        doc = {"quiver": "sphere", "space": {"0": 1}, "maps": {"q": {}}}
        with pytest.raises(FormatError):
            parse_representation(doc)

    def test_maps_optional(self):
        rep = parse_representation({"quiver": "sphere", "space": {"0": 2}})
        assert rep.maps["z"].is_zero()


class TestFiles:
    def test_load_document_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_document(path)

    def test_load_document_missing(self, tmp_path):
        with pytest.raises(FormatError):
            load_document(tmp_path / "absent.json")

    def test_load_complex(self, tmp_path):
        path = write_json(
            tmp_path, {"dims": {"-2": 1, "0": 3}, "differential": {}}
        )
        assert load_complex(path).space.dims == {-2: 1, 0: 3}

    def test_load_cell_complex(self, tmp_path):
        path = write_json(tmp_path, {"cells": [{"id": "p", "dim": 0}]})
        assert load_cell_complex(path).max_dim() == 0

    def test_load_representation(self, tmp_path):
        path = write_json(
            tmp_path, {"quiver": "torus", "space": {"0": 1}, "maps": {}}
        )
        rep = load_representation(path)
        assert rep.quiver == torus_quiver()

    def test_homology_input_detects_cells(self, tmp_path):
        path = write_json(tmp_path, {"cells": [{"id": "p", "dim": 0}]})
        assert isinstance(load_homology_input(path), CellComplex)

    def test_homology_input_detects_complex(self, tmp_path):
        path = write_json(tmp_path, {"dims": {"0": 1}, "differential": {}})
        loaded = load_homology_input(path)
        assert isinstance(loaded, CochainComplex)
        assert loaded.space.dims == {0: 1}

    def test_homology_input_rejects_other(self, tmp_path):
        path = write_json(tmp_path, {"quiver": "sphere", "space": {}})
        with pytest.raises(FormatError):
            load_homology_input(path)

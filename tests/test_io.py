import copy
import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import matrix

from exacthom.cellular import CellComplex
from exacthom.complexes import CochainComplex
from exacthom.errors import (
    CellComplexError,
    ExactHomError,
    FormatError,
    InvalidComplexError,
    RepresentationError,
    ShapeError,
)
from exacthom.io import (
    load_cell_complex,
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
from exacthom.rational import RationalMatrix, rat

# Deterministic and bounded, so the suite runs the same examples every time.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


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


_REFERENCE_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def reference_scalar(value) -> Fraction:
    """One Fraction per entry: how matrix entries were read before integer storage."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if _REFERENCE_RATIONAL.fullmatch(value):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError):
                pass
        raise FormatError(f"bad rational literal {value!r}")
    raise FormatError(f"matrix entries must be exact (int or 'p/q'), got {value!r}")


def reference_parse_matrix(obj) -> RationalMatrix:
    if not isinstance(obj, list):
        raise FormatError(f"matrix must be a list, got {type(obj).__name__}")
    parsed = []
    for row in obj:
        if not isinstance(row, list):
            raise FormatError(f"matrix row must be a list, got {type(row).__name__}")
        parsed.append([reference_scalar(x) for x in row])
    try:
        return matrix(parsed)
    except ShapeError as exc:
        raise FormatError(str(exc))


def outcome(parse, obj):
    """The matrix parsed, or the FormatError's message."""
    try:
        return parse(obj)
    except FormatError as exc:
        return f"FormatError: {exc}"


def _digits(n: int, pad: int) -> str:
    return "0" * pad + str(n)


# Signed, zero-padded, unreduced "p" and "p/q" strings ("-0/3" among them).
literals = st.builds(
    lambda sign, p, q, pad_p, pad_q: sign + _digits(p, pad_p) + (f"/{_digits(q, pad_q)}" if q else ""),
    st.sampled_from(["", "+", "-"]),
    st.integers(0, 10**30),
    st.integers(0, 36),
    st.integers(0, 2),
    st.integers(0, 2),
)
entries = st.one_of(st.integers(-(10**30), 10**30), st.integers(-3, 3), literals)
matrices = st.integers(0, 4).flatmap(
    lambda cols: st.lists(st.lists(entries, min_size=cols, max_size=cols), max_size=4)
)


class TestIntegerParse:
    """parse_matrix reads int numerators and denominators; the Fraction path is the oracle."""

    @PROPERTY
    @given(matrices)
    @example([["1/2", "2/3", 5], ["-0/3", "+04/06", "-7"]])
    @example([[10**40, "1/" + "9" * 40]])
    def test_equals_fraction_reference(self, rows):
        parsed = parse_matrix(rows)
        assert parsed == reference_parse_matrix(rows)
        assert parsed.to_lists() == [[reference_scalar(x) for x in row] for row in rows]

    @PROPERTY
    @given(st.one_of(st.text(), literals))
    @example("1/0")
    @example("0.5")
    def test_library_and_file_read_a_string_alike(self, text):
        try:
            value = rat(text)
        except FormatError as exc:
            assert outcome(parse_matrix, [[text]]) == f"FormatError: {exc}"
        else:
            assert parse_matrix([[text]]) == RationalMatrix(1, 1, [value])

    @pytest.mark.parametrize(
        "obj",
        [
            [["1/0"]], [["6/-3"]], [["1e5"]], [[" 1"]], [["1" * 5000]], [["1/" + "2" * 5000]],
            [[0.5]], [[2.0]], [[True]], [[1, False]], [[None]], [[[1]]],
            [[1, 2], [3]], [[1], 2], [[1], "1"], 3, {"0": [1]},
            [[1, 2], [3], ["x", 0]], [[1, 2], [3], 4], [["1/0", 2], [3]],
        ],
        ids=[
            "1/0", "6/-3", "1e5", "space 1", "5000 digits", "5000-digit denominator",
            "float", "integral float", "bool", "mixed bool", "null", "nested list",
            "ragged", "int row", "str row", "int matrix", "object matrix",
            "bad literal after ragged row", "int row after ragged row", "bad literal in ragged matrix",
        ],
    )
    def test_refused_with_reference_message(self, obj):
        got = outcome(parse_matrix, obj)
        assert isinstance(got, str) and got == outcome(reference_parse_matrix, obj)


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
        assert dict(q.relations)["b"] == ((1, ("a", "a")),)

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
        assert load_homology_input(path).space.dims == {-2: 1, 0: 3}

    def test_load_cell_complex(self, tmp_path):
        path = write_json(tmp_path, {"cells": [{"id": "p", "dim": 0}]})
        assert load_cell_complex(path).max_dim() == 0

    def test_load_representation(self, tmp_path):
        path = write_json(
            tmp_path, {"quiver": "torus", "space": {"0": 1}, "maps": {"m": {"0": [[1]]}, "n": {"0": [[2]]}}}
        )
        rep = load_representation(path)
        assert rep.quiver == torus_quiver()
        # With m and n left at zero, m is not invertible.
        path = write_json(
            tmp_path, {"quiver": "torus", "space": {"0": 1}, "maps": {}}, name="singular.json"
        )
        with pytest.raises(RepresentationError, match="^invalid representation: constraint invertibility:m$"):
            load_representation(path)

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


# Values of every JSON type, kept small: names and numbers the parsers look
# for, so that mutated documents reach the deeper checks, and no dimension
# large enough to allocate much.
FIELDS = [
    "cells", "incidence", "id", "dim", "from", "to", "coeff", "dims", "differential",
    "quiver", "space", "maps", "generators", "relations", "name", "degree",
    "invertible", "generator", "terms", "word", "z", "m", "n", "h", "v", "e",
    "0", "1", "-1", "2",
]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(-2, 2)
    | st.sampled_from(FIELDS + ["sphere", "torus", "1/2", "-3/6", "0/0", "1e5", "+1", "x", ""]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(FIELDS), inner, max_size=4),
    max_leaves=16,
)

VALID = {
    "surface": {
        "cells": [{"id": "v", "dim": 0}, {"id": "e", "dim": "1"}, {"id": "f", "dim": 2}],
        "incidence": [{"from": "e", "to": "v", "coeff": 0}, {"from": "f", "to": "e", "coeff": "-0"}],
    },
    "cochain": {"dims": {"0": 1, "1": 2}, "differential": {"0": [["1/2"], [0]]}},
    "representation": {
        "quiver": "sphere",
        "space": {"0": 1, "1": 1},
        "maps": {"z": {"1": [["-2/3"]]}},
    },
    "inline quiver": {
        "quiver": {
            "generators": [
                {"name": "a", "degree": 0, "invertible": True}, {"name": "c", "degree": 0},
                {"name": "b", "degree": -1},
            ],
            "relations": [{"generator": "b", "terms": [
                {"coeff": 1, "word": ["a", "c"]}, {"coeff": -1, "word": ["c", "a"]},
            ]}],
        },
        "space": {"0": 1},
        "maps": {"a": {"0": [[1]]}, "c": {"0": [["1/2"]]}},
    },
}
# Parses as far as the representation: with a = 1, the relation db = a·a fails.
INVALID_INLINE = {
    "quiver": {
        "generators": [{"name": "a", "degree": 0, "invertible": True}, {"name": "b", "degree": -1}],
        "relations": [{"generator": "b", "terms": [{"coeff": 1, "word": ["a", "a"]}]}],
    },
    "space": {"0": 1},
    "maps": {"a": {"0": [[1]]}},
}
PARSERS = [parse_cell_complex, parse_complex, parse_representation, parse_matrix]


def _paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutated(doc, path, replacement):
    """doc with the value at path dropped (replacement None) or replaced."""
    if not path:
        return replacement
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if replacement is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return doc


def assert_result_or_refused(doc):
    """Every parser returns or raises ExactHomError; any other exception fails the test."""
    for parse in PARSERS:
        try:
            parse(doc)
        except ExactHomError:
            pass


class TestParserRobustness:
    @pytest.mark.parametrize(
        "name, parse",
        [("surface", parse_cell_complex), ("cochain", parse_complex),
         ("representation", parse_representation), ("inline quiver", parse_representation)],
    )
    def test_valid_documents_parse(self, name, parse):
        parse(VALID[name])

    def test_invalid_inline_representation_refused(self):
        with pytest.raises(RepresentationError, match="^invalid representation: constraint relation:b$"):
            parse_representation(INVALID_INLINE)

    @PROPERTY
    @given(json_values)
    def test_any_json_value(self, doc):
        assert_result_or_refused(doc)

    @PROPERTY
    @given(st.sampled_from(sorted(VALID)), st.data())
    def test_mutated_valid_document(self, name, data):
        doc = VALID[name]
        path = data.draw(st.sampled_from(list(_paths(doc))))
        replacement = data.draw(st.none() | json_values)
        assert_result_or_refused(_mutated(doc, path, replacement))

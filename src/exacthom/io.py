"""JSON readers for graded spaces, complexes, cell complexes, representations.

All scalar entries are exact: integers or strings like "3/4".  Floats are
rejected so no rounding can sneak in, and strings must be plain ASCII
integers or "p/q" (no spaces, underscores, exponents or decimal points).
Names and the invertible flag are passed through unchanged: the record
constructors refuse a value of the wrong type rather than convert it.
Parsers take decoded JSON values; load_* helpers wrap file access.
A matrix entry is read once into an int numerator and denominator, and the
matrix is built over the lcm of the denominators: no Fraction per entry.  A
cell or incidence entry whose fields have the exact types passes one check.
"""

from __future__ import annotations

import json
from math import lcm
from typing import Dict, List, Tuple, Union

from .cellular import CellComplex
from .complexes import CochainComplex
from .errors import FormatError, ShapeError, integer_literal, rational_literal
from .graded import GradedMap, GradedVectorSpace
from .quiver import QuiverPresentation, Representation, builtin_quiver
from .rational import RationalMatrix, combination_madds


def load_document(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}")
    except ValueError as exc:  # bad JSON, or an integer literal too long for int()
        raise FormatError(f"{path} is not valid JSON: {exc}")


def _expect_mapping(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be an object, got {type(obj).__name__}")
    return obj


def _expect_list(obj, what: str) -> list:
    if not isinstance(obj, list):
        raise FormatError(f"{what} must be a list, got {type(obj).__name__}")
    return obj


def _int(value, what: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        return integer_literal(value, what)
    raise FormatError(f"{what} must be an integer, got {value!r}")


def _scalar(value) -> Tuple[int, int]:
    """(p, q) with value == p/q and q > 0, not reduced."""
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value), 1
    if isinstance(value, str):
        return rational_literal(value)
    raise FormatError(f"matrix entries must be exact (int or 'p/q'), got {value!r}")


def parse_matrix(obj) -> RationalMatrix:
    """List of rows; entries are integers or 'p/q' strings."""
    rows = _expect_list(obj, "matrix")
    nums: List[int] = []
    dens: Dict[int, int] = {}  # entry index -> denominator, where it is not 1
    for row in rows:
        for x in _expect_list(row, "matrix row"):
            if type(x) is int:
                nums.append(x)
            else:
                p, q = _scalar(x)
                if q != 1:
                    dens[len(nums)] = q
                nums.append(p)
    if any(len(row) != len(rows[0]) for row in rows):
        raise FormatError("ragged rows")
    den = lcm(*dens.values())
    if den != 1:
        nums = [p * (den // dens.get(k, 1)) for k, p in enumerate(nums)]
    return RationalMatrix.from_numerators(len(rows), len(rows[0]) if rows else 0, nums, den)


def parse_graded_space(obj) -> GradedVectorSpace:
    """Object mapping degree strings to positive dimensions, e.g. {"0": 1}."""
    mapping = _expect_mapping(obj, "graded space")
    dims: Dict[int, int] = {}
    for key, value in mapping.items():
        dims[_int(key, "degree")] = _int(value, f"dimension at degree {key}")
    try:
        return GradedVectorSpace(dims)
    except ShapeError as exc:
        raise FormatError(str(exc))


def _parse_blocks(obj, space: GradedVectorSpace, degree: int, what: str) -> GradedMap:
    mapping = _expect_mapping(obj, what)
    blocks: Dict[int, RationalMatrix] = {}
    for key, value in mapping.items():
        blocks[_int(key, f"{what} source degree")] = parse_matrix(value)
    try:
        return GradedMap(space, space, degree, blocks)
    except ShapeError as exc:
        raise FormatError(f"{what}: {exc}")


# Multiply-adds the d^2 check of a complex file may take, by
# combination_madds.  The largest test or benchmark input takes 2,000,000:
# the cancelling complex on {0: 1000, 1: 2, 2: 1000} in tests/test_complexes.py.
MAX_SQUARE_CHECK_MADDS = 2_000_000


def parse_complex(obj) -> CochainComplex:
    """{"dims": {...}, "differential": {source-degree: matrix}}.

    A complex whose d^2 check would take over MAX_SQUARE_CHECK_MADDS is
    refused before the check: its work grows with the square of the file.
    """
    mapping = _expect_mapping(obj, "complex")
    if "dims" not in mapping:
        raise FormatError("complex object needs a 'dims' field")
    space = parse_graded_space(mapping["dims"])
    diff = _parse_blocks(mapping.get("differential", {}), space, 1, "differential")
    blocks = diff.blocks()
    madds = sum(
        combination_madds([(1, blocks[i + 1], b)]) for i, b in blocks.items() if i + 1 in blocks
    )
    if madds > MAX_SQUARE_CHECK_MADDS:
        raise FormatError(
            f"checking that d^2 = 0 needs {madds} multiply-adds, "
            f"more than the {MAX_SQUARE_CHECK_MADDS} a complex file may ask for"
        )
    return CochainComplex(space, diff)


def parse_cell_complex(obj) -> CellComplex:
    """{"cells": [{"id","dim"}], "incidence": [{"from","to","coeff"}]}."""
    mapping = _expect_mapping(obj, "cell complex")
    if "cells" not in mapping:
        raise FormatError("cell complex object needs a 'cells' field")
    # An entry whose fields have the exact types is taken in one check; any
    # other is converted ("5") or refused field by field.
    cells = []
    for e in _expect_list(mapping["cells"], "cells"):
        if type(e) is dict:
            cid, dim = e.get("id"), e.get("dim")
            if type(cid) is str and type(dim) is int:
                cells.append((cid, dim))
                continue
        e = _expect_mapping(e, "cell")
        if "id" not in e or "dim" not in e:
            raise FormatError("each cell needs 'id' and 'dim'")
        cells.append((e["id"], _int(e["dim"], "cell dim")))
    incidence = []
    for e in _expect_list(mapping.get("incidence", []), "incidence"):
        if type(e) is dict:
            frm, to, coeff = e.get("from"), e.get("to"), e.get("coeff")
            if type(frm) is str and type(to) is str and type(coeff) is int:
                incidence.append((frm, to, coeff))
                continue
        e = _expect_mapping(e, "incidence entry")
        for field in ("from", "to", "coeff"):
            if field not in e:
                raise FormatError(f"each incidence entry needs '{field}'")
        incidence.append((e["from"], e["to"], _int(e["coeff"], "coeff")))
    return CellComplex(cells, incidence)


def parse_quiver(obj) -> QuiverPresentation:
    """Builtin name ("sphere"/"torus") or inline presentation object."""
    if isinstance(obj, str):
        return builtin_quiver(obj)
    mapping = _expect_mapping(obj, "quiver")
    if "generators" not in mapping:
        raise FormatError("quiver object needs a 'generators' field")
    generators = []
    for entry in _expect_list(mapping["generators"], "generators"):
        e = _expect_mapping(entry, "generator")
        if "name" not in e or "degree" not in e:
            raise FormatError("each generator needs 'name' and 'degree'")
        generators.append((e["name"], _int(e["degree"], "degree"), e.get("invertible", False)))
    relations = []
    for entry in _expect_list(mapping.get("relations", []), "relations"):
        e = _expect_mapping(entry, "relation")
        if "generator" not in e:
            raise FormatError("each relation needs 'generator'")
        terms = []
        for term in _expect_list(e.get("terms", []), "relation terms"):
            t = _expect_mapping(term, "relation term")
            if "coeff" not in t or "word" not in t:
                raise FormatError("each relation term needs 'coeff' and 'word'")
            word = tuple(_expect_list(t["word"], "word"))
            terms.append((_int(t["coeff"], "coeff"), word))
        relations.append((e["generator"], tuple(terms)))
    return QuiverPresentation(tuple(generators), tuple(relations))


def parse_representation(obj) -> Representation:
    """{"quiver": name-or-object, "space": {...}, "maps": {gen: {degree: matrix}}}."""
    mapping = _expect_mapping(obj, "representation")
    for field in ("quiver", "space"):
        if field not in mapping:
            raise FormatError(f"representation object needs a '{field}' field")
    quiver = parse_quiver(mapping["quiver"])
    space = parse_graded_space(mapping["space"])
    maps: Dict[str, GradedMap] = {}
    for name, blocks in _expect_mapping(mapping.get("maps", {}), "maps").items():
        degree = quiver.generator(name).degree
        maps[name] = _parse_blocks(blocks, space, degree, f"map {name!r}")
    return Representation(quiver, space, maps)


def load_cell_complex(path: str) -> CellComplex:
    return parse_cell_complex(load_document(path))


def load_representation(path: str) -> Representation:
    return parse_representation(load_document(path))


def load_homology_input(path: str) -> Union[CellComplex, CochainComplex]:
    """Cell-complex or complex file, told apart by their required fields."""
    obj = load_document(path)
    mapping = _expect_mapping(obj, "input")
    if "cells" in mapping:
        return parse_cell_complex(mapping)
    if "dims" in mapping:
        return parse_complex(mapping)
    raise FormatError("input must contain either 'cells' or 'dims'")

"""Exception types shared across the package, and the input checks that raise one."""

import re
from typing import Tuple

_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class ExactHomError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(ExactHomError):
    """Dimension, degree, or shape mismatch in a linear-algebra operation."""


class InvalidComplexError(ExactHomError):
    """A differential whose square is not zero."""


class CellComplexError(ExactHomError):
    """Malformed cell data: dangling ids, bad incidence dimensions, d*d != 0."""


class RepresentationError(ExactHomError):
    """Invalid representation, quiver mismatch, or unsupported quiver."""


class UnsupportedDifferentialError(ExactHomError):
    """The hom-complex differential is not defined for this quiver."""


class ClassificationError(ExactHomError):
    """Invariants incompatible with a closed orientable surface."""


class FormatError(ExactHomError):
    """Malformed input file or unknown builtin name."""


def require_type(value, kind: type, what: str):
    """value itself if it is a kind, else FormatError; a bool is not an int."""
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise FormatError(f"{what} must be of type {kind.__name__}, got {value!r}")


def integer_literal(text: str, what: str) -> int:
    """The int a plain ASCII literal [+-]?[0-9]+ spells, else FormatError."""
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise FormatError(f"{what} must be an integer, got {text!r}")


def rational_literal(text: str) -> Tuple[int, int]:
    """(p, q) with text == p/q and q > 0, not reduced, for a plain ASCII
    literal [+-]?[0-9]+(/[0-9]+)?, else FormatError."""
    if _RATIONAL.fullmatch(text):
        p, _, q = text.partition("/")
        try:
            p, q = int(p), int(q or 1)
        except ValueError:  # more digits than int() converts
            q = 0
        if q:
            return p, q
    raise FormatError(f"bad rational literal {text!r}")

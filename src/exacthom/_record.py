"""Base class for the package's small immutable records.

A record lists its fields in __slots__, in constructor order, and sets them
in __init__ with object.__setattr__.  It then prints as Name(field=value,
...), compares equal to a record of the same class with equal fields, and
hashes as the tuple of its fields; assigning or deleting a field raises
AttributeError.  These methods are written out once here, not generated
per class at import time, because the standard generator imports inspect,
ast, dis and tokenize, which every CLI run would pay for.
"""

from operator import attrgetter


class Record:
    """Immutable fields in __slots__; every record has at least two, so
    _values returns the tuple of field values."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

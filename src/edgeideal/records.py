"""Base classes for the package's plain value classes.

A subclass lists its attributes in `__slots__`; those not starting with an
underscore are its fields.  Instances of one class compare equal when their
fields do, and the repr shows the fields, as a dataclass would.  The module
stands in for `dataclasses`, whose import loads `inspect`, `ast`, `dis` and
`tokenize` and so costs every run of the package several milliseconds.
"""

from __future__ import annotations


class Record:
    """Fields compared and shown; mutable and unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    """A Record whose attributes are set once, in `__init__` with
    `object.__setattr__`, and whose fields are hashed."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

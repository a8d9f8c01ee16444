"""Frozen records: the one base of abelsplit's value classes.

A record keeps its fields in __slots__, in order, and its __init__ sets
them through the slot descriptors (setters gives them) or Record._fill,
since assignment raises dataclasses.FrozenInstanceError. It compares and
hashes as the tuple of its fields (_key, an attrgetter built per class),
shows them in its repr as Name(field=value, ...), pickles as the tuple
of its slots (_state) without running __init__, and replace copies it
with some fields changed. A slot whose name starts with "_" takes no
part in ==, hash or repr: a private field, or a __dict__ slot that only
caches. dataclasses is imported on the error path alone, so importing
abelsplit loads neither it nor the inspect and ast it imports.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable

_set = object.__setattr__


def _tuple_getter(names) -> staticmethod:
    """attrgetter(*names), whose bare value for one name goes in a 1-tuple."""
    get = attrgetter(*names)
    return staticmethod(get if len(names) > 1 else lambda record: (get(record),))


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = _tuple_getter([name for name in cls.__slots__ if name[0] != "_"])
        cls._state = _tuple_getter(cls.__slots__)

    def _fill(self, *values) -> None:
        """Set the fields, in slot order, to values."""
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._state(self)

    def __setstate__(self, state: tuple) -> None:
        self._fill(*state)


def setters(cls: type[Record]) -> list[Callable]:
    """The __set__ of each slot descriptor of cls, in slot order."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]


def replace(record: Record, **changes) -> Record:
    """A new record of record's class, made by its __init__ from changes
    and, for every other parameter of __init__, record's field of that name."""
    code = type(record).__init__.__code__
    for name in code.co_varnames[1:code.co_argcount]:
        if name not in changes:
            changes[name] = getattr(record, name)
    return type(record)(**changes)

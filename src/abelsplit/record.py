"""Frozen records: the one base of abelsplit's value classes.

A record keeps its fields in __slots__, in order, since assignment raises
dataclasses.FrozenInstanceError. Each class gets one _fill(self, *slots),
compiled once from its slot names, which sets every slot through that
slot's descriptor in one statement, no loop; a wrong number of values
raises TypeError naming the field. A class that checks nothing defines
no __init__ and _fill is its __init__; one that checks or has defaults
calls self._fill. A record compares and hashes as the tuple of its
fields (_key, an attrgetter built per class), shows them in its repr as
Name(field=value, ...), pickles as the tuple of its slots (_state) and
unpickles through _fill without running __init__, and replace copies it
with some fields changed. A slot whose name starts with "_" takes no
part in ==, hash or repr: a private field, or a __dict__ slot that only
caches. dataclasses is imported on the error path alone, so importing
abelsplit loads neither it nor the inspect and ast it imports.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable


def _tuple_getter(names) -> staticmethod:
    """attrgetter(*names), whose bare value for one name goes in a 1-tuple."""
    get = attrgetter(*names)
    return staticmethod(get if len(names) > 1 else lambda record: (get(record),))


def _compile_fill(cls: type) -> Callable[..., None]:
    """cls's _fill: a function of self and one parameter per slot, named after
    it, that calls each slot descriptor's __set__, named for cls."""
    names = cls.__slots__
    namespace = {f"_set{i}": vars(cls)[name].__set__ for i, name in enumerate(names)}
    body = "".join(f"\n    _set{i}(self, {name})" for i, name in enumerate(names))
    source = f"def {cls.__name__}(self, {', '.join(names)}):{body}"
    exec(compile(source, f"<record {cls.__qualname__}>", "exec"), namespace)
    fill = namespace[cls.__name__]
    fill.__qualname__ = cls.__qualname__
    return fill


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = _tuple_getter([name for name in cls.__slots__ if name[0] != "_"])
        cls._state = _tuple_getter(cls.__slots__)
        cls._fill = _compile_fill(cls)
        if "__init__" not in vars(cls):
            cls.__init__ = cls._fill

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


def replace(record: Record, **changes) -> Record:
    """A new record of record's class, made by its __init__ from changes
    and, for every other parameter of __init__, record's field of that name."""
    code = type(record).__init__.__code__
    for name in code.co_varnames[1:code.co_argcount]:
        if name not in changes:
            changes[name] = getattr(record, name)
    return type(record)(**changes)

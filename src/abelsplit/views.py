"""The read-only sequence base of the views that build their items on access.

A view holds a compact, already checked structure (the anchors of a tiling
export, the multiplier sets of an enumeration with their splitter tuples)
and makes each item from it when the item is read, so its memory follows
that structure rather than the items.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence


class ReadOnlyView(Sequence):
    """A read-only sequence whose items are made on access.

    A subclass gives __len__, __iter__ and _item(index), which is called
    with 0 <= index < len(self) only. Negative indexes count from the end;
    a slice is a list of items; a view equals any list or view holding
    equal items, in order, and is unhashable.
    """

    __slots__ = ()
    __hash__ = None

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        index, size = operator.index(index), len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError(f"{type(self).__name__} index out of range")
        return self._item(index)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, ReadOnlyView)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {len(self)} items>"

"""Primitives that behave the same on every supported Python.

* :func:`left_sum` adds floats strictly left to right.  From Python
  3.12 the builtin ``sum`` compensates float rounding (Neumaier), so
  the same run would report results that differ in their last bits
  from one interpreter to the next and miss the committed goldens.
  On 3.11 and earlier ``sum`` already adds left to right and is used
  as is.
* :class:`IdCounter` hands out process-global ids and can be read and
  raised without copying it, which ``itertools.count`` allows only
  through its pickle/copy support (deprecated in 3.12, removed in
  3.14).
"""

from __future__ import annotations

import operator
import sys
from functools import reduce
from typing import Iterable


def _left_to_right(values: Iterable[float]):
    """``sum`` without compensation.  The int start reproduces it
    exactly, ``sum([]) == 0`` included."""
    return reduce(operator.add, values, 0)


#: ``sum`` with floats added left to right on every Python.
left_sum = sum if sys.version_info < (3, 12) else _left_to_right


class IdCounter:
    """A process-global source of increasing integer ids."""

    __slots__ = ("next_id",)

    def __init__(self) -> None:
        self.next_id = 0

    def __call__(self) -> int:
        """The next id."""
        value = self.next_id
        self.next_id = value + 1
        return value

    def advance_to(self, floor: int) -> None:
        """Never hand out an id below ``floor`` from now on."""
        self.next_id = max(self.next_id, floor)


__all__ = ["IdCounter", "left_sum"]

"""Host-speed reference: a fixed pure-Python job that uses no ``repro`` code.

Usage::

    python3 perfbench/hostref.py

Builds and sorts a dict, walks it, and allocates and reads slotted
objects: the interpreter's dispatch, allocator and cache behaviour that
the simulator leans on.  Its work never changes, so its wall time tracks
only how fast the host is running at the moment.  ``run.py`` times it as
a cold subprocess just before and just after each repetition's work step
and scales that repetition's host times by it (see README.md).
"""

from __future__ import annotations

import sys

#: The job's result; any other value means it did not run as written.
CHECKSUM = 13445724152


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def job() -> int:
    table = {}
    for i in range(150_000):
        table[(i * 2654435761) % 1_000_003] = [i, str(i)]
    total = 0
    for key, value in sorted(table.items(), key=lambda item: item[1][1]):
        total += len(value[1]) + (key & 7)
    for pair in [_Pair(i, i * 3) for i in range(100_000)]:
        total += pair.a ^ pair.b
    return total


if __name__ == "__main__":
    sys.exit(0 if job() == CHECKSUM else 1)

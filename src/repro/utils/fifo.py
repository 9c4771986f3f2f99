"""A bounded FIFO mirroring the behaviour of a hardware queue.

Used by the CFI queue model (:mod:`repro.core.queue`) and the trace-driven
overhead model.  Unlike :class:`collections.deque`, pushing into a full
queue is a *protocol error* — hardware FIFOs assert backpressure instead
of silently dropping, and we want tests to catch any model that forgets
to honour the ``full`` signal.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, Iterator, TypeVar

from repro.errors import ProtocolError

T = TypeVar("T")


class BoundedFifo(Generic[T]):
    """First-in/first-out queue with a hard capacity.

    Args:
        capacity: maximum number of simultaneously-stored entries; must be
            at least 1 (a zero-capacity FIFO cannot exist in hardware).
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"FIFO capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: Deque[T] = deque()
        self._pushes = 0
        self._pops = 0
        self._high_water = 0

    @property
    def capacity(self) -> int:
        """Maximum number of entries."""
        return self._capacity

    @property
    def full(self) -> bool:
        """True when a push would overflow (hardware ``full`` signal)."""
        return len(self._entries) >= self._capacity

    @property
    def empty(self) -> bool:
        """True when a pop would underflow (hardware ``empty`` signal)."""
        return not self._entries

    @property
    def occupancy(self) -> int:
        """Current number of stored entries."""
        return len(self._entries)

    @property
    def pushes(self) -> int:
        """Lifetime count of successful pushes (for statistics)."""
        return self._pushes

    @property
    def pops(self) -> int:
        """Lifetime count of successful pops (for statistics)."""
        return self._pops

    @property
    def high_water(self) -> int:
        """Maximum occupancy ever observed."""
        return self._high_water

    def push(self, entry: T) -> None:
        """Append ``entry``; raises :class:`ProtocolError` when full."""
        if self.full:
            raise ProtocolError(
                f"push into full FIFO (capacity {self._capacity})"
            )
        self._entries.append(entry)
        self._pushes += 1
        if len(self._entries) > self._high_water:
            self._high_water = len(self._entries)

    def pop(self) -> T:
        """Remove and return the oldest entry; raises when empty."""
        if self.empty:
            raise ProtocolError("pop from empty FIFO")
        self._pops += 1
        return self._entries.popleft()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[T]:
        return iter(self._entries)

    def __repr__(self) -> str:
        return (
            f"BoundedFifo(capacity={self._capacity}, "
            f"occupancy={len(self._entries)})"
        )

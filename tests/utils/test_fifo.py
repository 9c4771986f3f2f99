"""Unit and property tests for the bounded FIFO used by the CFI queue."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.utils.fifo import BoundedFifo


class TestBasics:
    def test_capacity_one_is_legal(self):
        fifo = BoundedFifo(1)
        assert fifo.capacity == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            BoundedFifo(0)

    def test_starts_empty(self):
        fifo = BoundedFifo(4)
        assert fifo.empty
        assert not fifo.full
        assert fifo.occupancy == 0

    def test_fifo_order(self):
        fifo = BoundedFifo(3)
        for value in (1, 2, 3):
            fifo.push(value)
        assert [fifo.pop() for _ in range(3)] == [1, 2, 3]

    def test_push_full_raises(self):
        fifo = BoundedFifo(1)
        fifo.push("x")
        with pytest.raises(ProtocolError):
            fifo.push("y")
        # The refused push changed nothing.
        assert (fifo.occupancy, fifo.pushes, fifo.high_water) == (1, 1, 1)
        assert fifo.pop() == "x"

    def test_pop_empty_raises(self):
        with pytest.raises(ProtocolError):
            BoundedFifo(1).pop()


class TestStatistics:
    def test_high_water_tracks_max(self):
        fifo = BoundedFifo(8)
        for i in range(5):
            fifo.push(i)
        for _ in range(3):
            fifo.pop()
        fifo.push(99)
        assert fifo.high_water == 5

    def test_push_pop_counters(self):
        fifo = BoundedFifo(4)
        for i in range(4):
            fifo.push(i)
        for _ in range(2):
            fifo.pop()
        assert fifo.pushes == 4
        assert fifo.pops == 2


@given(st.lists(st.integers(), max_size=50), st.integers(min_value=1, max_value=8))
def test_property_order_preserved_within_capacity(items, capacity):
    """Items popped always come out in push order (FIFO invariant)."""
    fifo = BoundedFifo(capacity)
    pushed = []
    popped = []
    for item in items:
        if fifo.full:
            popped.append(fifo.pop())
        fifo.push(item)
        pushed.append(item)
    while not fifo.empty:
        popped.append(fifo.pop())
    assert popped == pushed


@given(st.lists(st.sampled_from(["push", "pop"]), max_size=100))
def test_property_occupancy_bounds(operations):
    """Occupancy stays within [0, capacity] under any operation sequence."""
    fifo = BoundedFifo(4)
    counter = 0
    for operation in operations:
        if operation == "push" and not fifo.full:
            fifo.push(counter)
            counter += 1
        elif operation == "pop" and not fifo.empty:
            fifo.pop()
        assert 0 <= fifo.occupancy <= fifo.capacity
        assert fifo.full == (fifo.occupancy == fifo.capacity)
        assert fifo.empty == (fifo.occupancy == 0)

"""Unit and property tests for the CFI queue's FIFO mechanics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.commit_log import CommitLog
from repro.core.queue import CfiQueue
from repro.errors import ConfigError, ProtocolError


def log(n):
    """A commit log told apart by its pc."""
    return CommitLog(pc=n, encoding=0, next_address=n + 4, target=n + 8)


class TestBasics:
    def test_depth_one_is_legal(self):
        queue = CfiQueue(1)
        assert queue.depth == 1

    @pytest.mark.parametrize("depth", [0, -1, True, "4", 2.5], ids=repr)
    def test_bad_depth_is_a_config_error(self, depth):
        with pytest.raises(ConfigError, match="depth"):
            CfiQueue(depth)

    def test_starts_empty(self):
        queue = CfiQueue(4)
        assert queue.empty
        assert not queue.full
        assert len(queue) == 0

    def test_fifo_order(self):
        queue = CfiQueue(3)
        for n in (1, 2, 3):
            queue.push(log(n))
        assert [queue.pop().pc for _ in range(3)] == [1, 2, 3]

    def test_full_blocking_queue_refuses_and_counts_a_stall(self):
        queue = CfiQueue(1)
        assert queue.push(log(1))
        assert not queue.push(log(2))
        # The refused push changed nothing but the stall counter.
        assert (len(queue), queue.high_water) == (1, 1)
        assert (queue.full_stalls, queue.dropped) == (1, 0)
        assert queue.pop().pc == 1

    def test_pop_empty_raises(self):
        with pytest.raises(ProtocolError):
            CfiQueue(1).pop()


class TestStatistics:
    def test_high_water_tracks_max(self):
        queue = CfiQueue(8)
        for n in range(5):
            queue.push(log(n))
        for _ in range(3):
            queue.pop()
        queue.push(log(99))
        assert queue.high_water == 5


@given(st.lists(st.integers(min_value=0, max_value=1 << 32), max_size=50),
       st.integers(min_value=1, max_value=8), st.booleans())
def test_property_order_preserved_within_capacity(items, depth, lossy):
    """Logs come out in push order (FIFO invariant).  A blocking queue
    is drained before a push would stall; a lossy one is never drained
    early, so it sheds exactly the oldest logs."""
    queue = CfiQueue(depth, lossy=lossy)
    popped = []
    for item in items:
        if queue.full and not lossy:
            popped.append(queue.pop().pc)
        assert queue.push(log(item))
    while not queue.empty:
        popped.append(queue.pop().pc)
    assert queue.dropped == (max(0, len(items) - depth) if lossy else 0)
    assert popped == items[queue.dropped:]


@given(st.lists(st.sampled_from(["push", "pop"]), max_size=100), st.booleans())
def test_property_occupancy_bounds(operations, lossy):
    """Occupancy stays within [0, depth] under any operation sequence,
    and every push is accepted, refused (one full stall) or accepted
    after shedding the oldest log (lossy only)."""
    queue = CfiQueue(4, lossy=lossy)
    accepted = refused = popped = 0
    for n, operation in enumerate(operations):
        if operation == "push":
            was_full = queue.full
            if queue.push(log(n)):
                accepted += 1
            else:
                refused += 1
                assert was_full and not lossy
        elif not queue.empty:
            queue.pop()
            popped += 1
        assert 0 <= len(queue) <= queue.depth
        assert queue.full == (len(queue) == queue.depth)
        assert queue.empty == (len(queue) == 0)
    assert queue.full_stalls == refused
    assert len(queue) == accepted - popped - queue.dropped
    assert lossy or queue.dropped == 0

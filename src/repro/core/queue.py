"""The CFI queue and its controller's push rule (paper §IV-B2).

The CFI queue buffers commit logs between the commit stage and the log
writer.  The queue controller drives the push signal and *inhibits the
commit stage* — stalling CVA6 — when the queue is full; :meth:`CfiQueue.push`
is that rule.  The RTL's second stall cause, two commit ports retiring
a control-flow instruction in the same cycle, cannot arise here: the
modelled core retires one instruction per cycle, so at most one log is
offered per cycle.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.core.commit_log import CommitLog
from repro.errors import ProtocolError, check_int


class CfiQueue:
    """FIFO of commit logs between the commit stage and the log writer.

    Args:
        depth: capacity in logs (at least 1).
        lossy: drop-oldest mode.  A push against a full queue evicts the
            oldest buffered log (counted in :attr:`dropped`) instead of
            inhibiting commit, so back-pressure turns into event loss
            the reports can measure.  A plain attribute: the policy
            host flips a quarantined hart's queue to lossy mid-run.

    Attributes:
        high_water: maximum occupancy ever observed.
        full_stalls: cycles commit was inhibited by a full queue.
        dropped: oldest logs evicted (lossy mode only).
    """

    def __init__(self, depth: int, lossy: bool = False):
        check_int("depth", depth, 1)
        self.depth = depth
        self.lossy = lossy
        self.high_water = 0
        self.full_stalls = 0
        self.dropped = 0
        self._logs: Deque[CommitLog] = deque()

    @property
    def full(self) -> bool:
        """True when a push would find no free slot (hardware ``full``)."""
        return len(self._logs) >= self.depth

    @property
    def empty(self) -> bool:
        """True when a pop would underflow (hardware ``empty``)."""
        return not self._logs

    def __len__(self) -> int:
        return len(self._logs)

    def push(self, log: CommitLog) -> bool:
        """Offer this cycle's log; False when commit must be inhibited.

        A full blocking queue refuses the log and counts one full stall
        (the commit stage re-offers it next cycle).  A full lossy queue
        sheds its oldest log and accepts this one.
        """
        logs = self._logs
        if len(logs) >= self.depth:
            if not self.lossy:
                self.full_stalls += 1
                return False
            logs.popleft()
            self.dropped += 1
        logs.append(log)
        if len(logs) > self.high_water:
            self.high_water = len(logs)
        return True

    def pop(self) -> CommitLog:
        """Remove and return the oldest log; raises when empty."""
        if not self._logs:
            raise ProtocolError("pop from empty CFI queue")
        return self._logs.popleft()

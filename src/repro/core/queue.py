"""The CFI queue and queue controller (paper §IV-B2).

The CFI queue buffers commit logs between the commit stage and the log
writer.  The queue controller drives the push signal and, when needed,
*inhibits the commit stage* — stalling CVA6 — in two situations:

* the queue is full, or
* more than one commit port retires a control-flow instruction in the
  same cycle (the queue accepts at most one push per cycle).

Both stall causes are counted separately; the dual-retire statistic
backs the paper's claim that simultaneous CF commits are "a rare event"
not expected to affect performance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.commit_log import CommitLog
from repro.utils.fifo import BoundedFifo


class CfiQueue(BoundedFifo[CommitLog]):
    """FIFO of commit logs with a hardware-style single-push-per-cycle rule.

    The per-cycle push budget is enforced by the controller; the class
    only adds a named capacity for reporting.
    """

    def __init__(self, depth: int):
        super().__init__(depth)
        self.depth = depth


@dataclass
class StallStats:
    """Why and how often the commit stage was inhibited."""

    full_stalls: int = 0        # cycles stalled because the queue was full
    conflict_stalls: int = 0    # cycles stalled due to dual CF retirement
    total_offered: int = 0      # CF logs offered by the filters
    total_accepted: int = 0     # CF logs actually pushed
    dropped: int = 0            # oldest logs evicted (lossy mode only)


class QueueController:
    """Decides, each cycle, which filter outputs enter the queue.

    :meth:`arbitrate` receives the (possibly ``None``) commit logs the
    per-port filters produced this cycle and returns how many leading
    entries the commit stage may retire; the rest must be replayed next
    cycle (the model of "inhibiting the commit stage").

    In lossy mode a full queue never inhibits commit: the oldest
    buffered log is evicted (and counted) to make room, so back-pressure
    turns into event loss the reports can measure.
    """

    def __init__(self, queue: CfiQueue, lossy: bool = False):
        self.queue = queue
        self.lossy = lossy
        self.stats = StallStats()

    def record_full_stall(self, cycles: int = 1) -> None:
        """Account ``cycles`` of commit inhibition against a full queue.

        The single bookkeeping point shared by :meth:`arbitrate` and the
        commit stage's bulk/fast stall paths, so the per-cycle and
        skipped-cycle accountings cannot drift apart.
        """
        self.stats.full_stalls += cycles

    def arbitrate(self, logs: List[Optional[CommitLog]]) -> int:
        """Process one cycle's filter outputs.

        Args:
            logs: one slot per commit port, ``None`` where the retiring
                instruction was not CFI-relevant (or the port is idle).

        Returns:
            The number of leading ports whose instructions may retire
            this cycle.  A return value smaller than ``len(logs)``
            stalls the younger instructions.
        """
        pushed_this_cycle = False
        accepted_ports = 0
        for log in logs:
            if log is None:
                accepted_ports += 1
                continue
            self.stats.total_offered += 1
            if pushed_this_cycle:
                # Second CF op in one cycle: the single-entry-per-cycle
                # FIFO cannot take it; inhibit from this port onward.
                self.stats.conflict_stalls += 1
                self.stats.total_offered -= 1  # will be re-offered
                break
            if self.queue.full:
                if self.lossy:
                    # Drop-oldest: shed the stalest buffered event so
                    # this cycle's push lands and commit never stalls.
                    self.queue.pop()
                    self.stats.dropped += 1
                else:
                    self.record_full_stall()
                    self.stats.total_offered -= 1  # will be re-offered
                    break
            self.queue.push(log)
            self.stats.total_accepted += 1
            pushed_this_cycle = True
            accepted_ports += 1
        return accepted_ports

"""The assembled CFI stage: filters → queue controller → queue → writer.

This is the block Figure 1 draws inside the CVA6 box.  The commit stage
offers every retiring scoreboard entry; the stage filters them, pushes
CFI-relevant commit logs into the queue (stalling the core per the
queue-controller rules) and drains the queue through the log writer.
"""

from __future__ import annotations

from typing import Optional

from repro.core.commit_log import CommitLog
from repro.core.config import TitanCfiConfig
from repro.core.filter import CfiFilter
from repro.core.log_writer import LogWriter
from repro.core.queue import CfiQueue, QueueController
from repro.cva6.scoreboard import ScoreboardEntry
from repro.soc.axi import AxiXbar
from repro.soc.mailbox import Mailbox


class CfiStage:
    """TitanCFI's addition to the CVA6 commit stage (paper Fig. 1, right).

    Args:
        axi: host-domain crossbar (mailbox path).
        mailbox: the CFI mailbox device.
        config: stage parameters.
        hart_id: the application hart this stage instruments (multi-hart
            SoCs stamp out one stage per hart).
        arbiter: shared doorbell arbiter gating the mailbox between
            stages; ``None`` (single-hart) preserves the historic FSM
            byte-for-byte.
        tag_hart_id: stamp ``hart_id`` into the spare payload byte of
            every transmitted log (multi-hart wire format).
    """

    def __init__(self, axi: AxiXbar, mailbox: Mailbox, config: Optional[TitanCfiConfig] = None,
                 hart_id: int = 0, arbiter=None, tag_hart_id: bool = False):
        self.config = config or TitanCfiConfig()
        self.hart_id = hart_id
        self.filters = [CfiFilter(i) for i in range(self.config.commit_ports)]
        self.queue = CfiQueue(self.config.queue_depth)
        self.controller = QueueController(self.queue, lossy=self.config.lossy)
        self.writer = LogWriter(
            axi,
            mailbox,
            self.config.mailbox_base,
            self.queue,
            raise_on_violation=self.config.raise_on_violation,
            hart_id=hart_id,
            arbiter=arbiter,
            tag_hart_id=tag_hart_id,
        )
        # The writer's clock methods, bound directly: the co-simulator
        # calls them every scheduler iteration, and a delegating frame
        # is measurable.  ``tick()`` advances the log writer one cycle,
        # ``skippable_cycles()`` is how many cycles it can fast-forward
        # with no state change, and ``skip(n)`` applies such a jump
        # (see :class:`~repro.core.log_writer.LogWriter`).
        self.tick = self.writer.tick
        self.skippable_cycles = self.writer.skippable_cycles
        self.skip = self.writer.skip

    def examine_port(self, port: int, entry: Optional[ScoreboardEntry]) -> Optional[CommitLog]:
        """Run one port's filter only (no queue push).

        The commit stage uses this to obtain the commit log once, then
        replays :meth:`try_push` while stalled — so filter statistics
        count each instruction exactly once.
        """
        return self.filters[port].examine(entry)

    def try_push(self, log: CommitLog) -> bool:
        """Attempt a single-port push through the queue controller."""
        return self.controller.arbitrate([log]) == 1

    def note_batch_examined(self, count: int) -> None:
        """Bulk-account ``count`` not-selected retirements (batched path).

        Exactly equivalent to ``count`` calls to :meth:`examine_port`
        with instructions the filter examines but does not select: only
        the port-0 ``examined`` counter moves (``selected`` and the
        per-kind counts are untouched, and nothing enters the queue).
        """
        self.filters[0].stats.examined += count

    @property
    def quiescent(self) -> bool:
        """True when no log is queued or in flight."""
        return self.writer.parked

    @property
    def violation(self):
        """Latched CFI fault, if any."""
        return self.writer.fault

    def stats_summary(self) -> dict:
        """Aggregated statistics for reports and tests."""
        return {
            "examined": sum(f.stats.examined for f in self.filters),
            "selected": sum(f.stats.selected for f in self.filters),
            "full_stalls": self.controller.stats.full_stalls,
            "conflict_stalls": self.controller.stats.conflict_stalls,
            "dropped": self.controller.stats.dropped,
            "logs_sent": self.writer.stats.logs_sent,
            "checks_completed": self.writer.stats.checks_completed,
            "violations": self.writer.stats.violations,
            "mean_check_latency": self.writer.stats.mean_check_latency,
            "first_violation_latency": self.writer.stats.first_violation_latency,
            "queue_high_water": self.queue.high_water,
        }

"""The assembled CFI stage: filter → queue → log writer.

This is the block Figure 1 draws inside the CVA6 box.  The commit stage
hands every retiring step to the stage's filter, pushes the CFI-relevant
commit logs into the queue (whose push rule is the queue controller's:
a full queue stalls the core) and the log writer drains the queue.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import TitanCfiConfig
from repro.core.filter import CfiFilter
from repro.core.log_writer import LogWriter
from repro.core.queue import CfiQueue
from repro.soc.axi import AxiXbar
from repro.soc.mailbox import DoorbellArbiter, Mailbox


class CfiStage:
    """TitanCFI's addition to the CVA6 commit stage (paper Fig. 1, right).

    Args:
        axi: host-domain crossbar (mailbox path).
        mailbox: the CFI mailbox device.
        arbiter: the doorbell arbiter gating the mailbox between the
            SoC's stages (one port per application hart).
        config: stage parameters.
        hart_id: the application hart this stage instruments (an
            N-hart SoC stamps out one stage per hart).
    """

    def __init__(self, axi: AxiXbar, mailbox: Mailbox, arbiter: DoorbellArbiter,
                 config: Optional[TitanCfiConfig] = None, hart_id: int = 0):
        self.config = config or TitanCfiConfig()
        self.hart_id = hart_id
        self.filter = CfiFilter()
        self.queue = CfiQueue(self.config.queue_depth, lossy=self.config.lossy)
        self.writer = LogWriter(
            axi,
            mailbox,
            self.config.mailbox_base,
            self.queue,
            arbiter,
            raise_on_violation=self.config.raise_on_violation,
            hart_id=hart_id,
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
            "examined": self.filter.stats.examined,
            "selected": self.filter.stats.selected,
            "full_stalls": self.queue.full_stalls,
            "dropped": self.queue.dropped,
            "logs_sent": self.writer.stats.logs_sent,
            "checks_completed": self.writer.stats.checks_completed,
            "violations": self.writer.stats.violations,
            "mean_check_latency": self.writer.stats.mean_check_latency,
            "first_violation_latency": self.writer.stats.first_violation_latency,
            "queue_high_water": self.queue.high_water,
        }

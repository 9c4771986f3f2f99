"""The CVA6 commit stage, extended with the TitanCFI tap (paper §IV-B).

The commit stage wraps the host hart.  Each time the co-simulator lets
it advance, it retires one instruction, runs the retiring step through
the CFI stage's filter, and — when the CFI queue cannot accept a
control-flow log — *inhibits commit*: the hart is held (a skid buffer
keeps the filtered log) and stall cycles accumulate until the queue
drains.  This reproduces the paper's queue-full stall behaviour at
instruction granularity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.hart.core import Hart, StepResult

if TYPE_CHECKING:  # break the core ↔ cva6 import cycle (types only)
    from repro.core.commit_log import CommitLog
    from repro.core.stage import CfiStage


class CommitStage:
    """Commit-side binding between a host hart and the CFI stage.

    Args:
        hart: the CVA6 instruction-set simulator.
        cfi_stage: the TitanCFI stage, or ``None`` for an unprotected
            baseline core (used to measure raw execution time).
    """

    def __init__(self, hart: Hart, cfi_stage: "Optional[CfiStage]" = None):
        self.hart = hart
        self.cfi = cfi_stage
        self.stall_cycles = 0
        self._skid: "Optional[CommitLog]" = None
        self._blocked = False

    @property
    def stalled(self) -> bool:
        """True while commit is inhibited by the CFI queue."""
        return self._skid is not None or self._blocked

    def stall_skippable(self) -> bool:
        """True when :meth:`try_advance` would provably keep returning
        ``None`` until the CFI stage next changes state.

        Used by the co-simulator's clock skipping: a blocked commit
        waits on writer quiescence, a skidded commit waits on a queue
        slot, and both can only be released by a log-writer transition.
        """
        if self.cfi is None:
            return False
        if self._blocked:
            return not self.cfi.quiescent
        if self._skid is not None:
            # A lossy queue accepts the skidded log on the very next
            # cycle (drop-oldest), so the stall is never skippable.
            return self.cfi.queue.full and not self.cfi.queue.lossy
        return False

    def note_batch_retired(self, count: int) -> None:
        """Account ``count`` instructions retired by a batched window.

        The batched fast path (:meth:`repro.hart.core.Hart.run_n`) only
        executes instructions the CFI filter would *examine but never
        select* — plain ops, branches, direct jumps — so replaying the
        per-cycle path's bookkeeping is one bulk increment of the
        filter's ``examined`` statistic.
        """
        if self.cfi is not None:
            self.cfi.filter.stats.examined += count

    def skip_stall(self, cycles: int) -> None:
        """Account ``cycles`` inhibited cycles in one jump.

        Exact bulk replay of that many stalled :meth:`try_advance`
        calls: stall cycles accrue, and a skidded log re-offered against
        a full queue counts one full stall per cycle, as the queue's
        push would have.
        """
        self.stall_cycles += cycles
        if self._skid is not None:
            self.cfi.queue.full_stalls += cycles

    def try_advance(self) -> Optional[StepResult]:
        """Advance by one instruction if commit is not inhibited.

        Returns the hart's step result, or ``None`` for a stall cycle
        (the caller charges exactly one cycle for the latter).
        """
        if self._blocked:
            # Blocking mode: wait for the in-flight check to finish.
            if not self.cfi.quiescent:
                self.stall_cycles += 1
                return None
            self._blocked = False

        if self._skid is not None:
            if not self.cfi.queue.push(self._skid):
                self.stall_cycles += 1
                return None
            # The queue accepted the held log this cycle; the stalled
            # instruction retires now and the pipeline resumes next cycle
            # (keeps the one-push-per-cycle queue invariant).
            self._skid = None
            self.stall_cycles += 1
            if self.cfi.config.blocking:
                self._blocked = True
            return None

        result = self.hart.step()
        if self.cfi is not None:
            log = self.cfi.filter.examine(result)
            if log is not None:
                if not self.cfi.queue.push(log):
                    # Queue full: hold commit of this instruction until
                    # a slot frees (the paper's "inhibits the CVA6
                    # commit stage, which eventually results in
                    # stalling the core").
                    self._skid = log
                elif self.cfi.config.blocking:
                    self._blocked = True
        return result

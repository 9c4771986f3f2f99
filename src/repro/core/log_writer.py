"""The CFI log writer FSM (paper §IV-B3).

The log writer pops commit logs from the CFI queue and transmits them to
the CFI mailbox over the SoC AXI interconnect, splitting the 224-bit
packet into 64-bit beats.  The final transaction sets the doorbell;
the FSM then parks in a wait state until the RoT firmware asserts the
completion wire, reads the verdict back from the mailbox, and raises an
exception on any control-flow violation.

States::

    IDLE ──queue non-empty & mailbox ready──▶ WRITE (payload + doorbell)
    WRITE ──last beat sent──────────────────▶ WAIT
    WAIT  ──completion wire────────────────▶ CHECK (read verdict)
    CHECK ──verdict ok──────────────────────▶ IDLE
          └─verdict violation───────────────▶ fault (exception to commit)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.core.commit_log import CommitLog
from repro.core.queue import CfiQueue
from repro.errors import CfiViolation
from repro.soc.axi import AxiXbar
from repro.soc.mailbox import DoorbellArbiter, Mailbox, VERDICT_OK


class WriterState(enum.Enum):
    """Log-writer FSM states."""

    IDLE = "idle"
    WRITE = "write"
    WAIT = "wait"
    CHECK = "check"


@dataclass
class WriterStats:
    """Lifetime statistics of the log writer."""

    logs_sent: int = 0
    checks_completed: int = 0
    violations: int = 0
    busy_cycles: int = 0
    wait_cycles: int = 0
    check_latencies: List[int] = field(default_factory=list)
    #: Latency of the check that flagged the *first* violation — stable
    #: even when violations are latched (``raise_on_violation=False``)
    #: and later benign checks keep appending to ``check_latencies``.
    first_violation_latency: Optional[int] = None

    @property
    def mean_check_latency(self) -> float:
        """Average pop→verdict latency in cycles (0 when no checks ran)."""
        if not self.check_latencies:
            return 0.0
        return sum(self.check_latencies) / len(self.check_latencies)


class LogWriter:
    """Cycle-stepped log-writer FSM.

    Args:
        axi: host-domain crossbar used for mailbox traffic.
        mailbox: the CFI mailbox device (for the completion wire and
            ready signal, which are direct wires, not bus reads).
        mailbox_base: AXI address of the mailbox data file.
        queue: the CFI queue to drain.
        arbiter: the :class:`~repro.soc.mailbox.DoorbellArbiter` gating
            the one CFI mailbox between the SoC's writers (a one-hart
            SoC's has one port, whose idle grant is combinational).
        master: AXI master identity of the CFI stage.
        raise_on_violation: raise :class:`CfiViolation` from
            :meth:`tick` on a bad verdict (else latch :attr:`fault`).
        hart_id: source hart of this writer's commit stream (an N-hart
            SoC instantiates one writer per application hart).  Every
            transmission carries it in the spare payload byte (offset
            28), so the monitor can demultiplex per-hart contexts.
    """

    def __init__(
        self,
        axi: AxiXbar,
        mailbox: Mailbox,
        mailbox_base: int,
        queue: CfiQueue,
        arbiter: DoorbellArbiter,
        master: str = "cfi-stage",
        raise_on_violation: bool = True,
        hart_id: int = 0,
    ):
        self.axi = axi
        self.mailbox = mailbox
        self.mailbox_base = mailbox_base
        self.queue = queue
        self.master = master
        self.raise_on_violation = raise_on_violation
        self.hart_id = hart_id
        self.arbiter = arbiter
        self.state = WriterState.IDLE
        self.stats = WriterStats()
        self.fault: Optional[CfiViolation] = None
        self.current_log: Optional[CommitLog] = None
        self._countdown = 0
        self._check_started = 0
        self.now = 0
        #: Fault controller hook (:mod:`repro.faults`); ``None`` keeps
        #: every code path below byte-identical to the fault-free FSM.
        self.faults = None
        self._event_index = 0
        self._redeliver: Optional[CommitLog] = None
        self._dup_pending = False
        # Adversarial (compromised-hart) state, driven by the fault
        # controller: a one-shot forged source-hart id, a countdown of
        # fabricated events still to inject, and the grant-squatting
        # latch.  All stay inert without an adversarial fault plan.
        self._tx_tag: Optional[int] = None
        self._flood_pending = 0
        self._hold_pending = False
        self._held = False

    # -- helpers -------------------------------------------------------------

    def _gated(self) -> bool:
        """True when the monitor quarantined this writer off the shared
        channel (its acquires are refused for good — the FSM freezes)."""
        return (
            self.arbiter.quarantine_active
            and self.arbiter.quarantined(self.hart_id)
        )

    def _start_transmission(self, log: CommitLog) -> None:
        self.current_log = log
        self._check_started = self.now
        # The 28-byte commit log and its source hart id, in the first
        # spare byte of the 32-byte data file (a hart-spoof fault forges
        # it for one transmission), move as 4 beats; the doorbell write
        # is a separate single-beat transaction (the paper's "final AXI
        # transaction sets the doorbell interrupt register").
        tag = self.hart_id if self._tx_tag is None else self._tx_tag
        self._tx_tag = None
        payload = log.pack() + bytes((tag, 0, 0, 0))
        payload_cycles = self.axi.write(self.master, self.mailbox_base, payload)
        doorbell_cycles = self.axi.timings.transaction_cycles(8)
        self._countdown = payload_cycles + doorbell_cycles
        self.state = WriterState.WRITE

    def _begin_write(self) -> None:
        log = self.queue.pop()
        if self.faults is not None:
            n = self._event_index
            self._event_index += 1
            drop, dup, mask = self.faults.transport_actions(n)
            if drop:
                # The event is lost in transit: the pop consumed this
                # cycle, the FSM stays IDLE, nothing reaches the mailbox
                # — and the channel grant goes straight back so peer
                # writers cannot be starved by a lossy link.
                self.arbiter.release(self.hart_id)
                return
            if mask:
                log = replace(log, target=(log.target ^ mask) & ((1 << 64) - 1))
            if dup:
                self._dup_pending = True
            spoof, flood, hold = self.faults.adversarial_actions(n)
            if spoof is not None:
                self._tx_tag = spoof
            if flood:
                self._flood_pending += flood
            if hold:
                self._hold_pending = True
        self._start_transmission(log)

    def _begin_redeliver(self) -> None:
        log = self._redeliver
        assert log is not None
        self._redeliver = None
        # A replayed doorbell carries the already-transmitted event
        # verbatim (including any corruption); it consumes no queue
        # entry and no fresh event index.
        self._start_transmission(log)

    def _ring_doorbell(self) -> None:
        offset = self.mailbox.layout.doorbell_offset
        self.axi.write_int(self.master, self.mailbox_base + offset, 8, 1)
        self.state = WriterState.WAIT

    def _begin_check(self) -> None:
        # Completion is a wire into the commit stage: consume it, then
        # fetch the verdict from the first mailbox entry over AXI.
        self.mailbox.completion_pending = False
        self._countdown = self.axi.timings.transaction_cycles(8)
        self.state = WriterState.CHECK

    def _finish_check(self) -> None:
        verdict, _ = self.axi.read_int(self.master, self.mailbox_base, 8)
        log = self.current_log
        self.current_log = None
        self.stats.checks_completed += 1
        self.stats.check_latencies.append(self.now - self._check_started)
        self.state = WriterState.IDLE
        if self._hold_pending:
            # Arbiter-hold: the compromised writer finishes its own
            # handshake but never releases the channel grant, squatting
            # on the shared mailbox until the monitor's watchdog evicts
            # it (``DoorbellArbiter.force_release``).
            self._hold_pending = False
            self._held = True
        else:
            self.arbiter.release(self.hart_id)
        if self._dup_pending:
            self._redeliver = log
            self._dup_pending = False
        elif self._flood_pending > 0:
            # Doorbell-flood: fabricate a control-flow event out of thin
            # air — a forged ``ret`` to an attacker-chosen address — and
            # replay it as the next transmission.  Chained through the
            # redeliver slot so each burst member occupies the channel
            # for a full handshake, starving peers of the arbiter.
            self._flood_pending -= 1
            assert log is not None
            self._redeliver = replace(
                log,
                encoding=0x0000_8067,  # jalr x0, 0(ra) — a return
                next_address=(log.pc + 4) & ((1 << 64) - 1),
                target=0xDEAD_BEE0,
            )
        if verdict != VERDICT_OK:
            self.stats.violations += 1
            if self.stats.first_violation_latency is None:
                self.stats.first_violation_latency = self.stats.check_latencies[-1]
            assert log is not None
            violation = CfiViolation(
                kind=log.kind.value,
                expected=None,
                actual=log.target,
                pc=log.pc,
            )
            self.fault = violation
            if self.raise_on_violation:
                raise violation

    # -- cycle step -------------------------------------------------------------

    def tick(self) -> None:
        """Advance the FSM by one cycle."""
        self.now += 1
        if self.state is WriterState.IDLE:
            if self._held or self._gated():
                # Squatting on the grant (arbiter-hold) or quarantined
                # off the channel: the FSM is frozen — only the
                # monitor's watchdog / quarantine release could ever
                # change that, and neither un-freezes a compromised
                # writer within a run.
                return
            if self._redeliver is not None:
                if self.arbiter.acquire(self.hart_id) and self.mailbox.ready:
                    self._begin_redeliver()
            elif not self.queue.empty:
                if self.arbiter.acquire(self.hart_id) and self.mailbox.ready:
                    self._begin_write()
            return
        if self.state is WriterState.WRITE:
            self.stats.busy_cycles += 1
            self._countdown -= 1
            if self._countdown <= 0:
                self._ring_doorbell()
                self.stats.logs_sent += 1
            return
        if self.state is WriterState.WAIT:
            self.stats.wait_cycles += 1
            if self.mailbox.completion_pending:
                self._begin_check()
            return
        if self.state is WriterState.CHECK:
            self.stats.busy_cycles += 1
            self._countdown -= 1
            if self._countdown <= 0:
                self._finish_check()
            return

    @property
    def idle(self) -> bool:
        """True when no check is in flight."""
        return self.state is WriterState.IDLE

    @property
    def parked(self) -> bool:
        """True when the FSM provably cannot act on its own: idle with
        an empty queue.  While parked, any number of ticks are pure
        ``now`` advances — the headroom query the batched co-simulator
        relies on (a window that enqueues nothing keeps the writer
        parked for its whole span).
        """
        if self.state is not WriterState.IDLE:
            return False
        if self._held or self._gated():
            # Frozen by the defense layer: provably inert regardless of
            # queue contents (ticks are pure ``now`` advances).
            return True
        return self.queue.empty and self._redeliver is None

    # -- clock skipping ------------------------------------------------------

    #: Sentinel for "no state change can originate here" (the FSM is
    #: waiting on an external signal, so someone else bounds the skip).
    UNBOUNDED = 1 << 62

    def skippable_cycles(self) -> int:
        """Cycles :meth:`tick` can be fast-forwarded without any FSM
        state transition (counters still advance — see :meth:`skip`).

        Returns 0 when the very next tick does something interesting,
        and :data:`UNBOUNDED` when the FSM is parked on an external
        signal (doorbell service / queue push), which only another
        component's activity can change.
        """
        if self.state is WriterState.IDLE:
            if self._held or self._gated():
                # Frozen (grant-squatting or quarantined): no tick of
                # this FSM can transition; the monitor's watchdog is the
                # only party with a pending event, and the policy host
                # bounds the batched window by it.
                return self.UNBOUNDED
            if self._redeliver is None and self.queue.empty:
                return self.UNBOUNDED
            owner = self.arbiter.owner
            if owner is not None and owner != self.hart_id:
                # Contended channel: once our request is registered,
                # only the owner's release (their FSM activity) can
                # grant us — an external signal.  A writer that has
                # just released the grant with traffic still queued
                # registers its request on its next tick.
                if not self.arbiter.requesting(self.hart_id):
                    return 0
                return self.UNBOUNDED
            # Owner is ``self`` when ``release`` handed us the grant
            # while we were IDLE (round-robin rotation): the very next
            # tick starts our transmission, so it must not be skipped.
            return 0 if self.mailbox.ready else self.UNBOUNDED
        if self.state is WriterState.WAIT:
            return 0 if self.mailbox.completion_pending else self.UNBOUNDED
        # WRITE / CHECK: the countdown's final cycle transitions.
        return max(0, self._countdown - 1)

    def skip(self, cycles: int) -> None:
        """Advance ``cycles`` pure-counter ticks in one jump.

        The caller must not exceed :meth:`skippable_cycles`; per-cycle
        statistics (``busy_cycles``, ``wait_cycles``, ``now``, the
        countdown) advance exactly as ``cycles`` calls to :meth:`tick`
        would have.
        """
        if cycles <= 0:
            return
        self.now += cycles
        if self.state is WriterState.WAIT:
            self.stats.wait_cycles += cycles
        elif self.state is not WriterState.IDLE:
            self.stats.busy_cycles += cycles
            self._countdown -= cycles

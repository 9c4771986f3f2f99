"""Log-writer FSM tests: the §IV-B3 state machine against a live mailbox."""

import pytest

from repro.core.commit_log import CommitLog
from repro.core.log_writer import LogWriter, WriterState
from repro.core.queue import CfiQueue
from repro.errors import CfiViolation
from repro.isa.encode import encode_i, encode_j
from repro.isa import opcodes as op
from repro.mem.map import MemoryMap
from repro.soc.axi import AxiXbar
from repro.soc.mailbox import (
    VERDICT_OK,
    VERDICT_VIOLATION,
    CfiMailbox,
    DoorbellArbiter,
)

MAILBOX_BASE = 0x9000_0000


def make_writer(raise_on_violation=True, queue_depth=4):
    bus = MemoryMap("host")
    mailbox = CfiMailbox()
    bus.add(MAILBOX_BASE, mailbox, name="cfi-mailbox")
    axi = AxiXbar(bus)
    queue = CfiQueue(queue_depth)
    writer = LogWriter(axi, mailbox, MAILBOX_BASE, queue, DoorbellArbiter(1),
                       raise_on_violation=raise_on_violation)
    return writer, queue, mailbox


def call_log(pc=0x1000):
    return CommitLog(pc=pc, encoding=encode_j(op.OP_JAL, 1, 0x40),
                     next_address=pc + 4, target=pc + 0x40)


class TestFsmProgression:
    def test_idle_with_empty_queue(self):
        writer, _, _ = make_writer()
        writer.tick()
        assert writer.state is WriterState.IDLE

    def test_write_phase_rings_doorbell(self):
        writer, queue, mailbox = make_writer()
        queue.push(call_log())
        writer.tick()  # pops, enters WRITE
        assert writer.state is WriterState.WRITE
        for _ in range(100):
            writer.tick()
            if writer.state is WriterState.WAIT:
                break
        assert writer.state is WriterState.WAIT
        assert mailbox.doorbell_pending
        assert writer.stats.logs_sent == 1

    def test_payload_lands_in_mailbox(self):
        writer, queue, mailbox = make_writer()
        log = call_log()
        queue.push(log)
        while writer.state is not WriterState.WAIT:
            writer.tick()
        assert CommitLog.unpack(mailbox.collect()) == log

    def test_completion_releases_fsm(self):
        writer, queue, mailbox = make_writer()
        queue.push(call_log())
        while writer.state is not WriterState.WAIT:
            writer.tick()
        mailbox.respond(VERDICT_OK)
        for _ in range(100):
            writer.tick()
            if writer.state is WriterState.IDLE:
                break
        assert writer.state is WriterState.IDLE
        assert writer.stats.checks_completed == 1

    def test_wait_cycles_accumulate(self):
        writer, queue, mailbox = make_writer()
        queue.push(call_log())
        while writer.state is not WriterState.WAIT:
            writer.tick()
        for _ in range(10):
            writer.tick()
        assert writer.stats.wait_cycles >= 10


class TestVerdicts:
    def _run_one(self, verdict, raise_on_violation=True):
        writer, queue, mailbox = make_writer(raise_on_violation)
        queue.push(call_log())
        while writer.state is not WriterState.WAIT:
            writer.tick()
        mailbox.respond(verdict)
        for _ in range(100):
            writer.tick()
            if writer.state is WriterState.IDLE:
                break
        return writer

    def test_ok_verdict_no_fault(self):
        writer = self._run_one(VERDICT_OK)
        assert writer.fault is None
        assert writer.stats.violations == 0

    def test_violation_raises(self):
        writer, queue, mailbox = make_writer(raise_on_violation=True)
        queue.push(call_log())
        while writer.state is not WriterState.WAIT:
            writer.tick()
        mailbox.respond(VERDICT_VIOLATION)
        with pytest.raises(CfiViolation):
            for _ in range(100):
                writer.tick()

    def test_violation_latched_when_not_raising(self):
        writer = self._run_one(VERDICT_VIOLATION, raise_on_violation=False)
        assert writer.fault is not None
        assert writer.stats.violations == 1

    def test_violation_carries_log_info(self):
        writer = self._run_one(VERDICT_VIOLATION, raise_on_violation=False)
        assert writer.fault.pc == 0x1000
        assert writer.fault.kind == "call"


class TestBackToBack:
    def test_multiple_logs_processed_fifo(self):
        writer, queue, mailbox = make_writer()
        for pc in (0x1000, 0x2000, 0x3000):
            queue.push(call_log(pc))
        seen = []
        for _ in range(2000):
            writer.tick()
            if writer.state is WriterState.WAIT and mailbox.doorbell_pending:
                seen.append(CommitLog.unpack(mailbox.collect()).pc)
                mailbox.respond(VERDICT_OK)
            if writer.stats.checks_completed == 3:
                break
        assert seen == [0x1000, 0x2000, 0x3000]
        assert writer.stats.checks_completed == 3

    def test_latency_statistics(self):
        writer, queue, mailbox = make_writer()
        queue.push(call_log())
        for _ in range(2000):
            writer.tick()
            if writer.state is WriterState.WAIT and mailbox.doorbell_pending:
                mailbox.respond(VERDICT_OK)
            if writer.stats.checks_completed:
                break
        assert writer.stats.mean_check_latency > 0
        assert len(writer.stats.check_latencies) == 1


class TestBulkTick:
    """skip()/skippable_cycles() must be tick-for-tick exact."""

    def _stats_key(self, writer):
        s = writer.stats
        return (writer.state, writer.now, writer._countdown,
                s.logs_sent, s.checks_completed, s.busy_cycles,
                s.wait_cycles, tuple(s.check_latencies))

    def _drive(self, writer, mailbox, cycles, advance):
        """Run ``cycles`` ticks, answering every doorbell; ``advance``
        consumes (writer, n) however it likes but must total n==1."""
        for _ in range(cycles):
            advance(writer)
            if writer.state is WriterState.WAIT and mailbox.doorbell_pending:
                mailbox.respond(VERDICT_OK)

    def test_skip_matches_ticks_through_full_handshakes(self):
        per_cycle, q1, mb1 = make_writer()
        bulk, q2, mb2 = make_writer()
        for pc in (0x1000, 0x2000, 0x3000):
            q1.push(call_log(pc))
            q2.push(call_log(pc))

        def tick_once(writer):
            writer.tick()

        self._drive(per_cycle, mb1, 300, tick_once)
        # Bulk variant: interleave skip() jumps with single ticks so
        # every cycle is covered exactly once.
        consumed = 0
        while consumed < 300:
            skippable = bulk.skippable_cycles()
            budget = 300 - consumed
            jump = min(skippable, budget - 1) if budget > 1 else 0
            if jump > 0:
                bulk.skip(jump)
                consumed += jump
            bulk.tick()
            consumed += 1
            if bulk.state is WriterState.WAIT and mb2.doorbell_pending:
                mb2.respond(VERDICT_OK)
        assert self._stats_key(per_cycle) == self._stats_key(bulk)
        assert per_cycle.stats.checks_completed == 3

    def test_skippable_cycles_bounds(self):
        writer, queue, mailbox = make_writer()
        # IDLE with empty queue: unbounded (nothing can happen here).
        assert writer.skippable_cycles() == LogWriter.UNBOUNDED
        queue.push(call_log())
        # IDLE with work ready: next tick transitions.
        assert writer.skippable_cycles() == 0
        writer.tick()  # -> WRITE with a countdown
        assert writer.state is WriterState.WRITE
        assert writer.skippable_cycles() == writer._countdown - 1

    def test_contended_writer_is_unbounded_once_it_has_requested(self):
        """A peer holds the shared channel: only the peer's release can
        grant this writer, but its next tick must still register the
        request that release looks for."""
        writer, queue, _ = make_writer()
        writer.arbiter = arbiter = DoorbellArbiter(2)
        writer.hart_id = 1
        assert arbiter.acquire(0)
        queue.push(call_log())
        assert writer.skippable_cycles() == 0
        writer.tick()
        assert arbiter.requesting(1) and writer.state is WriterState.IDLE
        assert writer.skippable_cycles() == LogWriter.UNBOUNDED
        arbiter.release(0)
        assert arbiter.owner == 1
        assert writer.skippable_cycles() == 0


class TestAxiTraffic:
    def test_writer_is_its_own_master(self):
        writer, queue, mailbox = make_writer()
        queue.push(call_log())
        while writer.state is not WriterState.WAIT:
            writer.tick()
        assert writer.axi.stats("cfi-stage").writes >= 2  # payload + doorbell

    def test_payload_beats(self):
        """A 28-byte log, padded to the 32-byte data file by its hart-id
        byte, must cost 4 data beats on the 64-bit bus."""
        writer, _, _ = make_writer()
        assert writer.axi.timings.beats_for(28) == 4
        assert writer.axi.timings.beats_for(32) == 4

"""CFI filter and queue-controller tests (§IV-B1/B2)."""

import pytest

from repro.core.commit_log import CommitLog
from repro.core.filter import CfiFilter
from repro.core.queue import CfiQueue, QueueController
from repro.cva6.scoreboard import ScoreboardEntry
from repro.isa.decode import decode
from repro.isa.encode import encode_i, encode_j
from repro.isa import opcodes as op


def entry_for(word, pc=0x1000, xlen=64, taken=True, target=None):
    insn = decode(word, xlen=xlen)
    fall = pc + 4
    return ScoreboardEntry(
        pc=pc, insn=insn, fall_through=fall,
        target=target if target is not None else (pc + 0x40 if taken else fall),
        taken=taken,
    )


CALL_WORD = encode_j(op.OP_JAL, 1, 0x40)
RET_WORD = encode_i(op.OP_JALR, 0, 0, 1, 0)
DIRECT_JUMP_WORD = encode_j(op.OP_JAL, 0, 0x40)
ADD_WORD = 0x002081B3


class TestFilter:
    def test_call_selected(self):
        log = CfiFilter().examine(entry_for(CALL_WORD))
        assert log is not None
        assert log.pc == 0x1000
        assert log.next_address == 0x1004
        assert log.target == 0x1040

    def test_return_selected(self):
        assert CfiFilter().examine(entry_for(RET_WORD)) is not None

    def test_direct_jump_not_selected(self):
        assert CfiFilter().examine(entry_for(DIRECT_JUMP_WORD)) is None

    def test_alu_not_selected(self):
        assert CfiFilter().examine(entry_for(ADD_WORD, taken=False)) is None

    def test_none_entry_ignored(self):
        cfi_filter = CfiFilter()
        assert cfi_filter.examine(None) is None
        assert cfi_filter.stats.examined == 0

    def test_invalid_entry_ignored(self):
        entry = entry_for(CALL_WORD)
        invalid = ScoreboardEntry(
            pc=entry.pc, insn=entry.insn, fall_through=entry.fall_through,
            target=entry.target, taken=entry.taken, valid=False,
        )
        assert CfiFilter().examine(invalid) is None

    def test_call_log_carries_encoding(self):
        """The log carries the instruction's 32-bit encoding (§IV-B1)."""
        word = encode_i(op.OP_JALR, 0, 1, 1, 0)  # jalr ra, 0(ra)
        entry = entry_for(word, xlen=32)
        log = CfiFilter().examine(entry)
        assert log is not None
        assert log.encoding == entry.insn.raw == word
        assert log.next_address == 0x1004

    def test_stats(self):
        cfi_filter = CfiFilter()
        cfi_filter.examine(entry_for(CALL_WORD))
        cfi_filter.examine(entry_for(RET_WORD))
        cfi_filter.examine(entry_for(ADD_WORD, taken=False))
        assert cfi_filter.stats.examined == 3
        assert cfi_filter.stats.selected == 2
        assert cfi_filter.stats.by_kind == {"call": 1, "return": 1}


def make_log(pc=0x1000):
    return CommitLog(pc=pc, encoding=CALL_WORD, next_address=pc + 4, target=pc + 0x40)


class TestQueueController:
    def test_single_push(self):
        queue = CfiQueue(4)
        controller = QueueController(queue)
        accepted = controller.arbitrate([make_log(), None])
        assert accepted == 2
        assert queue.occupancy == 1

    def test_non_cf_ports_flow_through(self):
        controller = QueueController(CfiQueue(4))
        assert controller.arbitrate([None, None]) == 2

    def test_dual_cf_retirement_stalls_second_port(self):
        queue = CfiQueue(4)
        controller = QueueController(queue)
        accepted = controller.arbitrate([make_log(0x1000), make_log(0x2000)])
        assert accepted == 1
        assert queue.occupancy == 1
        assert controller.stats.conflict_stalls == 1

    def test_full_queue_stalls(self):
        queue = CfiQueue(1)
        controller = QueueController(queue)
        controller.arbitrate([make_log(0x1000)])
        accepted = controller.arbitrate([make_log(0x2000)])
        assert accepted == 0
        assert controller.stats.full_stalls == 1

    def test_replay_after_drain(self):
        queue = CfiQueue(1)
        controller = QueueController(queue)
        controller.arbitrate([make_log(0x1000)])
        assert controller.arbitrate([make_log(0x2000)]) == 0
        queue.pop()
        assert controller.arbitrate([make_log(0x2000)]) == 1

    def test_fifo_order_preserved(self):
        queue = CfiQueue(4)
        controller = QueueController(queue)
        for pc in (0x1000, 0x2000, 0x3000):
            controller.arbitrate([make_log(pc)])
        assert [queue.pop().pc for _ in range(3)] == [0x1000, 0x2000, 0x3000]

    def test_accounting(self):
        queue = CfiQueue(2)
        controller = QueueController(queue)
        controller.arbitrate([make_log(), None])
        controller.arbitrate([make_log()])
        assert controller.stats.total_offered == 2
        assert controller.stats.total_accepted == 2

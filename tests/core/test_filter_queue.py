"""CFI filter and queue-controller tests (§IV-B1/B2)."""

import pytest

from repro.core.commit_log import CommitLog
from repro.core.filter import CfiFilter
from repro.core.queue import CfiQueue
from repro.hart.core import Hart, StepEvent, StepResult
from repro.hart.ports import MapPort
from repro.hart.timing import Cva6Timing
from repro.isa.asm import Assembler
from repro.isa.decode import decode
from repro.isa.encode import encode_i, encode_j
from repro.isa import opcodes as op
from repro.mem.map import MemoryMap
from repro.mem.memory import Ram


def step_for(word, pc=0x1000, xlen=64, taken=True, target=None):
    """A step retiring ``word`` at ``pc``."""
    insn = decode(word, xlen=xlen)
    fall = pc + 4
    return StepResult(
        event=StepEvent.RETIRED, pc=pc, insn=insn, fall_through=fall,
        next_pc=target if target is not None else (pc + 0x40 if taken else fall),
        taken=taken, cycles=1,
    )


def step_results(source, count=20):
    """The hart's step results for ``source`` (assembled at 0)."""
    bus = MemoryMap("t")
    bus.add(0, Ram(0x10000), name="ram")
    program = Assembler(xlen=64).assemble(source, base=0)
    bus.write_bytes(0, program.data)
    hart = Hart(MapPort(bus), Cva6Timing(), xlen=64)
    results = []
    for _ in range(count):
        if hart.halted:
            break
        results.append(hart.step())
    return results


CALL_WORD = encode_j(op.OP_JAL, 1, 0x40)
RET_WORD = encode_i(op.OP_JALR, 0, 0, 1, 0)
DIRECT_JUMP_WORD = encode_j(op.OP_JAL, 0, 0x40)
ADD_WORD = 0x002081B3


class TestFilter:
    def test_call_selected(self):
        log = CfiFilter().examine(step_for(CALL_WORD))
        assert log is not None
        assert log.pc == 0x1000
        assert log.next_address == 0x1004
        assert log.target == 0x1040

    def test_return_selected(self):
        assert CfiFilter().examine(step_for(RET_WORD)) is not None

    def test_direct_jump_not_selected(self):
        assert CfiFilter().examine(step_for(DIRECT_JUMP_WORD)) is None

    def test_alu_not_selected(self):
        assert CfiFilter().examine(step_for(ADD_WORD, taken=False)) is None

    def test_trap_step_ignored(self):
        """A trap entry retires nothing, so it is not examined."""
        results = step_results("""
            la t0, handler
            csrw mtvec, t0
            .word 0xffffffff
        handler:
            ebreak
        """)
        trap = next(r for r in results if r.event is StepEvent.TRAP)
        cfi_filter = CfiFilter()
        assert cfi_filter.examine(trap) is None
        assert cfi_filter.stats.examined == 0

    def test_call_log_carries_encoding(self):
        """The log carries the instruction's 32-bit encoding (§IV-B1)."""
        word = encode_i(op.OP_JALR, 0, 1, 1, 0)  # jalr ra, 0(ra)
        step = step_for(word, xlen=32)
        log = CfiFilter().examine(step)
        assert log is not None
        assert log.encoding == step.insn.raw == word
        assert log.next_address == 0x1004

    def test_stats(self):
        cfi_filter = CfiFilter()
        cfi_filter.examine(step_for(CALL_WORD))
        cfi_filter.examine(step_for(RET_WORD))
        cfi_filter.examine(step_for(ADD_WORD, taken=False))
        assert cfi_filter.stats.examined == 3
        assert cfi_filter.stats.selected == 2
        assert cfi_filter.stats.by_kind == {"call": 1, "return": 1}


class TestFilterOnHartSteps:
    """The filter reads pc, encoding, fall-through and next pc straight
    from the hart's step results."""

    def test_retired_instruction_is_examined(self):
        results = step_results("addi a0, zero, 1\nebreak")
        cfi_filter = CfiFilter()
        assert cfi_filter.examine(results[0]) is None
        assert (cfi_filter.stats.examined, cfi_filter.stats.selected) == (1, 0)

    def test_call_log_has_target_and_fallthrough(self):
        results = step_results("call f\nebreak\nf: ret")
        log = CfiFilter().examine(results[0])
        assert log.pc == 0
        assert log.encoding == results[0].insn.raw
        assert log.next_address == 4
        assert log.target == 8  # symbol f

    def test_halt_is_not_examined(self):
        """The halting ``ebreak`` carries its instruction but does not
        retire."""
        results = step_results("ebreak")
        assert results[0].event is StepEvent.HALT
        assert results[0].insn is not None
        cfi_filter = CfiFilter()
        assert cfi_filter.examine(results[0]) is None
        assert cfi_filter.stats.examined == 0

    @pytest.mark.parametrize("value,taken", [(1, True), (0, False)])
    def test_branch_is_examined_not_selected(self, value, taken):
        results = step_results(
            f"""
            li a0, {value}
            bnez a0, out
            nop
            out: ebreak
            """
        )
        branch = next(r for r in results if r.insn and r.insn.mnemonic == "bne")
        assert branch.taken is taken
        assert (branch.next_pc != branch.fall_through) is taken
        cfi_filter = CfiFilter()
        assert cfi_filter.examine(branch) is None
        assert (cfi_filter.stats.examined, cfi_filter.stats.selected) == (1, 0)


def make_log(pc=0x1000):
    return CommitLog(pc=pc, encoding=CALL_WORD, next_address=pc + 4, target=pc + 0x40)


class TestQueueController:
    """The controller's push rule, as :meth:`CfiQueue.push` applies it."""

    def test_single_push(self):
        queue = CfiQueue(4)
        assert queue.push(make_log())
        assert len(queue) == 1

    def test_full_queue_stalls(self):
        queue = CfiQueue(1)
        queue.push(make_log(0x1000))
        assert not queue.push(make_log(0x2000))
        assert queue.full_stalls == 1

    def test_replay_after_drain(self):
        queue = CfiQueue(1)
        queue.push(make_log(0x1000))
        assert not queue.push(make_log(0x2000))
        queue.pop()
        assert queue.push(make_log(0x2000))

    def test_fifo_order_preserved(self):
        queue = CfiQueue(4)
        for pc in (0x1000, 0x2000, 0x3000):
            queue.push(make_log(pc))
        assert [queue.pop().pc for _ in range(3)] == [0x1000, 0x2000, 0x3000]

"""CFI stage + commit-stage integration (stall protocol, skid buffer)."""

from repro.core.config import TitanCfiConfig
from repro.core.stage import CfiStage
from repro.cva6.commit import CommitStage
from repro.hart.core import Hart, StepEvent, StepResult
from repro.hart.ports import MapPort
from repro.hart.timing import Cva6Timing
from repro.isa.asm import Assembler
from repro.isa.decode import decode
from repro.mem.map import MemoryMap
from repro.mem.memory import Ram
from repro.soc.axi import AxiXbar
from repro.soc.mailbox import VERDICT_OK, CfiMailbox, DoorbellArbiter

MAILBOX_BASE = 0x9000_0000
DRAM_BASE = 0x8000_0000


def build(queue_depth=2, blocking=False, program_source=None):
    bus = MemoryMap("host")
    bus.add(DRAM_BASE, Ram(0x10000), latency=1, name="dram")
    mailbox = CfiMailbox()
    bus.add(MAILBOX_BASE, mailbox, name="cfi-mailbox")
    axi = AxiXbar(bus)
    config = TitanCfiConfig(queue_depth=queue_depth, blocking=blocking,
                            mailbox_base=MAILBOX_BASE)
    stage = CfiStage(axi, mailbox, DoorbellArbiter(1), config)
    source = program_source or """
        main:
            call f
            call f
            call f
            ebreak
        f:
            ret
    """
    program = Assembler(xlen=64).assemble(source, base=DRAM_BASE)
    bus.write_bytes(program.base, program.data)
    hart = Hart(MapPort(bus), Cva6Timing(), xlen=64, reset_pc=DRAM_BASE)
    commit = CommitStage(hart, stage)
    return commit, stage, mailbox


def autorespond(mailbox):
    """Instant RoT: answer any pending doorbell with OK."""
    if mailbox.doorbell_pending:
        mailbox.respond(VERDICT_OK)


def run_to_halt(commit, stage, mailbox, max_cycles=100_000):
    cycles = 0
    debt = 0
    while cycles < max_cycles:
        cycles += 1
        if debt > 0:
            debt -= 1
        elif not commit.hart.halted:
            result = commit.try_advance()
            if result is not None and result.cycles > 1:
                debt = result.cycles - 1
        stage.tick()
        autorespond(mailbox)
        if commit.hart.halted and stage.quiescent and not commit.stalled:
            return cycles
    raise AssertionError("did not halt")


class TestCleanRuns:
    def test_all_cf_events_checked(self):
        commit, stage, mailbox = build(queue_depth=4)
        run_to_halt(commit, stage, mailbox)
        stats = stage.stats_summary()
        assert stats["selected"] == 6       # 3 calls + 3 returns
        assert stats["checks_completed"] == 6
        assert stats["violations"] == 0

    def test_filter_counts_each_instruction_once(self):
        commit, stage, mailbox = build(queue_depth=1)
        run_to_halt(commit, stage, mailbox)
        stats = stage.stats_summary()
        # 3 calls + 3 rets + other retired instructions, each examined once.
        assert stats["examined"] == commit.hart.instret

    def test_queue_depth_one_causes_stalls(self):
        commit, stage, mailbox = build(queue_depth=1)
        run_to_halt(commit, stage, mailbox)
        assert commit.stall_cycles > 0

    def test_deeper_queue_reduces_stalls(self):
        shallow, stage_s, mb_s = build(queue_depth=1)
        cycles_shallow = run_to_halt(shallow, stage_s, mb_s)
        deep, stage_d, mb_d = build(queue_depth=8)
        cycles_deep = run_to_halt(deep, stage_d, mb_d)
        assert deep.stall_cycles <= shallow.stall_cycles
        assert cycles_deep <= cycles_shallow


class TestBlockingMode:
    def test_blocking_stalls_every_cf(self):
        commit, stage, mailbox = build(queue_depth=1, blocking=True)
        run_to_halt(commit, stage, mailbox)
        # Every one of the 6 CF events must have paid a full check stall.
        assert commit.stall_cycles >= 6 * 5

    def test_blocking_slower_than_non_blocking(self):
        blocking, stage_b, mb_b = build(queue_depth=1, blocking=True)
        cycles_blocking = run_to_halt(blocking, stage_b, mb_b)
        plain, stage_p, mb_p = build(queue_depth=8, blocking=False)
        cycles_plain = run_to_halt(plain, stage_p, mb_p)
        assert cycles_blocking > cycles_plain


def retiring(word, pc=DRAM_BASE):
    """A step retiring ``word`` at ``pc`` (taken to pc + 0x40)."""
    return StepResult(event=StepEvent.RETIRED, pc=pc, insn=decode(word, xlen=64),
                      fall_through=pc + 4, next_pc=pc + 0x40, taken=True, cycles=1)


class TestExaminePort:
    """The commit stage examines each retirement once with the filter,
    then pushes (and re-pushes while stalled) separately."""

    def test_examine_does_not_queue(self):
        _, stage, _ = build()
        log = stage.filter.examine(retiring(0x040000EF))  # jal ra, +64
        assert log is not None
        assert stage.queue.empty
        assert stage.queue.push(log)
        assert len(stage.queue) == 1
        stats = stage.stats_summary()
        assert (stats["examined"], stats["selected"]) == (1, 1)

    def test_batch_examined_equals_unselected_examines(self):
        _, one_by_one, _ = build()
        batched_commit, batched, _ = build()
        for _ in range(3):
            assert one_by_one.filter.examine(retiring(0x00A50533)) is None  # add
        batched_commit.note_batch_retired(3)
        assert one_by_one.stats_summary() == batched.stats_summary()
        assert batched.stats_summary()["examined"] == 3

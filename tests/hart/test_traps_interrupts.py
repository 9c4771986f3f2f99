"""Trap, interrupt and WFI tests — the machinery the CFI firmware rides on."""

import pytest

from repro.hart.core import StepEvent
from repro.hart.timing import IbexTiming
from repro.isa import opcodes as op
from repro.isa.encode import encode_b, encode_j
from repro.isa.registers import reg_index
from tests.hart.conftest import RAM_BASE, RAM_SIZE, build_hart


def reg(hart, name):
    return hart.regs.read(reg_index(name))


TRAP_PROGRAM = """
    # Install the handler, enable external interrupts, spin.
    la t0, handler
    csrw mtvec, t0
    li t0, 0x800          # mie.MEIE
    csrw mie, t0
    csrsi mstatus, 8      # mstatus.MIE
    li a0, 0
    spin:
    addi a1, a1, 1
    bnez zero, spin       # never taken
    j spin

    .align 4
    handler:
    li a0, 0xAA
    csrr a2, mcause
    mret
"""


class TestExternalInterrupt:
    def test_line_wired_after_construction(self):
        """Assigning ``hart.external_irq`` post-construction must arm the
        awake-interrupt gate, not just the WFI wake path."""
        line = {"level": False}
        hart, _, program = build_hart(TRAP_PROGRAM)
        hart.external_irq = lambda: line["level"]
        for _ in range(12):
            hart.step()
        line["level"] = True
        result = hart.step()
        assert result.event is StepEvent.INTERRUPT
        assert result.next_pc == program.symbols["handler"]

    def test_interrupt_taken_and_returns(self):
        line = {"level": False}
        hart, _, program = build_hart(
            TRAP_PROGRAM, external_irq=lambda: line["level"]
        )
        # Run setup + a few spin iterations.
        for _ in range(12):
            hart.step()
        assert reg(hart, "a0") == 0
        line["level"] = True
        result = hart.step()
        assert result.event is StepEvent.INTERRUPT
        assert result.next_pc == program.symbols["handler"]
        # Execute the handler body.
        line["level"] = False
        events = [hart.step().event for _ in range(4)]
        assert StepEvent.MRET in events
        assert reg(hart, "a0") == 0xAA

    def test_mcause_interrupt_bit(self):
        line = {"level": True}
        hart, _, _ = build_hart(TRAP_PROGRAM, external_irq=lambda: line["level"])
        for _ in range(12):
            hart.step()
        line["level"] = False
        for _ in range(4):
            hart.step()
        assert reg(hart, "a2") == (1 << 31) | 11

    def test_masked_when_mie_clear(self):
        line = {"level": True}
        hart, _, _ = build_hart(
            """
            la t0, handler
            csrw mtvec, t0
            li t0, 0x800
            csrw mie, t0
            # mstatus.MIE deliberately left clear
            li a0, 1
            li a0, 2
            li a0, 3
            ebreak
            handler:
            li a0, 0xAA
            mret
            """,
            external_irq=lambda: line["level"],
        )
        hart.run()
        assert reg(hart, "a0") == 3  # never vectored

    def test_masked_when_meie_clear(self):
        line = {"level": True}
        hart, _, _ = build_hart(
            """
            la t0, handler
            csrw mtvec, t0
            csrsi mstatus, 8
            li a0, 1
            li a0, 2
            ebreak
            handler:
            li a0, 0xAA
            mret
            """,
            external_irq=lambda: line["level"],
        )
        hart.run()
        assert reg(hart, "a0") == 2

    def test_mstatus_stacking(self):
        """MIE is cleared on entry and restored by mret (MPIE dance)."""
        line = {"level": False}
        hart, _, _ = build_hart(TRAP_PROGRAM, external_irq=lambda: line["level"])
        for _ in range(12):
            hart.step()
        line["level"] = True
        result = hart.step()
        assert result.event is StepEvent.INTERRUPT
        assert not hart.csrs.mie_enabled  # masked inside handler
        line["level"] = False
        for _ in range(4):
            hart.step()
        assert hart.csrs.mie_enabled  # restored by mret


class TestWfi:
    WFI_PROGRAM = """
        la t0, handler
        csrw mtvec, t0
        li t0, 0x800
        csrw mie, t0
        csrsi mstatus, 8
        wfi
        li a0, 7          # runs after wake + handler
        ebreak
        .align 4
        handler:
        li a1, 1
        mret
    """

    def test_wfi_sleeps_until_interrupt(self):
        line = {"level": False}
        hart, _, _ = build_hart(self.WFI_PROGRAM, external_irq=lambda: line["level"])
        events = []
        for _ in range(10):
            events.append(hart.step().event)
            if events[-1] is StepEvent.WFI_SLEEP:
                break
        assert events[-1] is StepEvent.WFI_SLEEP
        # Idle while the line is low.
        assert hart.step().event is StepEvent.SLEEPING
        assert hart.step().event is StepEvent.SLEEPING

    def test_wake_consumes_wake_cycles(self):
        line = {"level": False}
        timing = IbexTiming(wake_cycles=45)
        hart, _, _ = build_hart(
            self.WFI_PROGRAM, timing=timing, external_irq=lambda: line["level"]
        )
        while hart.step().event is not StepEvent.WFI_SLEEP:
            pass
        line["level"] = True
        result = hart.step()
        assert result.event is StepEvent.WAKE
        assert result.cycles == 45

    def test_full_wake_handler_resume(self):
        line = {"level": False}
        hart, _, _ = build_hart(self.WFI_PROGRAM, external_irq=lambda: line["level"])
        while hart.step().event is not StepEvent.WFI_SLEEP:
            pass
        line["level"] = True
        assert hart.step().event is StepEvent.WAKE
        result = hart.step()
        assert result.event is StepEvent.INTERRUPT
        line["level"] = False
        hart.run()
        assert reg(hart, "a0") == 7
        assert reg(hart, "a1") == 1


class TestSynchronousTraps:
    def test_illegal_instruction_vectors(self):
        # 0x0000007b: an unknown major opcode.  0x00010001: low bits
        # 0b01, a compressed (RVC) encoding, which this ISA does not
        # implement: every instruction is one 32-bit word.
        for word in (0x0000007B, 0x00010001):
            hart, bus, program = build_hart(
                f"""
                la t0, handler
                csrw mtvec, t0
                .word {word:#010x}
                ebreak
                handler:
                li a0, 0xE
                csrr a1, mcause
                csrr a2, mtval
                ebreak
                """
            )
            hart.run()
            assert reg(hart, "a0") == 0xE
            assert reg(hart, "a1") == 2  # illegal instruction
            assert reg(hart, "a2") == word  # mtval: the whole word

    @pytest.mark.parametrize(
        "hword",
        [0x8082, 0x9082, 0xA001, 0x9002, 0x0001],
        ids=["c.jr-ra", "c.jalr-ra", "c.j", "c.ebreak", "c.nop"],
    )
    def test_compressed_form_traps_where_it_sits(self, hword):
        """An RVC form is never executed: a compressed return or call
        cannot retire around the CFI filter, it traps at its own pc."""
        word = (0x0001 << 16) | hword  # followed by a c.nop
        hart, _, program = build_hart(
            f"""
            la t0, handler
            csrw mtvec, t0
            la ra, handler
            bad: .word {word:#010x}
            ebreak
            handler:
            csrr a1, mcause
            csrr a2, mtval
            csrr a3, mepc
            ebreak
            """
        )
        hart.run()
        assert reg(hart, "a1") == 2  # illegal instruction
        assert reg(hart, "a2") == word
        assert reg(hart, "a3") == program.symbol("bad")

    def test_load_fault_vectors(self):
        hart, _, _ = build_hart(
            """
            la t0, handler
            csrw mtvec, t0
            li t1, 0x40000000   # unmapped
            lw a0, 0(t1)
            ebreak
            handler:
            csrr a1, mcause
            ebreak
            """
        )
        hart.run()
        assert reg(hart, "a1") == 5  # load access fault

    def test_store_fault_cause(self):
        hart, _, _ = build_hart(
            """
            la t0, handler
            csrw mtvec, t0
            li t1, 0x40000000
            sw a0, 0(t1)
            ebreak
            handler:
            csrr a1, mcause
            ebreak
            """
        )
        hart.run()
        assert reg(hart, "a1") == 7  # store access fault

    def test_mepc_points_at_faulting_instruction(self):
        hart, _, program = build_hart(
            """
            la t0, handler
            csrw mtvec, t0
            fault_here: .word 0x0000007b
            ebreak
            handler:
            csrr a1, mepc
            ebreak
            """
        )
        hart.run()
        assert reg(hart, "a1") == program.symbols["fault_here"]

    def test_halt_without_handler(self):
        hart, _, _ = build_hart("li a0, 1\necall")
        result = hart.run()
        assert hart.halted
        assert reg(hart, "a0") == 1

    def test_mepc_low_bits_are_zero(self):
        """With IALIGN = 32, ``mepc[1:0]`` read as zero: software that
        writes ``landing + 2`` reads back ``landing``, and ``mret``
        resumes there instead of fetching a word that straddles two
        instructions."""
        hart, _, program = build_hart(
            """
            la t0, handler
            csrw mtvec, t0
            la t1, landing
            addi t1, t1, 2
            csrw mepc, t1
            csrr a4, mepc
            mret
            ebreak
            landing:
            li a0, 0x600d
            ebreak
            handler:
            csrr a1, mcause
            ebreak
            """
        )
        hart.run()
        assert reg(hart, "a4") == program.symbol("landing")
        assert reg(hart, "a0") == 0x600D
        assert reg(hart, "a1") == 0  # the handler never ran


#: Transfers to 10 bytes past their own pc (2 mod 4: the middle of the
#: instruction after next).  ``jal`` and the branch are hand-encoded, so
#: the words under test do not depend on the assembler.
MISALIGNED_JUMPS = {
    "jalr": "jalr ra, 2(t1)",
    "jal": f".word {encode_j(op.OP_JAL, 1, 10):#010x}",  # jal ra, +10
    # bne t2, zero, +10
    "branch": f".word {encode_b(op.OP_BRANCH, op.F3_BNE, 7, 0, 10):#010x}",
}

MISALIGNED_PROGRAM = """
    la t0, handler
    csrw mtvec, t0
    li ra, 0x55
    li t2, {taken}
    la t1, landing
    jump: {jump}
    ebreak
    landing:
    nop
    ebreak
    handler:
    csrr a1, mcause
    csrr a2, mtval
    csrr a3, mepc
    ebreak
"""


class TestMisalignedTransfer:
    """Every instruction is 4 bytes (no C extension), so a jump or taken
    branch to a target that is not 4-byte aligned raises instruction-
    address-misaligned on the jump itself and writes no ``rd``."""

    @pytest.mark.parametrize("batched", [False, True], ids=["step", "run_n"])
    @pytest.mark.parametrize("kind", sorted(MISALIGNED_JUMPS))
    def test_traps_on_the_jump(self, kind, batched):
        hart, _, program = build_hart(MISALIGNED_PROGRAM.format(
            jump=MISALIGNED_JUMPS[kind], taken=1))
        jump = program.symbol("jump")
        if batched:
            # The window stops before the jump: its handler faults
            # without side effects, and step() replays it.
            retired, _spent, _term = hart.run_n(
                1 << 30, RAM_BASE, RAM_BASE + RAM_SIZE)
            assert retired > 0
            assert hart.pc == jump
            assert reg(hart, "ra") == 0x55
        hart.run()
        assert reg(hart, "a1") == op.CAUSE_MISALIGNED_FETCH
        assert reg(hart, "a3") == jump       # mepc: the jump
        assert reg(hart, "a2") == jump + 10  # mtval: the target
        assert reg(hart, "ra") == 0x55       # rd not written

    def test_untaken_branch_never_traps(self):
        hart, _, program = build_hart(MISALIGNED_PROGRAM.format(
            jump=MISALIGNED_JUMPS["branch"], taken=0))
        (last,) = hart.run()
        assert last.event is StepEvent.HALT
        assert last.pc == program.symbol("jump") + 4

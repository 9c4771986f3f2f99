"""Victim-program semantic tests (independent of CFI detection)."""

import pytest

from repro.attacks.programs import (
    CLEAN_MARKER,
    GADGET_MARKER,
    benign_program,
    call_hijack_program,
    deep_recursion_program,
    indirect_jump_program,
    jop_program,
    return_to_callsite_program,
    rop_program,
)
from repro.hart.core import Hart
from repro.hart.ports import MapPort
from repro.hart.timing import Cva6Timing
from repro.mem.map import MemoryMap
from repro.mem.memory import Ram
from repro.system.addresses import AddressMap


@pytest.fixture(scope="module")
def addresses():
    return AddressMap()


def run_bare(program, addresses, max_steps=200_000):
    """Execute on an unprotected CVA6 ISS; return the hart."""
    bus = MemoryMap("host")
    bus.add(addresses.dram_base, Ram(addresses.dram_size), name="dram")
    bus.write_bytes(program.base, program.data)
    hart = Hart(MapPort(bus), Cva6Timing(), xlen=64, reset_pc=program.base)
    hart.run(max_steps=max_steps)
    return hart


class TestBenign:
    def test_completes_clean(self, addresses):
        hart = run_bare(benign_program(addresses), addresses)
        assert hart.regs.read(10) == CLEAN_MARKER

    def test_accumulator_math(self, addresses):
        """sum of squares 5..1 = 55, left in a1 by finalize."""
        hart = run_bare(benign_program(addresses), addresses)
        assert hart.regs.read(11) == 55


class TestRop:
    def test_unprotected_run_is_hijacked(self, addresses):
        """Without CFI the diversion succeeds silently — the threat model."""
        hart = run_bare(rop_program(addresses), addresses)
        assert hart.regs.read(10) == GADGET_MARKER

    def test_gadget_address_differs_from_return_site(self, addresses):
        program = rop_program(addresses)
        assert program.symbols["gadget"] != program.symbols["main"] + 12


class TestRecursion:
    @pytest.mark.parametrize("depth", [1, 8, 33])
    def test_terminates_at_any_depth(self, addresses, depth):
        hart = run_bare(deep_recursion_program(addresses, depth=depth), addresses)
        assert hart.regs.read(10) == CLEAN_MARKER


class TestIndirectJump:
    def test_clean_dispatch(self, addresses):
        hart = run_bare(indirect_jump_program(addresses, corrupt=False), addresses)
        assert hart.regs.read(10) == CLEAN_MARKER

    def test_corrupt_dispatch_reaches_gadget(self, addresses):
        hart = run_bare(indirect_jump_program(addresses, corrupt=True), addresses)
        assert hart.regs.read(10) == GADGET_MARKER


class TestJop:
    def test_benign_dispatch_completes_clean(self, addresses):
        hart = run_bare(jop_program(addresses, corrupt=False), addresses)
        assert hart.regs.read(10) == CLEAN_MARKER

    def test_benign_handlers_both_ran(self, addresses):
        """add 7 then shift left: accumulator ends at 14, left in a1."""
        hart = run_bare(jop_program(addresses, corrupt=False), addresses)
        assert hart.regs.read(11) == 14

    def test_corrupt_chain_reaches_gadget(self, addresses):
        hart = run_bare(jop_program(addresses, corrupt=True), addresses)
        assert hart.regs.read(10) == GADGET_MARKER

    def test_gadgets_are_not_registered_handlers(self, addresses):
        program = jop_program(addresses, corrupt=True)
        handlers = {program.symbols["handler_add"], program.symbols["handler_shift"]}
        gadgets = {program.symbols["gadget_stage1"], program.symbols["gadget_stage2"]}
        assert handlers.isdisjoint(gadgets)


class TestCallHijack:
    def test_benign_pointer_call_completes_clean(self, addresses):
        hart = run_bare(call_hijack_program(addresses, corrupt=False), addresses)
        assert hart.regs.read(10) == CLEAN_MARKER
        assert hart.regs.read(11) == 0x11  # greet actually ran

    def test_hijacked_pointer_reaches_gadget(self, addresses):
        hart = run_bare(call_hijack_program(addresses, corrupt=True), addresses)
        assert hart.regs.read(10) == GADGET_MARKER


class TestReturnToCallsite:
    def test_unprotected_run_is_hijacked(self, addresses):
        hart = run_bare(return_to_callsite_program(addresses), addresses)
        assert hart.regs.read(10) == GADGET_MARKER

    def test_diversion_target_is_a_valid_call_site(self, addresses):
        """The attack's defining property: the corrupted return lands on
        the fall-through of a *real* call instruction (site A)."""
        from repro.isa.cflow import CfKind, classify, expected_return_address
        from repro.isa.decode import decode

        program = return_to_callsite_program(addresses)
        site_a_ret = program.symbols["site_a_ret"]
        # The instruction ending at site_a_ret must be a call (making
        # site_a_ret call-preceded — what coarse CFI cannot reject).
        call_pc = site_a_ret - 4
        offset = call_pc - program.base
        word = int.from_bytes(program.data[offset:offset + 4], "little")
        insn = decode(word, xlen=64)
        assert classify(insn) is CfKind.CALL
        assert expected_return_address(insn, call_pc) == site_a_ret

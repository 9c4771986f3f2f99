"""Tests for the control-flow classifier — the CFI filter's decision rules."""

import pytest

from repro.isa.cflow import (
    CfKind,
    classify,
    classify_word,
    expected_return_address,
    is_call,
    is_cfi_relevant,
    is_control_flow,
    is_indirect_jump,
    is_return,
)
from repro.isa.decode import decode
from repro.isa.encode import encode_i, encode_j
from repro.isa import opcodes as op


def jal(rd, offset=0):
    return decode(encode_j(op.OP_JAL, rd, offset))


def jalr(rd, rs1, offset=0):
    return decode(encode_i(op.OP_JALR, 0, rd, rs1, offset))


class TestCalls:
    def test_jal_ra_is_call(self):
        assert classify(jal(1)) is CfKind.CALL

    def test_jal_t0_is_call(self):
        """x5 is an ABI alternate link register."""
        assert classify(jal(5)) is CfKind.CALL

    def test_jalr_ra_is_call(self):
        assert classify(jalr(1, 10)) is CfKind.CALL

    def test_jalr_ra_from_ra_is_call(self):
        """Co-routine style jalr ra, ra is a call per the ABI table."""
        assert classify(jalr(1, 1)) is CfKind.CALL

    def test_is_call_helper(self):
        assert is_call(jal(1))
        assert not is_call(jal(0))


class TestReturns:
    def test_jalr_zero_ra_is_return(self):
        assert classify(jalr(0, 1)) is CfKind.RETURN

    def test_jalr_zero_t0_is_return(self):
        assert classify(jalr(0, 5)) is CfKind.RETURN

    def test_is_return_helper(self):
        assert is_return(jalr(0, 1))
        assert not is_return(jalr(0, 10))

    def test_compressed_ret_is_not_a_return(self):
        """c.jr ra is not an instruction here; its 4-byte form is."""
        assert classify_word(0x8082, xlen=32) is CfKind.NONE
        assert classify_word(0x00008067, xlen=32) is CfKind.RETURN


class TestIndirectJumps:
    def test_jalr_zero_other_is_indirect(self):
        assert classify(jalr(0, 10)) is CfKind.INDIRECT_JUMP

    def test_jalr_writing_non_link_is_indirect(self):
        assert classify(jalr(6, 10)) is CfKind.INDIRECT_JUMP

    def test_is_indirect_helper(self):
        assert is_indirect_jump(jalr(0, 10))
        assert not is_indirect_jump(jalr(0, 1))


class TestNonCfiTransfers:
    def test_jal_zero_is_direct_jump(self):
        assert classify(jal(0)) is CfKind.DIRECT_JUMP
        assert not classify(jal(0)).cfi_relevant

    def test_branch_not_cfi_relevant(self):
        insn = decode(0x00208463)  # beq
        assert classify(insn) is CfKind.BRANCH
        assert not classify(insn).cfi_relevant

    def test_alu_is_none(self):
        insn = decode(0x02A00093)  # addi
        assert classify(insn) is CfKind.NONE
        assert not is_control_flow(insn)


class TestCfiRelevance:
    """Exactly {call, return, indirect-jump} is streamed to the RoT."""

    def test_relevant_set(self):
        assert CfKind.CALL.cfi_relevant
        assert CfKind.RETURN.cfi_relevant
        assert CfKind.INDIRECT_JUMP.cfi_relevant
        assert not CfKind.DIRECT_JUMP.cfi_relevant
        assert not CfKind.BRANCH.cfi_relevant
        assert not CfKind.NONE.cfi_relevant

    def test_helper_matches_enum(self):
        for insn in (jal(1), jalr(0, 1), jalr(0, 10), jal(0)):
            assert is_cfi_relevant(insn) == classify(insn).cfi_relevant


class TestClassifyWord:
    """classify_word is the firmware-side parse of the commit-log encoding."""

    def test_matches_instruction_classification(self):
        for word in (0x00008067, 0x008000EF, 0x00208463):
            assert classify_word(word) == classify(decode(word))

    def test_never_raises_on_garbage(self):
        assert classify_word(0xFFFFFFFF) is CfKind.NONE
        assert classify_word(0x0000007B) is CfKind.NONE


class TestExpectedReturnAddress:
    def test_call_pushes_pc_plus_4(self):
        assert expected_return_address(jal(1), 0x1000) == 0x1004

    def test_non_call_returns_none(self):
        assert expected_return_address(jalr(0, 1), 0x1000) is None

    def test_compressed_call_is_not_a_call(self):
        """c.jalr ra is not an instruction here; its 4-byte form is a
        call whose return address is pc + 4."""
        assert classify_word(0x9082, xlen=32) is CfKind.NONE
        assert expected_return_address(decode(0x000080E7, xlen=32), 0x1000) == 0x1004


# --------------------------------------------------------------------------
# Static program analysis (the synthesis oracle's foundation)
# --------------------------------------------------------------------------

import random

from repro.campaign.runner import capture_commit_logs
from repro.campaign.spec import VICTIMS
from repro.isa.cflow import (
    cfi_sites,
    direct_call_targets,
    indirect_sites,
    scan_program,
)
from repro.system.addresses import AddressMap

_ADDRESSES = AddressMap()
_STATIC_VICTIMS = sorted(
    name for name, spec in VICTIMS.items() if not spec.synthetic
)


def _program(victim, seed=1):
    return VICTIMS[victim].builder(_ADDRESSES, random.Random(seed))


class TestStaticScan:
    """Linear-sweep analysis over every registered victim program."""

    @pytest.mark.parametrize("victim", _STATIC_VICTIMS)
    def test_dynamic_events_are_a_subset_of_static_sites(self, victim):
        """Every commit log the filter captures must correspond to a
        statically discovered site with the identical classification."""
        program = _program(victim)
        by_pc = {site.pc: site for site in scan_program(program)}
        logs, _hart = capture_commit_logs(program, _ADDRESSES)
        assert logs
        for log in logs:
            site = by_pc[log.pc]
            assert site.kind is log.kind, (victim, hex(log.pc))
            assert site.kind.cfi_relevant

    @pytest.mark.parametrize("victim", _STATIC_VICTIMS)
    def test_cfi_sites_cover_the_dynamic_stream(self, victim):
        program = _program(victim)
        static_pcs = {site.pc for site in cfi_sites(program)}
        logs, _hart = capture_commit_logs(program, _ADDRESSES)
        assert {log.pc for log in logs} <= static_pcs

    @pytest.mark.parametrize("victim", _STATIC_VICTIMS)
    def test_call_return_pairing_is_statically_visible(self, victim):
        """Walking the dynamic stream with a stack of static
        fall-throughs pairs every benign return with its call; the
        attack victims break pairing exactly at their corrupted edge."""
        program = _program(victim)
        logs, _hart = capture_commit_logs(program, _ADDRESSES)
        stack = []
        mismatches = 0
        for log in logs:
            if log.kind is CfKind.CALL:
                stack.append(log.next_address)
            elif log.kind is CfKind.RETURN:
                if not stack or stack.pop() != log.target:
                    mismatches += 1
        attack = VICTIMS[victim].attack
        if attack in ("rop", "ret-to-callsite"):
            assert mismatches >= 1, victim
        else:
            assert mismatches == 0, victim

    def test_indirect_target_extraction(self):
        """The jop dispatcher's indirect jump and the hijacked call are
        found statically, with no static target (register-indirect)."""
        program = _program("jop")
        sites = indirect_sites(program)
        assert sites
        assert all(site.target is None for site in sites)
        assert any(site.kind is CfKind.INDIRECT_JUMP for site in sites)
        hijack = indirect_sites(_program("call-hijack"))
        assert any(site.kind is CfKind.CALL for site in hijack)

    def test_direct_call_targets_resolve_to_symbols(self):
        """Immediate-encoded call targets land on known function labels."""
        program = _program("benign")
        targets = direct_call_targets(program)
        assert program.symbols["square"] in targets
        assert program.symbols["identity"] in targets

    def test_fall_through_matches_link_value(self):
        program = _program("benign")
        for site in cfi_sites(program):
            if site.kind is CfKind.CALL:
                assert site.fall_through == site.pc + 4

    def test_scan_skips_data_gracefully(self):
        """Garbage words (data, padding) never raise and never classify."""
        from repro.isa.cflow import iter_sites

        blob = b"\xff\xff\xff\xff" + b"\x00" * 8 + (0x00008067).to_bytes(4, "little")
        sites = list(iter_sites(blob, 0x1000))
        assert [s.kind for s in sites] == [CfKind.RETURN]
        assert sites[0].pc == 0x100C

    def test_scan_skips_compressed_halfwords(self):
        """A word holding c.jalr ra and c.jr ra is data to the sweep,
        as it is an illegal instruction to the hart."""
        from repro.isa.cflow import iter_sites

        blob = (0x80829082).to_bytes(4, "little") + (0x000080E7).to_bytes(4, "little")
        sites = list(iter_sites(blob, 0x1000, xlen=32))
        assert [(s.pc, s.kind) for s in sites] == [(0x1004, CfKind.CALL)]

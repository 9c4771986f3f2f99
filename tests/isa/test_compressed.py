"""Compressed (RVC) encodings sit outside the ISA.

The hart implements RV32/RV64 IM + Zicsr with one 32-bit encoding per
instruction, so a word whose low two bits are not ``0b11`` is illegal.
The reference halfwords below were hand-assembled per the RVC encoding
tables, one per compressed form.  Each is rejected on both XLENs, and
the 32-bit instruction it abbreviates decodes to the same operation, so
every RVC form's behaviour stays reachable through its 4-byte encoding.
"""

import pytest

from repro.errors import DecodeError
from repro.isa.cflow import CfKind, classify_word
from repro.isa.decode import decode

# (form, halfword, xlen, 32-bit equivalent, (mnemonic, rd, rs1, rs2, imm)).
# ``xlen`` is one the compressed form is defined on: c.jal is RV32-only;
# c.addiw, c.ld, c.ldsp and c.sdsp are RV64-only.
RVC_FORMS = [
    ("c.addi4spn", 0x0800, 32, 0x01010413, ("addi", 8, 2, None, 16)),
    ("c.lw", 0x4144, 32, 0x00452483, ("lw", 9, 10, None, 4)),
    ("c.sw", 0xC144, 32, 0x00952223, ("sw", None, 10, 9, 4)),
    ("c.ld", 0x6188, 64, 0x0005B503, ("ld", 10, 11, None, 0)),
    ("c.nop", 0x0001, 32, 0x00000013, ("addi", 0, 0, None, 0)),
    ("c.addi", 0x0505, 32, 0x00150513, ("addi", 10, 10, None, 1)),
    ("c.addi-negative", 0x157D, 32, 0xFFF50513, ("addi", 10, 10, None, -1)),
    ("c.jal", 0x2081, 32, 0x040000EF, ("jal", 1, None, None, 64)),
    ("c.addiw", 0x2505, 64, 0x0015051B, ("addiw", 10, 10, None, 1)),
    ("c.li", 0x4529, 32, 0x00A00513, ("addi", 10, 0, None, 10)),
    ("c.lui", 0x6505, 32, 0x00001537, ("lui", 10, None, None, 1)),
    ("c.addi16sp", 0x6141, 32, 0x01010113, ("addi", 2, 2, None, 16)),
    ("c.srli", 0x8105, 32, 0x00155513, ("srli", 10, 10, None, 1)),
    ("c.andi", 0x8905, 32, 0x00157513, ("andi", 10, 10, None, 1)),
    ("c.sub", 0x8D09, 32, 0x40A50533, ("sub", 10, 10, 10, None)),
    ("c.j", 0xA001, 32, 0x0000006F, ("jal", 0, None, None, 0)),
    ("c.beqz", 0xC101, 32, 0x00050063, ("beq", None, 10, 0, 0)),
    ("c.bnez", 0xE101, 32, 0x00051063, ("bne", None, 10, 0, 0)),
    ("c.slli", 0x0506, 32, 0x00151513, ("slli", 10, 10, None, 1)),
    ("c.lwsp", 0x4502, 32, 0x00012503, ("lw", 10, 2, None, 0)),
    ("c.ldsp", 0x6502, 64, 0x00013503, ("ld", 10, 2, None, 0)),
    ("c.jr", 0x8082, 32, 0x00008067, ("jalr", 0, 1, None, 0)),
    ("c.mv", 0x80AA, 32, 0x00A000B3, ("add", 1, 0, 10, None)),
    ("c.ebreak", 0x9002, 32, 0x00100073, ("ebreak", None, None, None, None)),
    ("c.jalr", 0x9082, 32, 0x000080E7, ("jalr", 1, 1, None, 0)),
    ("c.add", 0x90AA, 32, 0x00A080B3, ("add", 1, 1, 10, None)),
    ("c.swsp", 0xC02A, 32, 0x00A12023, ("sw", None, 2, 10, 0)),
    ("c.sdsp", 0xE02A, 64, 0x00A13023, ("sd", None, 2, 10, 0)),
]

FORM_IDS = [form for form, *_ in RVC_FORMS]


class TestCompressedRejected:
    @pytest.mark.parametrize("xlen", [32, 64], ids=["rv32", "rv64"])
    @pytest.mark.parametrize("form, hword, _xlen, _word, _fields", RVC_FORMS,
                             ids=FORM_IDS)
    def test_halfword_is_illegal(self, form, hword, _xlen, _word, _fields, xlen):
        with pytest.raises(DecodeError) as exc:
            decode(hword, xlen=xlen)
        assert exc.value.word == hword
        # The firmware's classifier shrugs at it: a compressed call or
        # return is never streamed as a control-flow event.
        assert classify_word(hword, xlen=xlen) is CfKind.NONE

    def test_upper_half_does_not_rescue_it(self):
        """A 4-byte fetch whose low half is an RVC form is illegal
        whatever follows it (another RVC form, zeros, all ones)."""
        for _form, hword, xlen, _word, _fields in RVC_FORMS:
            for upper in (0x0000, 0x0001, 0x8082, 0xFFFF):
                word = (upper << 16) | hword
                with pytest.raises(DecodeError):
                    decode(word, xlen=xlen)


class TestFourByteForm:
    @pytest.mark.parametrize("form, _hword, xlen, word, fields", RVC_FORMS,
                             ids=FORM_IDS)
    def test_decodes_to_the_same_operation(self, form, _hword, xlen, word, fields):
        insn = decode(word, xlen=xlen)
        assert word & 0b11 == 0b11
        assert (insn.mnemonic, insn.rd, insn.rs1, insn.rs2, insn.imm) == fields
        assert insn.raw == word

"""Assembler tests: syntax, pseudo-instructions, symbols, directives."""

import pytest

from repro.errors import AssemblerError
from repro.isa.asm import Assembler, assemble
from repro.isa.decode import decode


def words(program):
    """Decode an assembled image back into instruction words."""
    return [
        int.from_bytes(program.data[i : i + 4], "little")
        for i in range(0, len(program.data), 4)
    ]


class TestBasicSyntax:
    def test_single_instruction(self):
        program = assemble("addi a0, zero, 5")
        insn = decode(words(program)[0], xlen=32)
        assert insn.mnemonic == "addi"
        assert insn.imm == 5

    def test_comments_stripped(self):
        program = assemble(
            """
            addi a0, zero, 1   # hash comment
            addi a1, zero, 2   // slash comment
            addi a2, zero, 3   ; semicolon comment
            """
        )
        assert len(program.data) == 12

    def test_hex_immediates(self):
        program = assemble("addi a0, zero, 0x7f")
        assert decode(words(program)[0], xlen=32).imm == 0x7F

    def test_negative_immediates(self):
        program = assemble("addi a0, zero, -3")
        assert decode(words(program)[0], xlen=32).imm == -3

    def test_unknown_mnemonic_raises_with_line(self):
        with pytest.raises(AssemblerError, match="line 2"):
            assemble("nop\nbogus a0, a1\n")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblerError):
            assemble("add a0, a1")


class TestLabels:
    def test_forward_reference(self):
        program = assemble(
            """
            j end
            nop
            end: nop
            """
        )
        insn = decode(words(program)[0], xlen=32)
        assert insn.mnemonic == "jal"
        assert insn.imm == 8

    def test_backward_reference(self):
        program = assemble(
            """
            top: nop
            j top
            """
        )
        insn = decode(words(program)[1], xlen=32)
        assert insn.imm == -4

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble("x: nop\nx: nop")

    def test_label_with_instruction_on_same_line(self):
        program = assemble("entry: addi a0, zero, 1")
        assert program.symbols["entry"] == 0

    def test_unknown_symbol(self):
        with pytest.raises(AssemblerError, match="unknown symbol"):
            assemble("j nowhere")

    def test_symbol_arithmetic(self):
        program = assemble(
            """
            .org 0x100
            table: .word 1, 2, 3
            load: lw a0, table+4(zero)
            """
        )
        insn = decode(words_at(program, program.symbols["load"]), xlen=32)
        assert insn.imm == 0x104


def words_at(program, address):
    offset = address - program.base
    return int.from_bytes(program.data[offset : offset + 4], "little")


class TestMemoryOperands:
    def test_load_offset(self):
        program = assemble("lw a0, 8(sp)")
        insn = decode(words(program)[0], xlen=32)
        assert insn.rs1 == 2
        assert insn.imm == 8

    def test_store(self):
        program = assemble("sw a0, -4(s0)")
        insn = decode(words(program)[0], xlen=32)
        assert insn.mnemonic == "sw"
        assert insn.imm == -4

    def test_bare_parens_default_zero_offset(self):
        program = assemble("lw a0, (sp)")
        assert decode(words(program)[0], xlen=32).imm == 0


class TestPseudoInstructions:
    def test_nop(self):
        program = assemble("nop")
        insn = decode(words(program)[0], xlen=32)
        assert insn.mnemonic == "addi" and insn.rd == 0

    def test_li_small(self):
        program = assemble("li a0, 100")
        assert len(program.data) == 4

    def test_li_large_two_instructions(self):
        program = assemble("li a0, 0x12345")
        assert len(program.data) == 8
        first, second = (decode(w, xlen=32) for w in words(program))
        assert first.mnemonic == "lui"
        assert second.mnemonic == "addi"

    def test_li_large_value_correct(self):
        # Value with the sign-extension carry case: low 12 bits >= 0x800.
        program = assemble("li a0, 0x12801")
        first, second = (decode(w, xlen=32) for w in words(program))
        value = ((first.imm << 12) + second.imm) & 0xFFFFFFFF
        assert value == 0x12801

    def test_la_symbol(self):
        program = assemble(
            """
            la a0, data
            .org 0x800
            data: .word 7
            """
        )
        first, second = (decode(w, xlen=32) for w in words(program)[:2])
        assert ((first.imm << 12) + second.imm) == 0x800

    def test_mv(self):
        program = assemble("mv a1, a0")
        insn = decode(words(program)[0], xlen=32)
        assert insn.mnemonic == "addi" and insn.imm == 0

    def test_ret(self):
        program = assemble("ret")
        insn = decode(words(program)[0], xlen=32)
        assert insn.mnemonic == "jalr"
        assert insn.rd == 0 and insn.rs1 == 1

    def test_call(self):
        program = assemble("call f\nf: nop")
        insn = decode(words(program)[0], xlen=32)
        assert insn.mnemonic == "jal" and insn.rd == 1

    def test_beqz(self):
        program = assemble("beqz a0, out\nout: nop")
        insn = decode(words(program)[0], xlen=32)
        assert insn.mnemonic == "beq" and insn.rs2 == 0

    def test_bgt_swaps_operands(self):
        program = assemble("bgt a0, a1, out\nout: nop")
        insn = decode(words(program)[0], xlen=32)
        assert insn.mnemonic == "blt"
        assert insn.rs1 == 11 and insn.rs2 == 10

    def test_csrr(self):
        program = assemble("csrr a0, mcause")
        insn = decode(words(program)[0], xlen=32)
        assert insn.mnemonic == "csrrs"
        assert insn.csr == 0x342

    def test_csrw_named(self):
        program = assemble("csrw mtvec, a0")
        insn = decode(words(program)[0], xlen=32)
        assert insn.mnemonic == "csrrw"
        assert insn.csr == 0x305

    def test_csrsi(self):
        program = assemble("csrsi mstatus, 8")
        insn = decode(words(program)[0], xlen=32)
        assert insn.mnemonic == "csrrsi"
        assert insn.imm == 8


class TestDirectives:
    def test_org_pads(self):
        program = assemble(".org 0x10\nnop", base=0)
        assert len(program.data) == 0x14
        assert program.data[:0x10] == bytes(0x10)

    def test_org_backwards_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("nop\n.org 0x0")

    def test_word_little_endian(self):
        program = assemble(".word 0x11223344")
        assert program.data == bytes([0x44, 0x33, 0x22, 0x11])

    def test_multiple_words(self):
        program = assemble(".word 1, 2")
        assert len(program.data) == 8

    def test_align(self):
        program = assemble("nop\n.align 4\nmarker: nop")
        assert program.symbols["marker"] == 16

    def test_space(self):
        program = assemble(".space 12\nx: nop")
        assert program.symbols["x"] == 12

    def test_equ(self):
        # A symbolic li conservatively expands to lui+addi; the combined
        # value must equal the .equ constant.
        program = assemble(".equ MAGIC, 0x55\nli a0, MAGIC")
        first, second = (decode(w, xlen=32) for w in words(program))
        assert ((first.imm << 12) + second.imm) == 0x55

    def test_region_tracking(self):
        program = assemble(
            """
            .region irq
            nop
            nop
            .region cfi
            work: nop
            """
        )
        assert program.region_at(0) == "irq"
        assert program.region_at(4) == "irq"
        assert program.region_at(program.symbols["work"]) == "cfi"

    def test_region_before_any_is_none(self):
        program = assemble("nop\n.region tail\nnop")
        assert program.region_at(0) is None

    def test_asciz(self):
        program = assemble('.asciz "ok"')
        assert program.data == b"ok\x00"


class TestHiLoRelocations:
    def test_hi_lo_reconstruct_address(self):
        program = assemble(
            """
            lui a0, %hi(target)
            addi a0, a0, %lo(target)
            .org 0xABC0
            target: nop
            """
        )
        first, second = (decode(w, xlen=32) for w in words(program)[:2])
        assert ((first.imm << 12) + second.imm) & 0xFFFFFFFF == 0xABC0

    def test_hi_compensates_sign_extension(self):
        program = assemble(
            """
            lui a0, %hi(target)
            addi a0, a0, %lo(target)
            .org 0x1800
            target: nop
            """
        )
        first, second = (decode(w, xlen=32) for w in words(program)[:2])
        assert ((first.imm << 12) + second.imm) & 0xFFFFFFFF == 0x1800


class TestRv64Assembly:
    def test_ld_sd(self):
        asm = Assembler(xlen=64)
        program = asm.assemble("ld a0, 0(sp)\nsd a0, 8(sp)")
        first, second = (decode(w, xlen=64) for w in [
            int.from_bytes(program.data[0:4], "little"),
            int.from_bytes(program.data[4:8], "little"),
        ])
        assert first.mnemonic == "ld"
        assert second.mnemonic == "sd"

    def test_rv64_only_rejected_on_rv32(self):
        with pytest.raises(AssemblerError, match="RV64-only"):
            assemble("ld a0, 0(sp)", xlen=32)

    def test_addiw(self):
        program = Assembler(xlen=64).assemble("addiw a0, a0, 1")
        insn = decode(int.from_bytes(program.data[:4], "little"), xlen=64)
        assert insn.mnemonic == "addiw"


class TestLineMap:
    def test_addresses_map_to_source_lines(self):
        program = assemble("nop\nnop\nfin: nop")
        assert program.line_map[0] == 1
        assert program.line_map[4] == 2
        assert program.line_map[8] == 3


# (line, (mnemonic, rd, rs1, rs2, imm, csr)).  Branch and jump operands
# are absolute targets, so their imm is the target minus the pc.
DECODER_AGREEMENT = [
    ("addi a0, zero, 42", ("addi", 10, 0, None, 42, None)),
    ("add a1, a0, a0", ("add", 11, 10, 10, None, None)),
    ("lw a2, 4(sp)", ("lw", 12, 2, None, 4, None)),
    ("sw a2, 8(sp)", ("sw", None, 2, 12, 8, None)),
    ("beq a0, a1, 8", ("beq", None, 10, 11, 8 - 16, None)),
    ("jal ra, 8", ("jal", 1, None, None, 8 - 20, None)),
    ("jalr zero, 0(ra)", ("jalr", 0, 1, None, 0, None)),
    ("lui a3, 0x12", ("lui", 13, None, None, 0x12, None)),
    ("csrrw zero, 0x305, a0", ("csrrw", 0, 10, None, None, 0x305)),
    ("mret", ("mret", None, None, None, None, None)),
]


class TestDecoderAgreement:
    @pytest.mark.parametrize("index", range(len(DECODER_AGREEMENT)),
                             ids=[line for line, _ in DECODER_AGREEMENT])
    def test_assembled_fields_decode(self, index):
        """Each line of one assembled program decodes back to its own
        operands."""
        program = assemble("\n".join(line for line, _ in DECODER_AGREEMENT))
        line, fields = DECODER_AGREEMENT[index]
        word = int.from_bytes(program.data[index * 4 : index * 4 + 4], "little")
        insn = decode(word, xlen=32)
        assert (insn.mnemonic, insn.rd, insn.rs1, insn.rs2,
                insn.imm, insn.csr) == fields, line

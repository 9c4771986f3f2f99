"""Decoder unit tests against hand-checked encodings.

Reference words were cross-checked against the RISC-V unprivileged spec
encoding tables.
"""

import pytest

from repro.errors import DecodeError
from repro.isa.decode import decode


class TestBaseInteger:
    def test_addi(self):
        insn = decode(0x02A00093)  # addi x1, x0, 42
        assert insn.mnemonic == "addi"
        assert insn.rd == 1
        assert insn.rs1 == 0
        assert insn.imm == 42

    def test_addi_negative_imm(self):
        insn = decode(0xFFF00093)  # addi x1, x0, -1
        assert insn.imm == -1

    def test_lui(self):
        insn = decode(0x000120B7)  # lui x1, 0x12
        assert insn.mnemonic == "lui"
        assert insn.rd == 1
        assert insn.imm == 0x12

    def test_lui_negative(self):
        insn = decode(0xFFFFF0B7)  # lui x1, 0xfffff
        assert insn.imm == -1

    def test_auipc(self):
        insn = decode(0x00001097)  # auipc x1, 1
        assert insn.mnemonic == "auipc"
        assert insn.imm == 1

    def test_jal(self):
        insn = decode(0x008000EF)  # jal ra, +8
        assert insn.mnemonic == "jal"
        assert insn.rd == 1
        assert insn.imm == 8

    def test_jal_negative_offset(self):
        insn = decode(0xFF9FF06F)  # jal x0, -8
        assert insn.rd == 0
        assert insn.imm == -8

    def test_jalr(self):
        insn = decode(0x00008067)  # jalr x0, 0(ra) == ret
        assert insn.mnemonic == "jalr"
        assert insn.rd == 0
        assert insn.rs1 == 1
        assert insn.imm == 0

    def test_branch(self):
        insn = decode(0x00208463)  # beq x1, x2, +8
        assert insn.mnemonic == "beq"
        assert insn.rs1 == 1
        assert insn.rs2 == 2
        assert insn.imm == 8

    def test_branch_negative(self):
        insn = decode(0xFE209EE3)  # bne x1, x2, -4
        assert insn.mnemonic == "bne"
        assert insn.imm == -4

    def test_loads(self):
        insn = decode(0x0040A103)  # lw x2, 4(x1)
        assert insn.mnemonic == "lw"
        assert insn.rd == 2
        assert insn.rs1 == 1
        assert insn.imm == 4

    def test_store(self):
        insn = decode(0x0020A223)  # sw x2, 4(x1)
        assert insn.mnemonic == "sw"
        assert insn.rs1 == 1
        assert insn.rs2 == 2
        assert insn.imm == 4

    def test_register_alu(self):
        insn = decode(0x002081B3)  # add x3, x1, x2
        assert insn.mnemonic == "add"
        assert (insn.rd, insn.rs1, insn.rs2) == (3, 1, 2)

    def test_sub(self):
        insn = decode(0x402081B3)  # sub x3, x1, x2
        assert insn.mnemonic == "sub"

    def test_srai_rv64_shamt(self):
        insn = decode(0x43D0D093, xlen=64)  # srai x1, x1, 61
        assert insn.mnemonic == "srai"
        assert insn.imm == 61

    def test_rv32_rejects_64bit_shift(self):
        with pytest.raises(DecodeError):
            decode(0x42D0D093, xlen=32)  # srai with shamt 45 (bit 25 set)


class TestRv64:
    def test_ld(self):
        insn = decode(0x0080B103, xlen=64)  # ld x2, 8(x1)
        assert insn.mnemonic == "ld"

    def test_ld_rejected_on_rv32(self):
        with pytest.raises(DecodeError):
            decode(0x0080B103, xlen=32)

    def test_sd(self):
        insn = decode(0x0020B423, xlen=64)  # sd x2, 8(x1)
        assert insn.mnemonic == "sd"

    def test_addiw(self):
        insn = decode(0x0050809B, xlen=64)  # addiw x1, x1, 5
        assert insn.mnemonic == "addiw"
        assert insn.imm == 5

    def test_addw(self):
        insn = decode(0x002080BB, xlen=64)  # addw x1, x1, x2
        assert insn.mnemonic == "addw"

    def test_op32_rejected_on_rv32(self):
        with pytest.raises(DecodeError):
            decode(0x002080BB, xlen=32)


class TestMExtension:
    def test_mul(self):
        insn = decode(0x022081B3)  # mul x3, x1, x2
        assert insn.mnemonic == "mul"

    def test_div(self):
        insn = decode(0x0220C1B3)  # div x3, x1, x2
        assert insn.mnemonic == "div"

    def test_remu(self):
        insn = decode(0x0220F1B3)  # remu x3, x1, x2
        assert insn.mnemonic == "remu"

    def test_mulw_rv64(self):
        insn = decode(0x022081BB, xlen=64)  # mulw x3, x1, x2
        assert insn.mnemonic == "mulw"


class TestSystem:
    def test_ecall(self):
        assert decode(0x00000073).mnemonic == "ecall"

    def test_ebreak(self):
        assert decode(0x00100073).mnemonic == "ebreak"

    def test_mret(self):
        assert decode(0x30200073).mnemonic == "mret"

    def test_wfi(self):
        assert decode(0x10500073).mnemonic == "wfi"

    def test_csrrw(self):
        insn = decode(0x30509073)  # csrrw x0, mtvec, x1
        assert insn.mnemonic == "csrrw"
        assert insn.csr == 0x305
        assert insn.rs1 == 1

    def test_csrrsi(self):
        insn = decode(0x3004E073)  # csrrsi x0, mstatus, 9
        assert insn.mnemonic == "csrrsi"
        assert insn.imm == 9

    def test_fence(self):
        assert decode(0x0FF0000F).mnemonic == "fence"


class TestErrors:
    def test_unknown_major_opcode(self):
        # 0x0001 has low bits 0b01, a compressed (RVC) encoding: every
        # instruction is one 32-bit word with low bits 0b11.
        for word in (0x0000007B, 0x00000001):
            with pytest.raises(DecodeError):
                decode(word)

    def test_bad_xlen(self):
        with pytest.raises(ValueError):
            decode(0x13, xlen=16)

    def test_decode_error_carries_word(self):
        try:
            decode(0x0000007B)
        except DecodeError as exc:
            assert exc.word == 0x0000007B


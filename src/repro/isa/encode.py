"""Encoders for the six base RISC-V instruction formats.

These build 32-bit instruction words from fields, validating immediate
ranges.  They are consumed by the assembler (:mod:`repro.isa.asm`), and
their round-trip with the decoder is property-tested.
"""

from __future__ import annotations

from repro.errors import EncodeError
from repro.utils.bits import bit, bits, mask


def _check_reg(name: str, value: int) -> int:
    if not 0 <= value < 32:
        raise EncodeError(f"{name} register index out of range: {value}")
    return value


def _check_simm(name: str, value: int, width: int) -> int:
    lo = -(1 << (width - 1))
    hi = (1 << (width - 1)) - 1
    if not lo <= value <= hi:
        raise EncodeError(
            f"{name} immediate {value} outside signed {width}-bit range"
        )
    return value & mask(width)


def encode_r(opcode: int, funct3: int, funct7: int, rd: int, rs1: int, rs2: int) -> int:
    """R-type: register/register ALU operations."""
    _check_reg("rd", rd)
    _check_reg("rs1", rs1)
    _check_reg("rs2", rs2)
    return (
        (funct7 << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | (rd << 7)
        | opcode
    )


def encode_i(opcode: int, funct3: int, rd: int, rs1: int, imm: int) -> int:
    """I-type: immediate ALU ops, loads, JALR, SYSTEM."""
    _check_reg("rd", rd)
    _check_reg("rs1", rs1)
    imm12 = _check_simm("I-type", imm, 12)
    return (imm12 << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode


def encode_i_unsigned(opcode: int, funct3: int, rd: int, rs1: int, imm12: int) -> int:
    """I-type with a raw (unsigned) 12-bit field — CSR addresses, MRET/WFI."""
    _check_reg("rd", rd)
    _check_reg("rs1", rs1)
    if not 0 <= imm12 <= mask(12):
        raise EncodeError(f"raw imm12 out of range: {imm12:#x}")
    return (imm12 << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode


def encode_shift(
    opcode: int, funct3: int, funct7: int, rd: int, rs1: int, shamt: int, xlen: int
) -> int:
    """Shift-immediate encoding; shamt width depends on XLEN."""
    limit = xlen - 1
    if not 0 <= shamt <= limit:
        raise EncodeError(f"shift amount {shamt} out of range for XLEN={xlen}")
    # For RV64 the shamt field grows into funct7's LSB.
    high = (funct7 & ~1) | ((shamt >> 5) & 1) if xlen == 64 else funct7
    return (
        (high << 25)
        | ((shamt & mask(5)) << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | (rd << 7)
        | opcode
    )


def encode_s(opcode: int, funct3: int, rs1: int, rs2: int, imm: int) -> int:
    """S-type: stores."""
    _check_reg("rs1", rs1)
    _check_reg("rs2", rs2)
    imm12 = _check_simm("S-type", imm, 12)
    return (
        (bits(imm12, 11, 5) << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | (bits(imm12, 4, 0) << 7)
        | opcode
    )


def encode_b(opcode: int, funct3: int, rs1: int, rs2: int, imm: int) -> int:
    """B-type: conditional branches; ``imm`` is the byte offset (even)."""
    _check_reg("rs1", rs1)
    _check_reg("rs2", rs2)
    if imm % 2:
        raise EncodeError(f"branch offset must be even: {imm}")
    imm13 = _check_simm("B-type", imm, 13)
    return (
        (bit(imm13, 12) << 31)
        | (bits(imm13, 10, 5) << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | (bits(imm13, 4, 1) << 8)
        | (bit(imm13, 11) << 7)
        | opcode
    )


def encode_u(opcode: int, rd: int, imm: int) -> int:
    """U-type: LUI/AUIPC; ``imm`` is the upper-20-bit value (signed)."""
    _check_reg("rd", rd)
    if not -(1 << 19) <= imm < (1 << 20):
        raise EncodeError(f"U-type immediate out of range: {imm}")
    return ((imm & mask(20)) << 12) | (rd << 7) | opcode


def encode_j(opcode: int, rd: int, imm: int) -> int:
    """J-type: JAL; ``imm`` is the byte offset (even)."""
    _check_reg("rd", rd)
    if imm % 2:
        raise EncodeError(f"jump offset must be even: {imm}")
    imm21 = _check_simm("J-type", imm, 21)
    return (
        (bit(imm21, 20) << 31)
        | (bits(imm21, 10, 1) << 21)
        | (bit(imm21, 11) << 20)
        | (bits(imm21, 19, 12) << 12)
        | (rd << 7)
        | opcode
    )

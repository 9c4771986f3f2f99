"""RISC-V instruction decoder (RV32/RV64 I + M + Zicsr + machine mode).

Every instruction is one 32-bit word.  The decoded word is kept on the
:class:`Instruction` as ``raw`` — the TitanCFI commit log transports
exactly this binary encoding (paper §IV-B1).

Decode cache
------------

:func:`decode` memoises successful decodes in a module-level dict keyed
on ``(word, xlen)``.  The cache invariants are:

* :class:`Instruction` is a frozen dataclass, so one cached instance can
  safely be shared by every hart and the control-flow analyser —
  decoding is a pure function of ``(word, xlen)``.
* Keys are *normalised* words: the low 32 bits.  Two fetches that differ
  only in ignored high bits therefore share one entry, which also keeps
  the cached ``raw`` field exact.
* Failed decodes are **not** cached: :class:`DecodeError` carries
  per-site context (the faulting pc is attached by the hart), so every
  illegal word takes the slow path and raises a fresh exception.
* The cache is cleared when it exceeds ``DECODE_CACHE_LIMIT`` entries
  (a fuzz-run guard; real programs hold a few hundred distinct words).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import DecodeError
from repro.isa import opcodes as op
from repro.utils.bits import bit, bits, sext


@dataclass(frozen=True)
class Instruction:
    """A decoded instruction.

    Attributes:
        mnemonic: canonical mnemonic, e.g. ``"jalr"``.
        raw: the 32-bit encoding as fetched.  This is the value the CFI
            filter places in the commit log.
        rd/rs1/rs2: register operand indices, or ``None`` when the format
            has no such operand.
        imm: decoded immediate (sign-extended), or ``None``.
        csr: CSR address for Zicsr instructions, or ``None``.
    """

    mnemonic: str
    raw: int
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: Optional[int] = None
    csr: Optional[int] = None


_LOAD_MNEMONICS = {
    op.F3_LB: "lb",
    op.F3_LH: "lh",
    op.F3_LW: "lw",
    op.F3_LD: "ld",
    op.F3_LBU: "lbu",
    op.F3_LHU: "lhu",
    op.F3_LWU: "lwu",
}
_STORE_MNEMONICS = {
    op.F3_SB: "sb",
    op.F3_SH: "sh",
    op.F3_SW: "sw",
    op.F3_SD: "sd",
}
_BRANCH_MNEMONICS = {
    op.F3_BEQ: "beq",
    op.F3_BNE: "bne",
    op.F3_BLT: "blt",
    op.F3_BGE: "bge",
    op.F3_BLTU: "bltu",
    op.F3_BGEU: "bgeu",
}
_OP_IMM_MNEMONICS = {
    op.F3_ADD_SUB: "addi",
    op.F3_SLT: "slti",
    op.F3_SLTU: "sltiu",
    op.F3_XOR: "xori",
    op.F3_OR: "ori",
    op.F3_AND: "andi",
}
_OP_MNEMONICS = {
    (op.F7_BASE, op.F3_ADD_SUB): "add",
    (op.F7_SUB_SRA, op.F3_ADD_SUB): "sub",
    (op.F7_BASE, op.F3_SLL): "sll",
    (op.F7_BASE, op.F3_SLT): "slt",
    (op.F7_BASE, op.F3_SLTU): "sltu",
    (op.F7_BASE, op.F3_XOR): "xor",
    (op.F7_BASE, op.F3_SRL_SRA): "srl",
    (op.F7_SUB_SRA, op.F3_SRL_SRA): "sra",
    (op.F7_BASE, op.F3_OR): "or",
    (op.F7_BASE, op.F3_AND): "and",
    (op.F7_MULDIV, op.F3_MUL): "mul",
    (op.F7_MULDIV, op.F3_MULH): "mulh",
    (op.F7_MULDIV, op.F3_MULHSU): "mulhsu",
    (op.F7_MULDIV, op.F3_MULHU): "mulhu",
    (op.F7_MULDIV, op.F3_DIV): "div",
    (op.F7_MULDIV, op.F3_DIVU): "divu",
    (op.F7_MULDIV, op.F3_REM): "rem",
    (op.F7_MULDIV, op.F3_REMU): "remu",
}
_OP32_MNEMONICS = {
    (op.F7_BASE, op.F3_ADD_SUB): "addw",
    (op.F7_SUB_SRA, op.F3_ADD_SUB): "subw",
    (op.F7_BASE, op.F3_SLL): "sllw",
    (op.F7_BASE, op.F3_SRL_SRA): "srlw",
    (op.F7_SUB_SRA, op.F3_SRL_SRA): "sraw",
    (op.F7_MULDIV, op.F3_MUL): "mulw",
    (op.F7_MULDIV, op.F3_DIV): "divw",
    (op.F7_MULDIV, op.F3_DIVU): "divuw",
    (op.F7_MULDIV, op.F3_REM): "remw",
    (op.F7_MULDIV, op.F3_REMU): "remuw",
}
_CSR_MNEMONICS = {
    op.F3_CSRRW: "csrrw",
    op.F3_CSRRS: "csrrs",
    op.F3_CSRRC: "csrrc",
    op.F3_CSRRWI: "csrrwi",
    op.F3_CSRRSI: "csrrsi",
    op.F3_CSRRCI: "csrrci",
}


def _imm_i(word: int) -> int:
    return sext(bits(word, 31, 20), 12)


def _imm_s(word: int) -> int:
    return sext((bits(word, 31, 25) << 5) | bits(word, 11, 7), 12)


def _imm_b(word: int) -> int:
    value = (
        (bit(word, 31) << 12)
        | (bit(word, 7) << 11)
        | (bits(word, 30, 25) << 5)
        | (bits(word, 11, 8) << 1)
    )
    return sext(value, 13)


def _imm_u(word: int) -> int:
    return sext(bits(word, 31, 12), 20)


def _imm_j(word: int) -> int:
    value = (
        (bit(word, 31) << 20)
        | (bits(word, 19, 12) << 12)
        | (bit(word, 20) << 11)
        | (bits(word, 30, 21) << 1)
    )
    return sext(value, 21)


def _decode32(word: int, xlen: int) -> Instruction:
    """Decode a 32-bit instruction word (the cache-miss handler)."""
    opcode = bits(word, 6, 0)
    rd = bits(word, 11, 7)
    funct3 = bits(word, 14, 12)
    rs1 = bits(word, 19, 15)
    rs2 = bits(word, 24, 20)
    funct7 = bits(word, 31, 25)

    def make(mnemonic: str, **fields) -> Instruction:
        return Instruction(mnemonic=mnemonic, raw=word, **fields)

    if opcode == op.OP_LUI:
        return make("lui", rd=rd, imm=_imm_u(word))
    if opcode == op.OP_AUIPC:
        return make("auipc", rd=rd, imm=_imm_u(word))
    if opcode == op.OP_JAL:
        return make("jal", rd=rd, imm=_imm_j(word))
    if opcode == op.OP_JALR:
        if funct3 != 0:
            raise DecodeError(f"bad JALR funct3={funct3}", word)
        return make("jalr", rd=rd, rs1=rs1, imm=_imm_i(word))
    if opcode == op.OP_BRANCH:
        if funct3 not in _BRANCH_MNEMONICS:
            raise DecodeError(f"bad branch funct3={funct3}", word)
        return make(_BRANCH_MNEMONICS[funct3], rs1=rs1, rs2=rs2, imm=_imm_b(word))
    if opcode == op.OP_LOAD:
        if funct3 not in _LOAD_MNEMONICS:
            raise DecodeError(f"bad load funct3={funct3}", word)
        mnemonic = _LOAD_MNEMONICS[funct3]
        if xlen == 32 and mnemonic in ("ld", "lwu"):
            raise DecodeError(f"{mnemonic} is RV64-only", word)
        return make(mnemonic, rd=rd, rs1=rs1, imm=_imm_i(word))
    if opcode == op.OP_STORE:
        if funct3 not in _STORE_MNEMONICS:
            raise DecodeError(f"bad store funct3={funct3}", word)
        mnemonic = _STORE_MNEMONICS[funct3]
        if xlen == 32 and mnemonic == "sd":
            raise DecodeError("sd is RV64-only", word)
        return make(mnemonic, rs1=rs1, rs2=rs2, imm=_imm_s(word))
    if opcode == op.OP_IMM:
        if funct3 == op.F3_SLL:
            shamt = bits(word, 25, 20) if xlen == 64 else bits(word, 24, 20)
            top = bits(word, 31, 26) if xlen == 64 else funct7
            if top != 0:
                raise DecodeError("bad slli encoding", word)
            return make("slli", rd=rd, rs1=rs1, imm=shamt)
        if funct3 == op.F3_SRL_SRA:
            shamt = bits(word, 25, 20) if xlen == 64 else bits(word, 24, 20)
            top = bits(word, 31, 26) if xlen == 64 else funct7
            arith_bit = 0b010000 if xlen == 64 else op.F7_SUB_SRA
            if top == 0:
                return make("srli", rd=rd, rs1=rs1, imm=shamt)
            if top == arith_bit:
                return make("srai", rd=rd, rs1=rs1, imm=shamt)
            raise DecodeError("bad srli/srai encoding", word)
        if funct3 in _OP_IMM_MNEMONICS:
            return make(_OP_IMM_MNEMONICS[funct3], rd=rd, rs1=rs1, imm=_imm_i(word))
        raise DecodeError(f"bad OP-IMM funct3={funct3}", word)
    if opcode == op.OP_IMM_32:
        if xlen != 64:
            raise DecodeError("OP-IMM-32 is RV64-only", word)
        if funct3 == op.F3_ADD_SUB:
            return make("addiw", rd=rd, rs1=rs1, imm=_imm_i(word))
        if funct3 == op.F3_SLL:
            if funct7 != 0:
                raise DecodeError("bad slliw encoding", word)
            return make("slliw", rd=rd, rs1=rs1, imm=rs2)
        if funct3 == op.F3_SRL_SRA:
            if funct7 == op.F7_BASE:
                return make("srliw", rd=rd, rs1=rs1, imm=rs2)
            if funct7 == op.F7_SUB_SRA:
                return make("sraiw", rd=rd, rs1=rs1, imm=rs2)
            raise DecodeError("bad srliw/sraiw encoding", word)
        raise DecodeError(f"bad OP-IMM-32 funct3={funct3}", word)
    if opcode == op.OP_REG:
        key = (funct7, funct3)
        if key not in _OP_MNEMONICS:
            raise DecodeError(f"bad OP funct7={funct7:#04x} funct3={funct3}", word)
        return make(_OP_MNEMONICS[key], rd=rd, rs1=rs1, rs2=rs2)
    if opcode == op.OP_REG_32:
        if xlen != 64:
            raise DecodeError("OP-32 is RV64-only", word)
        key = (funct7, funct3)
        if key not in _OP32_MNEMONICS:
            raise DecodeError(f"bad OP-32 funct7={funct7:#04x} funct3={funct3}", word)
        return make(_OP32_MNEMONICS[key], rd=rd, rs1=rs1, rs2=rs2)
    if opcode == op.OP_MISC_MEM:
        if funct3 == 0b000:
            return make("fence", rd=rd, rs1=rs1, imm=_imm_i(word))
        if funct3 == 0b001:
            return make("fence.i", rd=rd, rs1=rs1, imm=_imm_i(word))
        raise DecodeError(f"bad MISC-MEM funct3={funct3}", word)
    if opcode == op.OP_SYSTEM:
        if funct3 == op.F3_PRIV:
            imm12 = bits(word, 31, 20)
            if rd != 0 or rs1 != 0:
                raise DecodeError("bad SYSTEM encoding", word)
            if imm12 == op.IMM12_ECALL:
                return make("ecall")
            if imm12 == op.IMM12_EBREAK:
                return make("ebreak")
            if imm12 == op.IMM12_MRET:
                return make("mret")
            if imm12 == op.IMM12_WFI:
                return make("wfi")
            raise DecodeError(f"unsupported SYSTEM imm12={imm12:#x}", word)
        if funct3 in _CSR_MNEMONICS:
            csr = bits(word, 31, 20)
            # For immediate forms rs1 is a 5-bit zero-extended immediate.
            if funct3 in (op.F3_CSRRWI, op.F3_CSRRSI, op.F3_CSRRCI):
                return make(_CSR_MNEMONICS[funct3], rd=rd, imm=rs1, csr=csr)
            return make(_CSR_MNEMONICS[funct3], rd=rd, rs1=rs1, csr=csr)
        raise DecodeError(f"bad SYSTEM funct3={funct3}", word)
    raise DecodeError(f"unsupported opcode {opcode:#04x}", word)


#: Decode-cache size guard; cleared wholesale when exceeded (only fuzz
#: runs ever approach this — real firmware uses a few hundred words).
DECODE_CACHE_LIMIT = 1 << 16

_DECODE_CACHE: Dict[Tuple[int, int], Instruction] = {}


def clear_decode_cache() -> None:
    """Drop every memoised decode (tests and benchmarks)."""
    _DECODE_CACHE.clear()


def decode_cache_size() -> int:
    """Number of distinct ``(word, xlen)`` entries currently cached."""
    return len(_DECODE_CACHE)


def decode(word: int, xlen: int = 64) -> Instruction:
    """Decode a fetched instruction word.

    Successful decodes are memoised (see the module docstring for the
    cache invariants); the hot path is a single dict lookup.

    Args:
        word: raw bits; only the low 32 are used.
        xlen: 32 or 64 — affects RV64-only encodings and shift widths.

    Returns:
        a populated :class:`Instruction`.

    Raises:
        DecodeError: for illegal or unsupported encodings.
    """
    word &= 0xFFFFFFFF
    key = (word, xlen)
    cached = _DECODE_CACHE.get(key)
    if cached is not None:
        return cached
    if xlen not in (32, 64):
        raise ValueError(f"xlen must be 32 or 64, got {xlen}")
    insn = _decode32(word, xlen)
    if len(_DECODE_CACHE) >= DECODE_CACHE_LIMIT:
        _DECODE_CACHE.clear()
    _DECODE_CACHE[key] = insn
    return insn

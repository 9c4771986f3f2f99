"""A two-pass RISC-V assembler for RV32/RV64 IM + Zicsr.

The assembler exists so that the OpenTitan CFI firmware (paper §IV-C) and
the attack/victim programs can be written as genuine RISC-V assembly and
executed on the instruction-set simulators.  It supports:

* all instructions handled by :mod:`repro.isa.decode`,
* the usual pseudo-instructions (``li``, ``la``, ``mv``, ``ret``,
  ``call``, ``j``, ``beqz``...),
* labels, ``%hi``/``%lo`` relocations and ``symbol+offset`` expressions,
* data directives (``.word``, ``.half``, ``.byte``, ``.space``,
  ``.align``, ``.org``, ``.equ``),
* a ``.region NAME`` annotation directive that tags all following bytes
  with a classification region.  The Table I harness uses regions to
  split executed cycles into *IRQ* versus *CFI* work exactly as the
  paper does.

Every instruction is emitted as one 4-byte encoding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import AssemblerError, EncodeError
from repro.isa import opcodes as op
from repro.isa.encode import (
    encode_b,
    encode_i,
    encode_i_unsigned,
    encode_j,
    encode_r,
    encode_s,
    encode_shift,
    encode_u,
)
from repro.isa.registers import reg_index
from repro.utils.bits import align_up, mask, sext


@dataclass
class Program:
    """Output of the assembler.

    Attributes:
        base: load address of the first byte.
        data: raw image bytes.
        symbols: label → absolute address.
        regions: sorted ``(start_address, name)`` pairs from ``.region``.
        line_map: address → 1-based source line (for traces/profiling).
    """

    base: int
    data: bytes
    symbols: Dict[str, int] = field(default_factory=dict)
    regions: List[Tuple[int, str]] = field(default_factory=list)
    line_map: Dict[int, int] = field(default_factory=dict)

    @property
    def end(self) -> int:
        """Address one past the last byte."""
        return self.base + len(self.data)

    def symbol(self, name: str) -> int:
        """Address of ``name``; raises for unknown symbols."""
        if name not in self.symbols:
            raise KeyError(f"unknown symbol {name!r}")
        return self.symbols[name]

    def region_at(self, address: int) -> Optional[str]:
        """Region name covering ``address``, or ``None``."""
        found = None
        for start, name in self.regions:
            if start <= address:
                found = name
            else:
                break
        return found


# An emit thunk resolves to a 32-bit word once symbols are known.
_EmitFn = Callable[[Dict[str, int], int], int]

#: Memoised (xlen, base, source) → Program.  Sources are small and the
#: benchmark harnesses assemble the same handful of images thousands of
#: times; the limit is a guard against pathological generated inputs.
_ASSEMBLY_CACHE: Dict[Tuple[int, int, str], Program] = {}
_ASSEMBLY_CACHE_LIMIT = 512


@dataclass
class _Item:
    """One unit of output scheduled during pass 1."""

    address: int
    size: int
    line: int
    emit: Optional[_EmitFn] = None     # instruction (size 4)
    data: Optional[bytes] = None       # literal data bytes


_OPERAND_SPLIT = re.compile(r",(?![^()]*\))")
_MEM_OPERAND = re.compile(r"^(?P<off>[^()]*)\((?P<reg>[^()]+)\)$")
_HI_LO = re.compile(r"^%(?P<kind>hi|lo)\((?P<expr>[^()]+)\)$")


class Assembler:
    """Two-pass assembler targeting RV32 or RV64.

    Args:
        xlen: 32 or 64; gates RV64-only mnemonics and shift ranges.
    """

    def __init__(self, xlen: int = 32):
        if xlen not in (32, 64):
            raise ValueError(f"xlen must be 32 or 64, got {xlen}")
        self.xlen = xlen

    # -- public API --------------------------------------------------------

    def assemble(self, source: str, base: int = 0) -> Program:
        """Assemble ``source`` into a :class:`Program` loaded at ``base``.

        Assembly is a pure function of ``(xlen, base, source)`` and the
        produced :class:`Program` is treated as immutable everywhere, so
        results are memoised — benchmark harnesses re-assemble the same
        firmware and victim images for every scenario, and the cached
        image makes that free.
        """
        key = (self.xlen, base, source)
        cached = _ASSEMBLY_CACHE.get(key)
        if cached is not None:
            return cached
        items, symbols, regions = self._pass1(source, base)
        program = self._pass2(items, symbols, regions, base)
        if len(_ASSEMBLY_CACHE) >= _ASSEMBLY_CACHE_LIMIT:
            _ASSEMBLY_CACHE.clear()
        _ASSEMBLY_CACHE[key] = program
        return program

    # -- pass 1: parse, size, collect symbols ------------------------------

    def _pass1(
        self, source: str, base: int
    ) -> Tuple[List[_Item], Dict[str, int], List[Tuple[int, str]]]:
        items: List[_Item] = []
        symbols: Dict[str, int] = {}
        regions: List[Tuple[int, str]] = []
        pc = base

        for lineno, raw_line in enumerate(source.splitlines(), start=1):
            line = self._strip_comment(raw_line).strip()
            if not line:
                continue
            # Peel off any leading labels.
            while True:
                match = re.match(r"^([A-Za-z_.$][\w.$]*)\s*:\s*(.*)$", line)
                if not match:
                    break
                label = match.group(1)
                if label in symbols:
                    raise AssemblerError(f"duplicate label {label!r}", lineno)
                symbols[label] = pc
                line = match.group(2).strip()
            if not line:
                continue

            if line.startswith("."):
                pc = self._directive_pass1(
                    line, pc, lineno, items, symbols, regions
                )
                continue

            for emit in self._expand_instruction(line, pc, lineno):
                items.append(_Item(address=pc, size=4, line=lineno, emit=emit))
                pc += 4
        return items, symbols, regions

    def _directive_pass1(
        self,
        line: str,
        pc: int,
        lineno: int,
        items: List[_Item],
        symbols: Dict[str, int],
        regions: List[Tuple[int, str]],
    ) -> int:
        name, _, rest = line.partition(" ")
        rest = rest.strip()
        if name == ".org":
            target = self._parse_int(rest, lineno)
            if target < pc:
                raise AssemblerError(f".org cannot move backwards to {target:#x}", lineno)
            if target > pc:
                items.append(_Item(pc, target - pc, lineno, data=bytes(target - pc)))
            return target
        if name == ".align":
            alignment = 1 << self._parse_int(rest, lineno)
            target = align_up(pc, alignment)
            if target > pc:
                items.append(_Item(pc, target - pc, lineno, data=bytes(target - pc)))
            return target
        if name == ".space":
            count = self._parse_int(rest, lineno)
            items.append(_Item(pc, count, lineno, data=bytes(count)))
            return pc + count
        if name == ".equ":
            parts = [p.strip() for p in rest.split(",")]
            if len(parts) != 2:
                raise AssemblerError(".equ expects NAME, VALUE", lineno)
            symbols[parts[0]] = self._parse_int(parts[1], lineno)
            return pc
        if name == ".region":
            if not rest:
                raise AssemblerError(".region expects a name", lineno)
            regions.append((pc, rest))
            return pc
        if name in (".word", ".half", ".byte", ".dword"):
            width = {".byte": 1, ".half": 2, ".word": 4, ".dword": 8}[name]
            values = [v.strip() for v in rest.split(",") if v.strip()]
            blob = bytearray()
            for value_text in values:
                value = self._parse_int(value_text, lineno) & mask(width * 8)
                blob += value.to_bytes(width, "little")
            items.append(_Item(pc, len(blob), lineno, data=bytes(blob)))
            return pc + len(blob)
        if name == ".ascii" or name == ".asciz":
            match = re.match(r'^"(.*)"$', rest)
            if not match:
                raise AssemblerError(f"{name} expects a quoted string", lineno)
            blob = match.group(1).encode("utf-8").decode("unicode_escape").encode("latin-1")
            if name == ".asciz":
                blob += b"\x00"
            items.append(_Item(pc, len(blob), lineno, data=bytes(blob)))
            return pc + len(blob)
        if name in (".text", ".data", ".globl", ".global", ".section", ".option"):
            # Accepted for source compatibility; a single flat image is built.
            return pc
        raise AssemblerError(f"unknown directive {name}", lineno)

    # -- pass 2: resolve and encode ----------------------------------------

    def _pass2(
        self,
        items: List[_Item],
        symbols: Dict[str, int],
        regions: List[Tuple[int, str]],
        base: int,
    ) -> Program:
        if items:
            total = items[-1].address + items[-1].size - base
        else:
            total = 0
        image = bytearray(total)
        line_map: Dict[int, int] = {}
        for item in items:
            offset = item.address - base
            if item.data is not None:
                image[offset : offset + item.size] = item.data
                continue
            assert item.emit is not None
            try:
                word = item.emit(symbols, item.address)
            except EncodeError as exc:
                raise AssemblerError(str(exc), item.line) from exc
            image[offset : offset + 4] = word.to_bytes(4, "little")
            line_map[item.address] = item.line
        return Program(
            base=base,
            data=bytes(image),
            symbols=dict(symbols),
            regions=sorted(regions),
            line_map=line_map,
        )

    # -- instruction expansion ---------------------------------------------

    def _expand_instruction(self, line: str, pc: int, lineno: int) -> List[_EmitFn]:
        mnemonic, _, rest = line.partition(" ")
        mnemonic = mnemonic.lower()
        operands = [o.strip() for o in _OPERAND_SPLIT.split(rest)] if rest.strip() else []

        expander = _PSEUDO_EXPANDERS.get(mnemonic)
        if expander is not None:
            return expander(self, operands, lineno)
        return [self._encode_native(mnemonic, operands, lineno)]

    # Native encodings -------------------------------------------------------

    def _encode_native(self, mnemonic: str, ops: List[str], lineno: int) -> _EmitFn:
        xlen = self.xlen

        def want(count: int) -> None:
            if len(ops) != count:
                raise AssemblerError(
                    f"{mnemonic} expects {count} operands, got {len(ops)}", lineno
                )

        if mnemonic in _R_TYPE_TABLE:
            want(3)
            opcode, funct3, funct7, rv64_only = _R_TYPE_TABLE[mnemonic]
            if rv64_only and xlen != 64:
                raise AssemblerError(f"{mnemonic} is RV64-only", lineno)
            rd, rs1, rs2 = (self._reg(o, lineno) for o in ops)
            return lambda sym, pc: encode_r(opcode, funct3, funct7, rd, rs1, rs2)

        if mnemonic in _I_ALU_TABLE:
            want(3)
            opcode, funct3, rv64_only = _I_ALU_TABLE[mnemonic]
            if rv64_only and xlen != 64:
                raise AssemblerError(f"{mnemonic} is RV64-only", lineno)
            rd = self._reg(ops[0], lineno)
            rs1 = self._reg(ops[1], lineno)
            imm_expr = ops[2]
            return lambda sym, pc: encode_i(
                opcode, funct3, rd, rs1, self._eval(imm_expr, sym, lineno)
            )

        if mnemonic in _SHIFT_TABLE:
            want(3)
            opcode, funct3, funct7, rv64_only, narrow = _SHIFT_TABLE[mnemonic]
            if rv64_only and xlen != 64:
                raise AssemblerError(f"{mnemonic} is RV64-only", lineno)
            rd = self._reg(ops[0], lineno)
            rs1 = self._reg(ops[1], lineno)
            imm_expr = ops[2]
            shift_xlen = 32 if narrow else xlen
            return lambda sym, pc: encode_shift(
                opcode, funct3, funct7, rd, rs1,
                self._eval(imm_expr, sym, lineno), shift_xlen,
            )

        if mnemonic in _LOAD_TABLE:
            want(2)
            funct3, rv64_only = _LOAD_TABLE[mnemonic]
            if rv64_only and xlen != 64:
                raise AssemblerError(f"{mnemonic} is RV64-only", lineno)
            rd = self._reg(ops[0], lineno)
            offset_expr, rs1 = self._mem_operand(ops[1], lineno)
            return lambda sym, pc: encode_i(
                op.OP_LOAD, funct3, rd, rs1, self._eval(offset_expr, sym, lineno)
            )

        if mnemonic in _STORE_TABLE:
            want(2)
            funct3, rv64_only = _STORE_TABLE[mnemonic]
            if rv64_only and xlen != 64:
                raise AssemblerError(f"{mnemonic} is RV64-only", lineno)
            rs2 = self._reg(ops[0], lineno)
            offset_expr, rs1 = self._mem_operand(ops[1], lineno)
            return lambda sym, pc: encode_s(
                op.OP_STORE, funct3, rs1, rs2, self._eval(offset_expr, sym, lineno)
            )

        if mnemonic in _BRANCH_TABLE:
            want(3)
            funct3 = _BRANCH_TABLE[mnemonic]
            rs1 = self._reg(ops[0], lineno)
            rs2 = self._reg(ops[1], lineno)
            target = ops[2]
            return lambda sym, pc: encode_b(
                op.OP_BRANCH, funct3, rs1, rs2, self._eval(target, sym, lineno) - pc
            )

        if mnemonic == "lui" or mnemonic == "auipc":
            want(2)
            opcode = op.OP_LUI if mnemonic == "lui" else op.OP_AUIPC
            rd = self._reg(ops[0], lineno)
            imm_expr = ops[1]
            return lambda sym, pc: encode_u(
                opcode, rd, sext(self._eval(imm_expr, sym, lineno), 20)
            )

        if mnemonic == "jal":
            # Accept both `jal rd, target` and pseudo `jal target` (rd=ra).
            if len(ops) == 1:
                rd, target = 1, ops[0]
            else:
                want(2)
                rd, target = self._reg(ops[0], lineno), ops[1]
            return lambda sym, pc: encode_j(
                op.OP_JAL, rd, self._eval(target, sym, lineno) - pc
            )

        if mnemonic == "jalr":
            # Accept `jalr rd, imm(rs1)`, `jalr rd, rs1, imm`, and `jalr rs1`.
            if len(ops) == 1:
                rd, rs1, imm_expr = 1, self._reg(ops[0], lineno), "0"
            elif len(ops) == 2:
                rd = self._reg(ops[0], lineno)
                offset_expr, rs1 = self._mem_operand(ops[1], lineno)
                imm_expr = offset_expr
            else:
                want(3)
                rd = self._reg(ops[0], lineno)
                rs1 = self._reg(ops[1], lineno)
                imm_expr = ops[2]
            return lambda sym, pc: encode_i(
                op.OP_JALR, 0, rd, rs1, self._eval(imm_expr, sym, lineno)
            )

        if mnemonic in _CSR_TABLE:
            want(3)
            funct3, immediate_form = _CSR_TABLE[mnemonic]
            rd = self._reg(ops[0], lineno)
            csr_expr = ops[1]
            if immediate_form:
                zimm_expr = ops[2]
                return lambda sym, pc: encode_i_unsigned(
                    op.OP_SYSTEM, funct3, rd,
                    self._eval(zimm_expr, sym, lineno),
                    self._csr(csr_expr, sym, lineno),
                )
            rs1 = self._reg(ops[2], lineno)
            return lambda sym, pc: encode_i_unsigned(
                op.OP_SYSTEM, funct3, rd, rs1, self._csr(csr_expr, sym, lineno)
            )

        if mnemonic in _SYSTEM_TABLE:
            want(0)
            imm12 = _SYSTEM_TABLE[mnemonic]
            return lambda sym, pc: encode_i_unsigned(
                op.OP_SYSTEM, op.F3_PRIV, 0, 0, imm12
            )

        if mnemonic == "fence":
            return lambda sym, pc: encode_i(op.OP_MISC_MEM, 0, 0, 0, 0x0FF)

        if mnemonic == "fence.i":
            want(0)
            return lambda sym, pc: encode_i(op.OP_MISC_MEM, 0b001, 0, 0, 0)

        raise AssemblerError(f"unknown mnemonic {mnemonic!r}", lineno)

    # Operand helpers --------------------------------------------------------

    def _reg(self, text: str, lineno: int) -> int:
        try:
            return reg_index(text)
        except ValueError as exc:
            raise AssemblerError(str(exc), lineno) from exc

    def _mem_operand(self, text: str, lineno: int) -> Tuple[str, int]:
        match = _MEM_OPERAND.match(text.strip())
        if not match:
            raise AssemblerError(f"expected offset(reg), got {text!r}", lineno)
        offset = match.group("off").strip() or "0"
        return offset, self._reg(match.group("reg"), lineno)

    def _parse_int(self, text: str, lineno: int) -> int:
        try:
            return int(text.strip(), 0)
        except ValueError as exc:
            raise AssemblerError(f"bad integer {text!r}", lineno) from exc

    def _csr(self, text: str, symbols: Dict[str, int], lineno: int) -> int:
        key = text.strip().lower()
        if key in op.CSR_BY_NAME:
            return op.CSR_BY_NAME[key]
        return self._eval(text, symbols, lineno)

    def _eval(self, expr: str, symbols: Dict[str, int], lineno: int) -> int:
        """Evaluate an immediate expression: int, symbol, sym±off, %hi/%lo."""
        expr = expr.strip()
        match = _HI_LO.match(expr)
        if match:
            value = self._eval(match.group("expr"), symbols, lineno)
            if match.group("kind") == "hi":
                # Compensate for the sign extension of the low 12 bits.
                return ((value + 0x800) >> 12) & mask(20)
            return sext(value & mask(12), 12)
        # symbol ± offset
        for sep in ("+", "-"):
            if sep in expr[1:]:
                head, _, tail = expr.rpartition(sep)
                head, tail = head.strip(), tail.strip()
                if head and not _looks_numeric(head):
                    base_value = self._eval(head, symbols, lineno)
                    offset = self._parse_int(tail, lineno)
                    return base_value + offset if sep == "+" else base_value - offset
        if _looks_numeric(expr):
            return self._parse_int(expr, lineno)
        if expr in symbols:
            return symbols[expr]
        raise AssemblerError(f"unknown symbol {expr!r}", lineno)

    @staticmethod
    def _strip_comment(line: str) -> str:
        for marker in ("#", "//", ";"):
            index = line.find(marker)
            if index >= 0:
                line = line[:index]
        return line


def _looks_numeric(text: str) -> bool:
    text = text.strip()
    if not text:
        return False
    if text[0] in "+-":
        text = text[1:]
    return bool(text) and (text[0].isdigit())


# --------------------------------------------------------------------------
# Instruction tables: mnemonic → encoding parameters.
# --------------------------------------------------------------------------

_R_TYPE_TABLE: Dict[str, Tuple[int, int, int, bool]] = {
    # name: (opcode, funct3, funct7, rv64_only)
    "add": (op.OP_REG, op.F3_ADD_SUB, op.F7_BASE, False),
    "sub": (op.OP_REG, op.F3_ADD_SUB, op.F7_SUB_SRA, False),
    "sll": (op.OP_REG, op.F3_SLL, op.F7_BASE, False),
    "slt": (op.OP_REG, op.F3_SLT, op.F7_BASE, False),
    "sltu": (op.OP_REG, op.F3_SLTU, op.F7_BASE, False),
    "xor": (op.OP_REG, op.F3_XOR, op.F7_BASE, False),
    "srl": (op.OP_REG, op.F3_SRL_SRA, op.F7_BASE, False),
    "sra": (op.OP_REG, op.F3_SRL_SRA, op.F7_SUB_SRA, False),
    "or": (op.OP_REG, op.F3_OR, op.F7_BASE, False),
    "and": (op.OP_REG, op.F3_AND, op.F7_BASE, False),
    "mul": (op.OP_REG, op.F3_MUL, op.F7_MULDIV, False),
    "mulh": (op.OP_REG, op.F3_MULH, op.F7_MULDIV, False),
    "mulhsu": (op.OP_REG, op.F3_MULHSU, op.F7_MULDIV, False),
    "mulhu": (op.OP_REG, op.F3_MULHU, op.F7_MULDIV, False),
    "div": (op.OP_REG, op.F3_DIV, op.F7_MULDIV, False),
    "divu": (op.OP_REG, op.F3_DIVU, op.F7_MULDIV, False),
    "rem": (op.OP_REG, op.F3_REM, op.F7_MULDIV, False),
    "remu": (op.OP_REG, op.F3_REMU, op.F7_MULDIV, False),
    "addw": (op.OP_REG_32, op.F3_ADD_SUB, op.F7_BASE, True),
    "subw": (op.OP_REG_32, op.F3_ADD_SUB, op.F7_SUB_SRA, True),
    "sllw": (op.OP_REG_32, op.F3_SLL, op.F7_BASE, True),
    "srlw": (op.OP_REG_32, op.F3_SRL_SRA, op.F7_BASE, True),
    "sraw": (op.OP_REG_32, op.F3_SRL_SRA, op.F7_SUB_SRA, True),
    "mulw": (op.OP_REG_32, op.F3_MUL, op.F7_MULDIV, True),
    "divw": (op.OP_REG_32, op.F3_DIV, op.F7_MULDIV, True),
    "divuw": (op.OP_REG_32, op.F3_DIVU, op.F7_MULDIV, True),
    "remw": (op.OP_REG_32, op.F3_REM, op.F7_MULDIV, True),
    "remuw": (op.OP_REG_32, op.F3_REMU, op.F7_MULDIV, True),
}

_I_ALU_TABLE: Dict[str, Tuple[int, int, bool]] = {
    "addi": (op.OP_IMM, op.F3_ADD_SUB, False),
    "slti": (op.OP_IMM, op.F3_SLT, False),
    "sltiu": (op.OP_IMM, op.F3_SLTU, False),
    "xori": (op.OP_IMM, op.F3_XOR, False),
    "ori": (op.OP_IMM, op.F3_OR, False),
    "andi": (op.OP_IMM, op.F3_AND, False),
    "addiw": (op.OP_IMM_32, op.F3_ADD_SUB, True),
}

_SHIFT_TABLE: Dict[str, Tuple[int, int, int, bool, bool]] = {
    # name: (opcode, funct3, funct7, rv64_only, narrow-shamt)
    "slli": (op.OP_IMM, op.F3_SLL, op.F7_BASE, False, False),
    "srli": (op.OP_IMM, op.F3_SRL_SRA, op.F7_BASE, False, False),
    "srai": (op.OP_IMM, op.F3_SRL_SRA, op.F7_SUB_SRA, False, False),
    "slliw": (op.OP_IMM_32, op.F3_SLL, op.F7_BASE, True, True),
    "srliw": (op.OP_IMM_32, op.F3_SRL_SRA, op.F7_BASE, True, True),
    "sraiw": (op.OP_IMM_32, op.F3_SRL_SRA, op.F7_SUB_SRA, True, True),
}

_LOAD_TABLE: Dict[str, Tuple[int, bool]] = {
    "lb": (op.F3_LB, False),
    "lh": (op.F3_LH, False),
    "lw": (op.F3_LW, False),
    "lbu": (op.F3_LBU, False),
    "lhu": (op.F3_LHU, False),
    "lwu": (op.F3_LWU, True),
    "ld": (op.F3_LD, True),
}

_STORE_TABLE: Dict[str, Tuple[int, bool]] = {
    "sb": (op.F3_SB, False),
    "sh": (op.F3_SH, False),
    "sw": (op.F3_SW, False),
    "sd": (op.F3_SD, True),
}

_BRANCH_TABLE: Dict[str, int] = {
    "beq": op.F3_BEQ,
    "bne": op.F3_BNE,
    "blt": op.F3_BLT,
    "bge": op.F3_BGE,
    "bltu": op.F3_BLTU,
    "bgeu": op.F3_BGEU,
}

_CSR_TABLE: Dict[str, Tuple[int, bool]] = {
    "csrrw": (op.F3_CSRRW, False),
    "csrrs": (op.F3_CSRRS, False),
    "csrrc": (op.F3_CSRRC, False),
    "csrrwi": (op.F3_CSRRWI, True),
    "csrrsi": (op.F3_CSRRSI, True),
    "csrrci": (op.F3_CSRRCI, True),
}

_SYSTEM_TABLE: Dict[str, int] = {
    "ecall": op.IMM12_ECALL,
    "ebreak": op.IMM12_EBREAK,
    "mret": op.IMM12_MRET,
    "wfi": op.IMM12_WFI,
}


# --------------------------------------------------------------------------
# Pseudo-instruction expanders.  Each returns a list of emit thunks; pass 1
# relies on the list length for address assignment, so expansion size must
# not depend on symbol values (``li`` with a symbolic operand conservatively
# uses the two-instruction form).
# --------------------------------------------------------------------------


def _pseudo_nop(asm: Assembler, ops: List[str], lineno: int) -> List[_EmitFn]:
    _expect(ops, 0, "nop", lineno)
    return [lambda sym, pc: encode_i(op.OP_IMM, op.F3_ADD_SUB, 0, 0, 0)]


def _pseudo_li(asm: Assembler, ops: List[str], lineno: int) -> List[_EmitFn]:
    _expect(ops, 2, "li", lineno)
    rd = asm._reg(ops[0], lineno)
    expr = ops[1]
    literal: Optional[int] = None
    if _looks_numeric(expr):
        literal = asm._parse_int(expr, lineno)
    if literal is not None and -2048 <= literal <= 2047:
        return [lambda sym, pc: encode_i(op.OP_IMM, op.F3_ADD_SUB, rd, 0, literal)]

    # Two-instruction form covering the signed 32-bit range.  RV32 uses
    # lui+addi; RV64 must use lui+addiw because lui sign-extends bit 31
    # (the same sequence GCC emits).
    low_opcode = op.OP_IMM_32 if asm.xlen == 64 else op.OP_IMM

    def emit_lui(sym: Dict[str, int], pc: int) -> int:
        value = asm._eval(expr, sym, lineno)
        hi = ((value + 0x800) >> 12) & mask(20)
        return encode_u(op.OP_LUI, rd, sext(hi, 20))

    def emit_low(sym: Dict[str, int], pc: int) -> int:
        value = asm._eval(expr, sym, lineno)
        lo = sext(value & mask(12), 12)
        return encode_i(low_opcode, op.F3_ADD_SUB, rd, rd, lo)

    return [emit_lui, emit_low]


def _pseudo_la(asm: Assembler, ops: List[str], lineno: int) -> List[_EmitFn]:
    _expect(ops, 2, "la", lineno)
    rd = asm._reg(ops[0], lineno)
    expr = ops[1]

    # PC-relative auipc+addi (the medany code model): correct on RV64,
    # where absolute lui-based materialisation sign-extends bit 31, and
    # equally valid on RV32 where addresses wrap mod 2^32.
    def emit_auipc(sym: Dict[str, int], pc: int) -> int:
        offset = (asm._eval(expr, sym, lineno) - pc) & mask(32)
        hi = ((offset + 0x800) >> 12) & mask(20)
        return encode_u(op.OP_AUIPC, rd, sext(hi, 20))

    def emit_addi(sym: Dict[str, int], pc: int) -> int:
        # pc here points at the addi; the auipc sits 4 bytes earlier.
        offset = (asm._eval(expr, sym, lineno) - (pc - 4)) & mask(32)
        lo = sext(offset & mask(12), 12)
        return encode_i(op.OP_IMM, op.F3_ADD_SUB, rd, rd, lo)

    return [emit_auipc, emit_addi]


def _pseudo_mv(asm: Assembler, ops: List[str], lineno: int) -> List[_EmitFn]:
    _expect(ops, 2, "mv", lineno)
    rd = asm._reg(ops[0], lineno)
    rs1 = asm._reg(ops[1], lineno)
    return [lambda sym, pc: encode_i(op.OP_IMM, op.F3_ADD_SUB, rd, rs1, 0)]


def _pseudo_not(asm: Assembler, ops: List[str], lineno: int) -> List[_EmitFn]:
    _expect(ops, 2, "not", lineno)
    rd = asm._reg(ops[0], lineno)
    rs1 = asm._reg(ops[1], lineno)
    return [lambda sym, pc: encode_i(op.OP_IMM, op.F3_XOR, rd, rs1, -1)]


def _pseudo_neg(asm: Assembler, ops: List[str], lineno: int) -> List[_EmitFn]:
    _expect(ops, 2, "neg", lineno)
    rd = asm._reg(ops[0], lineno)
    rs2 = asm._reg(ops[1], lineno)
    return [lambda sym, pc: encode_r(op.OP_REG, op.F3_ADD_SUB, op.F7_SUB_SRA, rd, 0, rs2)]


def _pseudo_seqz(asm: Assembler, ops: List[str], lineno: int) -> List[_EmitFn]:
    _expect(ops, 2, "seqz", lineno)
    rd = asm._reg(ops[0], lineno)
    rs1 = asm._reg(ops[1], lineno)
    return [lambda sym, pc: encode_i(op.OP_IMM, op.F3_SLTU, rd, rs1, 1)]


def _pseudo_snez(asm: Assembler, ops: List[str], lineno: int) -> List[_EmitFn]:
    _expect(ops, 2, "snez", lineno)
    rd = asm._reg(ops[0], lineno)
    rs2 = asm._reg(ops[1], lineno)
    return [lambda sym, pc: encode_r(op.OP_REG, op.F3_SLTU, op.F7_BASE, rd, 0, rs2)]


def _branch_zero(funct3: int, swap: bool = False):
    def expand(asm: Assembler, ops: List[str], lineno: int) -> List[_EmitFn]:
        _expect(ops, 2, "branch", lineno)
        rs = asm._reg(ops[0], lineno)
        target = ops[1]
        rs1, rs2 = (0, rs) if swap else (rs, 0)
        return [
            lambda sym, pc: encode_b(
                op.OP_BRANCH, funct3, rs1, rs2, asm._eval(target, sym, lineno) - pc
            )
        ]

    return expand


def _branch_swapped(funct3: int):
    """bgt/ble/bgtu/bleu: swap operands of blt/bge."""

    def expand(asm: Assembler, ops: List[str], lineno: int) -> List[_EmitFn]:
        _expect(ops, 3, "branch", lineno)
        rs1 = asm._reg(ops[0], lineno)
        rs2 = asm._reg(ops[1], lineno)
        target = ops[2]
        return [
            lambda sym, pc: encode_b(
                op.OP_BRANCH, funct3, rs2, rs1, asm._eval(target, sym, lineno) - pc
            )
        ]

    return expand


def _pseudo_j(asm: Assembler, ops: List[str], lineno: int) -> List[_EmitFn]:
    _expect(ops, 1, "j", lineno)
    target = ops[0]
    return [lambda sym, pc: encode_j(op.OP_JAL, 0, asm._eval(target, sym, lineno) - pc)]


def _pseudo_jr(asm: Assembler, ops: List[str], lineno: int) -> List[_EmitFn]:
    _expect(ops, 1, "jr", lineno)
    rs1 = asm._reg(ops[0], lineno)
    return [lambda sym, pc: encode_i(op.OP_JALR, 0, 0, rs1, 0)]


def _pseudo_ret(asm: Assembler, ops: List[str], lineno: int) -> List[_EmitFn]:
    _expect(ops, 0, "ret", lineno)
    return [lambda sym, pc: encode_i(op.OP_JALR, 0, 0, 1, 0)]


def _pseudo_call(asm: Assembler, ops: List[str], lineno: int) -> List[_EmitFn]:
    _expect(ops, 1, "call", lineno)
    target = ops[0]
    # Near call: single jal ra (all reproduction images are < 1 MiB).
    return [lambda sym, pc: encode_j(op.OP_JAL, 1, asm._eval(target, sym, lineno) - pc)]


def _pseudo_tail(asm: Assembler, ops: List[str], lineno: int) -> List[_EmitFn]:
    _expect(ops, 1, "tail", lineno)
    target = ops[0]
    return [lambda sym, pc: encode_j(op.OP_JAL, 0, asm._eval(target, sym, lineno) - pc)]


def _pseudo_csrr(asm: Assembler, ops: List[str], lineno: int) -> List[_EmitFn]:
    _expect(ops, 2, "csrr", lineno)
    rd = asm._reg(ops[0], lineno)
    csr_expr = ops[1]
    return [
        lambda sym, pc: encode_i_unsigned(
            op.OP_SYSTEM, op.F3_CSRRS, rd, 0, asm._csr(csr_expr, sym, lineno)
        )
    ]


def _csr_write(funct3: int):
    def expand(asm: Assembler, ops: List[str], lineno: int) -> List[_EmitFn]:
        _expect(ops, 2, "csr-op", lineno)
        csr_expr = ops[0]
        rs1 = asm._reg(ops[1], lineno)
        return [
            lambda sym, pc: encode_i_unsigned(
                op.OP_SYSTEM, funct3, 0, rs1, asm._csr(csr_expr, sym, lineno)
            )
        ]

    return expand


def _csr_write_imm(funct3: int):
    def expand(asm: Assembler, ops: List[str], lineno: int) -> List[_EmitFn]:
        _expect(ops, 2, "csr-imm-op", lineno)
        csr_expr = ops[0]
        zimm_expr = ops[1]
        return [
            lambda sym, pc: encode_i_unsigned(
                op.OP_SYSTEM, funct3, 0,
                asm._eval(zimm_expr, sym, lineno),
                asm._csr(csr_expr, sym, lineno),
            )
        ]

    return expand


def _expect(ops: Sequence[str], count: int, name: str, lineno: int) -> None:
    if len(ops) != count:
        raise AssemblerError(f"{name} expects {count} operands, got {len(ops)}", lineno)


_PSEUDO_EXPANDERS: Dict[str, Callable[[Assembler, List[str], int], List[_EmitFn]]] = {
    "nop": _pseudo_nop,
    "li": _pseudo_li,
    "la": _pseudo_la,
    "mv": _pseudo_mv,
    "not": _pseudo_not,
    "neg": _pseudo_neg,
    "seqz": _pseudo_seqz,
    "snez": _pseudo_snez,
    "beqz": _branch_zero(op.F3_BEQ),
    "bnez": _branch_zero(op.F3_BNE),
    "bltz": _branch_zero(op.F3_BLT),
    "bgez": _branch_zero(op.F3_BGE),
    "blez": _branch_zero(op.F3_BGE, swap=True),
    "bgtz": _branch_zero(op.F3_BLT, swap=True),
    "bgt": _branch_swapped(op.F3_BLT),
    "ble": _branch_swapped(op.F3_BGE),
    "bgtu": _branch_swapped(op.F3_BLTU),
    "bleu": _branch_swapped(op.F3_BGEU),
    "j": _pseudo_j,
    "jr": _pseudo_jr,
    "ret": _pseudo_ret,
    "call": _pseudo_call,
    "tail": _pseudo_tail,
    "csrr": _pseudo_csrr,
    "csrw": _csr_write(op.F3_CSRRW),
    "csrs": _csr_write(op.F3_CSRRS),
    "csrc": _csr_write(op.F3_CSRRC),
    "csrwi": _csr_write_imm(op.F3_CSRRWI),
    "csrsi": _csr_write_imm(op.F3_CSRRSI),
    "csrci": _csr_write_imm(op.F3_CSRRCI),
}


def assemble(source: str, base: int = 0, xlen: int = 32) -> Program:
    """One-shot convenience wrapper around :class:`Assembler`."""
    return Assembler(xlen=xlen).assemble(source, base=base)

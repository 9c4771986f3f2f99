"""RISC-V ISA substrate: decode, encode, assemble, classify.

This package implements the subset of RV32/RV64 needed by the TitanCFI
reproduction end to end:

* base integer ISA (RV32I / RV64I),
* the M extension (multiply/divide),
* Zicsr and the machine-mode system instructions (``mret``, ``wfi``)
  required by the OpenTitan firmware model.

The public entry points are :func:`repro.isa.decode.decode`,
:class:`repro.isa.asm.Assembler` and the control-flow classifier in
:mod:`repro.isa.cflow`.
"""

from repro.isa.registers import REG_COUNT, abi_name, reg_index, RA, SP, GP, TP, ZERO
from repro.isa.decode import Instruction, decode
from repro.isa.cflow import (
    CfKind,
    classify,
    is_control_flow,
    is_call,
    is_return,
    is_indirect_jump,
)
from repro.isa.asm import Assembler, assemble, Program

__all__ = [
    "REG_COUNT",
    "abi_name",
    "reg_index",
    "RA",
    "SP",
    "GP",
    "TP",
    "ZERO",
    "Instruction",
    "decode",
    "CfKind",
    "classify",
    "is_control_flow",
    "is_call",
    "is_return",
    "is_indirect_jump",
    "Assembler",
    "assemble",
    "Program",
]

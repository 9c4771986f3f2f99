"""RISC-V integer register file names and ABI aliases.

The CFI classification rules in the RISC-V ABI treat ``x1`` (``ra``) and
``x5`` (``t0``) as link registers, so the register naming layer is load-
bearing for the paper's filter logic, not just cosmetics.
"""

from __future__ import annotations

from typing import Dict, List

REG_COUNT = 32

# Canonical ABI names, indexed by register number.
ABI_NAMES: List[str] = [
    "zero", "ra", "sp", "gp", "tp",
    "t0", "t1", "t2",
    "s0", "s1",
    "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
    "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
    "t3", "t4", "t5", "t6",
]

# Convenience constants for the registers the CFI logic cares about.
ZERO = 0
RA = 1
SP = 2
GP = 3
TP = 4
T0 = 5
FP = 8
A0 = 10
A1 = 11

# Link registers per the RISC-V ABI: used to distinguish calls/returns.
LINK_REGS = frozenset({RA, T0})

_NAME_TO_INDEX: Dict[str, int] = {}
for _i, _name in enumerate(ABI_NAMES):
    _NAME_TO_INDEX[_name] = _i
    _NAME_TO_INDEX[f"x{_i}"] = _i
# Common aliases.
_NAME_TO_INDEX["fp"] = FP
_NAME_TO_INDEX["s0"] = FP


def abi_name(index: int) -> str:
    """ABI name for register ``index`` (e.g. ``abi_name(1) == "ra"``)."""
    if not 0 <= index < REG_COUNT:
        raise ValueError(f"register index out of range: {index}")
    return ABI_NAMES[index]


def reg_index(name: str) -> int:
    """Register number for an ABI or ``xN`` name; raises on unknown names."""
    key = name.strip().lower()
    if key not in _NAME_TO_INDEX:
        raise ValueError(f"unknown register name: {name!r}")
    return _NAME_TO_INDEX[key]

"""Control-flow classification of decoded instructions.

This module encodes the rules the TitanCFI CFI filter applies in the CVA6
commit stage (paper §IV-B1): select *indirect jumps*, *function returns*
and *function calls* from the retired stream.  Classification follows the
RISC-V ABI's link-register convention (unprivileged spec, table 2.1):

* ``jal rd`` with ``rd ∈ {ra, t0}``                    → **call** (direct)
* ``jalr rd, rs1`` with ``rd ∈ {ra, t0}``              → **call** (indirect)
* ``jalr x0, rs1`` with ``rs1 ∈ {ra, t0}``             → **return**
* any other ``jalr``                                   → **indirect jump**
* ``jal x0``                                           → direct jump
  (statically verifiable, *not* streamed to the RoT)
* conditional branches                                 → direct,
  not streamed (their targets are immediate-encoded)

The same classification runs again, in software, inside the OpenTitan
firmware when it parses the commit-log encoding — both sides share this
module so a disagreement is impossible by construction, mirroring the
paper where both sides operate on the same 32-bit encoding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.isa.decode import Instruction, decode
from repro.isa.registers import LINK_REGS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (asm uses encode)
    from repro.isa.asm import Program


class CfKind(enum.Enum):
    """Category of a control-flow transfer, from the CFI policy's view."""

    NONE = "none"                    # not a control-flow instruction
    CALL = "call"                    # jal/jalr writing a link register
    RETURN = "return"                # jalr x0 from a link register
    INDIRECT_JUMP = "indirect-jump"  # other jalr
    DIRECT_JUMP = "direct-jump"      # jal x0 (not CFI-relevant)
    BRANCH = "branch"                # conditional branch (not CFI-relevant)

    @property
    def cfi_relevant(self) -> bool:
        """True when the TitanCFI filter forwards this event to the RoT."""
        return self in _CFI_RELEVANT


_CFI_RELEVANT = frozenset({CfKind.CALL, CfKind.RETURN, CfKind.INDIRECT_JUMP})

_BRANCH_MNEMONICS = frozenset({"beq", "bne", "blt", "bge", "bltu", "bgeu"})


def classify(insn: Instruction) -> CfKind:
    """Classify a decoded instruction per the rules above."""
    if insn.mnemonic == "jal":
        if insn.rd in LINK_REGS:
            return CfKind.CALL
        return CfKind.DIRECT_JUMP
    if insn.mnemonic == "jalr":
        rd = insn.rd or 0
        rs1 = insn.rs1 or 0
        if rd in LINK_REGS:
            # Covers plain calls and co-routine style jalr ra, ra.
            return CfKind.CALL
        if rd == 0 and rs1 in LINK_REGS:
            return CfKind.RETURN
        return CfKind.INDIRECT_JUMP
    if insn.mnemonic in _BRANCH_MNEMONICS:
        return CfKind.BRANCH
    return CfKind.NONE


def classify_word(word: int, xlen: int = 64) -> CfKind:
    """Classify a raw encoding; decode failures yield :attr:`CfKind.NONE`.

    This is the firmware-side entry point: the Ibex ISR receives the raw
    32-bit encoding from the commit log and must never trap on it.
    """
    try:
        insn = decode(word, xlen=xlen)
    except Exception:
        return CfKind.NONE
    return classify(insn)


def is_control_flow(insn: Instruction) -> bool:
    """True for any transfer of control (including direct jumps/branches)."""
    return classify(insn) is not CfKind.NONE


def is_cfi_relevant(insn: Instruction) -> bool:
    """True when the CFI filter must forward this instruction to the RoT."""
    return classify(insn).cfi_relevant


def is_call(insn: Instruction) -> bool:
    """True for function calls (direct or indirect)."""
    return classify(insn) is CfKind.CALL


def is_return(insn: Instruction) -> bool:
    """True for function returns."""
    return classify(insn) is CfKind.RETURN


def is_indirect_jump(insn: Instruction) -> bool:
    """True for non-call, non-return indirect jumps."""
    return classify(insn) is CfKind.INDIRECT_JUMP


def expected_return_address(insn: Instruction, pc: int) -> Optional[int]:
    """Return address a call at ``pc`` will push (``pc + 4``).

    Returns ``None`` when ``insn`` is not a call.  The shadow-stack policy
    pushes exactly this value; the commit log's *next address* field
    carries it (paper §IV-B1, field iii).
    """
    if not is_call(insn):
        return None
    return pc + 4


# --------------------------------------------------------------------------
# Static program analysis
# --------------------------------------------------------------------------
#
# The classification rules above operate on one retired instruction at a
# time — the filter's (and firmware's) view.  The helpers below apply the
# same rules to a whole assembled image *statically*: a linear sweep that
# classifies every word, resolves immediate-encoded targets, and exposes
# the program's control-flow skeleton (call sites, return sites, indirect
# transfer sites).  The scenario-synthesis oracle (:mod:`repro.synth`)
# grounds its planned event streams in this scan, and the test suite uses
# it to cross-check dynamic commit-log captures against the static site
# set — same module, same rules, so the two views cannot drift.


@dataclass(frozen=True)
class CfSite:
    """One statically discovered control-flow instruction.

    Attributes:
        pc: address of the instruction.
        insn: its decoded form.
        kind: classification per :func:`classify`.
        target: statically known destination (``jal``/branches resolve to
            ``pc + imm``); ``None`` for register-indirect transfers, whose
            destination only exists dynamically.
    """

    pc: int
    insn: Instruction
    kind: CfKind

    @property
    def target(self) -> Optional[int]:
        if self.insn.mnemonic == "jal" or self.insn.mnemonic in _BRANCH_MNEMONICS:
            return self.pc + self.insn.imm
        return None

    @property
    def fall_through(self) -> int:
        """Address of the next sequential instruction (a call's link value)."""
        return self.pc + 4


def iter_sites(data: bytes, base: int, xlen: int = 64) -> Iterator[CfSite]:
    """Linear-sweep scan: yield every control-flow instruction in ``data``.

    The sweep walks 4-byte words (every instruction is one 4-byte
    encoding); words that fail to decode — data constants, padding —
    classify as :attr:`CfKind.NONE` and are skipped, mirroring how
    :func:`classify_word` shrugs at garbage.
    """
    for offset in range(0, len(data) - 3, 4):
        word = int.from_bytes(data[offset : offset + 4], "little")
        try:
            insn = decode(word, xlen=xlen)
        except Exception:
            continue
        kind = classify(insn)
        if kind is not CfKind.NONE:
            yield CfSite(pc=base + offset, insn=insn, kind=kind)


def scan_program(program: "Program", xlen: int = 64) -> List[CfSite]:
    """All control-flow sites of an assembled :class:`Program`."""
    return list(iter_sites(program.data, program.base, xlen=xlen))


def cfi_sites(program: "Program", xlen: int = 64) -> List[CfSite]:
    """The sites the TitanCFI filter would stream (calls, returns,
    indirect jumps) — the static superset of any run's commit log."""
    return [s for s in scan_program(program, xlen=xlen) if s.kind.cfi_relevant]


def indirect_sites(program: "Program", xlen: int = 64) -> List[CfSite]:
    """Register-indirect transfer sites (indirect calls, returns and
    indirect jumps): the sites whose dynamic targets a CFI policy must
    constrain, extracted statically."""
    return [
        s for s in scan_program(program, xlen=xlen)
        if s.kind.cfi_relevant and s.insn.mnemonic == "jalr"
    ]


def direct_call_targets(program: "Program", xlen: int = 64) -> List[int]:
    """Entry addresses reached by immediate-encoded (``jal``) calls."""
    return [
        s.target for s in scan_program(program, xlen=xlen)
        if s.kind is CfKind.CALL and s.target is not None
    ]

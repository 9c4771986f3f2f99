"""Scoreboard entries: what a CVA6 commit port emits each cycle.

"A valid scoreboard entry represents an issued instruction which has
been executed, and is ready to be retired.  From a scoreboard entry the
CFI Filter verifies if the retired instruction is relevant to CFI, and
it extracts useful metadata, called the commit log" (paper §IV-B1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hart.core import StepEvent, StepResult
from repro.isa.decode import Instruction


@dataclass(slots=True)
class ScoreboardEntry:
    """One retiring instruction as seen by a commit port.

    Immutable by convention; ``slots`` (not ``frozen``) because one
    entry is allocated per retired host instruction on the hot loop.

    Attributes:
        pc: program counter of the instruction.
        insn: decoded instruction (carries the 32-bit encoding).
        fall_through: ``pc + 4``.
        target: architectural next pc (branch/jump destination if taken).
        taken: whether a control transfer happened.
        valid: commit-port valid bit.
    """

    pc: int
    insn: Instruction
    fall_through: int
    target: int
    taken: bool
    valid: bool = True

    @classmethod
    def from_step(cls, result: StepResult) -> Optional["ScoreboardEntry"]:
        """Build an entry from an ISS step; ``None`` for non-retiring steps."""
        if result.insn is None:
            return None
        if result.event not in (StepEvent.RETIRED, StepEvent.MRET, StepEvent.WFI_SLEEP):
            return None
        return cls(
            pc=result.pc,
            insn=result.insn,
            fall_through=result.fall_through,
            target=result.next_pc,
            taken=result.taken,
        )

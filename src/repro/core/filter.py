"""The CFI filter (paper §IV-B1).

A filter inspects the instruction the commit stage is retiring,
selects the control-flow operations that need checking (indirect jumps,
function returns, function calls) and condenses them into commit logs.
Direct jumps and conditional branches pass through unselected — their
targets are immediate-encoded and statically verifiable.

The RTL instantiates one filter per CVA6 commit port; the modelled core
retires one instruction per cycle, so one filter sees every retirement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.commit_log import CommitLog
from repro.hart.core import StepEvent, StepResult
from repro.isa.cflow import CfKind, classify
from repro.utils.bits import mask

#: Step events that retire their instruction through the commit stage
#: (a trap, halt, wake or sleep step retires nothing).  A tuple, not a
#: set: membership tests identity first, and ``RETIRED`` leads.
_RETIRING = (StepEvent.RETIRED, StepEvent.MRET, StepEvent.WFI_SLEEP)


@dataclass
class FilterStats:
    """Counters kept by the filter."""

    examined: int = 0
    selected: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    def record(self, kind: CfKind, selected: bool) -> None:
        self.examined += 1
        if selected:
            self.selected += 1
            self.by_kind[kind.value] = self.by_kind.get(kind.value, 0) + 1


class CfiFilter:
    """Retiring instruction → commit-log selector."""

    def __init__(self):
        self.stats = FilterStats()

    def examine(self, step: StepResult) -> Optional[CommitLog]:
        """Return a commit log when ``step`` retired a CFI-relevant
        instruction, else ``None``.

        A step that retires nothing returns ``None`` without counting.
        """
        insn = step.insn
        if insn is None or step.event not in _RETIRING:
            return None
        kind = classify(insn)
        selected = kind.cfi_relevant
        self.stats.record(kind, selected)
        if not selected:
            return None
        return CommitLog(
            pc=step.pc & mask(64),
            # The instruction's 32-bit encoding (§IV-B1 field ii).
            encoding=insn.raw,
            next_address=step.fall_through & mask(64),
            target=step.next_pc & mask(64),
        )

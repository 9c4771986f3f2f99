"""The CFI filter: one per CVA6 commit port (paper §IV-B1).

A filter inspects the scoreboard entry a commit port is retiring,
selects the control-flow operations that need checking (indirect jumps,
function returns, function calls) and condenses them into commit logs.
Direct jumps and conditional branches pass through unselected — their
targets are immediate-encoded and statically verifiable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.commit_log import CommitLog
from repro.cva6.scoreboard import ScoreboardEntry
from repro.isa.cflow import CfKind, classify
from repro.utils.bits import mask


@dataclass
class FilterStats:
    """Counters kept by one filter instance."""

    examined: int = 0
    selected: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    def record(self, kind: CfKind, selected: bool) -> None:
        self.examined += 1
        if selected:
            self.selected += 1
            self.by_kind[kind.value] = self.by_kind.get(kind.value, 0) + 1


class CfiFilter:
    """Scoreboard-entry → commit-log selector for one commit port."""

    def __init__(self, port_index: int = 0, name: str = ""):
        self.port_index = port_index
        self.name = name or f"cfi-filter{port_index}"
        self.stats = FilterStats()

    def examine(self, entry: Optional[ScoreboardEntry]) -> Optional[CommitLog]:
        """Return a commit log when ``entry`` is CFI-relevant, else ``None``.

        Invalid (bubble) entries return ``None`` without counting.
        """
        if entry is None or not entry.valid:
            return None
        kind = classify(entry.insn)
        selected = kind.cfi_relevant
        self.stats.record(kind, selected)
        if not selected:
            return None
        return CommitLog(
            pc=entry.pc & mask(64),
            # The instruction's 32-bit encoding (§IV-B1 field ii).
            encoding=entry.insn.raw,
            next_address=entry.fall_through & mask(64),
            target=entry.target & mask(64),
        )

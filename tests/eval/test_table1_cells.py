"""Committed Table I cells: every number the firmware harness measures.

``tests/eval/test_tables.py`` checks Table I's totals against the paper
within a tolerance, so a drift of a few cycles in one cell would pass
there.  This suite pins the cells themselves in ``table1_cells.json``:
for each firmware variant (IRQ, Polling, Optimized) and check kind
(call, return), the instructions and cycles of every (section,
category) cell — 36 cells.

The same harness then runs once more on a busy-engine twin of the rig
and must give the same cells: the per-step probe sees every retiring,
wake and trap step identically in both engines.

A change that alters the measured firmware timing on purpose
regenerates the file and says so in CHANGES.md::

    PYTHONPATH=src python tests/eval/test_table1_cells.py
"""

import functools
import json
from pathlib import Path
from typing import Dict

from repro.eval.firmware_analysis import (
    CATEGORIES,
    SECTIONS,
    CheckBreakdown,
    analyze_all,
)
from repro.firmware import rig
from repro.system.sim import MODE_BUSY, SystemSimulator

CELLS = Path(__file__).with_name("table1_cells.json")


def _cells(breakdown: CheckBreakdown) -> Dict[str, list]:
    cells = {}
    for section in SECTIONS:
        for category in CATEGORIES:
            cell = breakdown.cell(section, category)
            cells[f"{section}/{category}"] = [cell.instructions, cell.cycles]
    return cells


def cells() -> Dict[str, Dict[str, Dict[str, list]]]:
    """Every Table I cell, as JSON: variant → kind → cell → [insns, cycles]."""
    return {variant: {kind: _cells(breakdown)
                      for kind, breakdown in kinds.items()}
            for variant, kinds in analyze_all().items()}


def test_cells_match_committed():
    assert cells() == json.loads(CELLS.read_text())


def test_busy_engine_gives_the_same_cells(monkeypatch):
    monkeypatch.setattr(rig, "SystemSimulator",
                        functools.partial(SystemSimulator, mode=MODE_BUSY))
    assert cells() == json.loads(CELLS.read_text())


if __name__ == "__main__":
    CELLS.write_text(json.dumps(cells(), indent=1) + "\n")

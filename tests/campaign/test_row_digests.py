"""Committed digests: every matrix's cells and every smoke-matrix row.

The other campaign suites compare runs against each other (busy ≡
batched, serial ≡ sharded, resume ≡ uninterrupted), so a change that
alters every row the same way passes them all.  This suite compares
each row of the six ``*-smoke`` matrices against a digest committed in
``row_digests.json``: ``sha256(json.dumps(row))`` of
``run_scenario(cell, 0)``, under each engine, so the busy engine must
give the batched engine's rows as well.  ``json.dumps`` without
``sort_keys`` pins key order too, the way ``campaign.json`` writes it.

``cell_digests.json`` pins the cells of every registered matrix, in
order, without running them: ``sha256`` of the ``[name, canonical()]``
pair list that ``resolve_matrix`` yields.

A change that alters cells or rows on purpose regenerates both files
and says so in CHANGES.md::

    PYTHONPATH=src python tests/campaign/test_row_digests.py
"""

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

import pytest

from repro.campaign.runner import run_scenario
from repro.campaign.spec import MATRICES, resolve_matrix
from repro.system.modes import MODES

DIGESTS = Path(__file__).with_name("row_digests.json")
CELL_DIGESTS = Path(__file__).with_name("cell_digests.json")

SMOKE_MATRICES = ("smoke", "synth-smoke", "coverage-smoke", "faults-smoke",
                  "multihart-smoke", "xhart-smoke")


def row_digests(matrix: str, sim_mode: Optional[str] = None) -> Dict[str, str]:
    """``{cell name: sha256 of its row}`` for one registered matrix."""
    return {
        cell.name: hashlib.sha256(
            json.dumps(run_scenario(cell, 0, sim_mode=sim_mode)).encode()
        ).hexdigest()
        for cell in resolve_matrix(matrix)
    }


def cell_digest(matrix: str) -> str:
    """sha256 of one registered matrix's cells, names and order."""
    cells = [[cell.name, cell.canonical()] for cell in resolve_matrix(matrix)]
    return hashlib.sha256(json.dumps(cells).encode()).hexdigest()


@pytest.mark.parametrize("matrix", list(MATRICES))
def test_cells_match_committed_digests(matrix):
    assert cell_digest(matrix) == json.loads(CELL_DIGESTS.read_text())[matrix]


@pytest.mark.parametrize("sim_mode", MODES)
@pytest.mark.parametrize("matrix", SMOKE_MATRICES)
def test_rows_match_committed_digests(matrix, sim_mode):
    committed = json.loads(DIGESTS.read_text())[matrix]
    actual = row_digests(matrix, sim_mode)
    assert list(actual) == list(committed), "cell list changed"
    for name, digest in actual.items():
        assert digest == committed[name], f"row differs: {name}"


if __name__ == "__main__":
    CELL_DIGESTS.write_text(json.dumps(
        {matrix: cell_digest(matrix) for matrix in MATRICES}, indent=1
    ) + "\n")
    DIGESTS.write_text(json.dumps(
        {matrix: row_digests(matrix) for matrix in SMOKE_MATRICES}, indent=1
    ) + "\n")

"""The minimized-reproducer regression corpus.

Every oracle-vs-simulation disagreement the subsystem ever surfaces is
reduced (:mod:`repro.synth.minimize`) and saved as a small JSON entry —
the model, the campaign cell that showed the disagreement, and the
recorded verdicts.  Entries committed under ``tests/synth/corpus/`` are
replayed by the tier-1 suite on every run, on the cell they record and
through the campaign runner's own backends: once the underlying bug is
fixed, the entry keeps guarding the regression (oracle == simulation on
the minimal program, for every policy it records that the cell takes).

Entry schema (``schema: 1``)::

    {"schema": 1,
     "family": "jop",              # generator family; replays as synth-<family>
     "seed": 1234,                 # generator seed (provenance)
     "note": "...",                # human context
     "policy": "coarse",           # the disagreeing policy (or null)
     "config": {"backend": "cosim"},   # the cell (see cell_config)
     "model": {...},               # the minimized IR
     "expected": {"shadow-stack": true, ...}}   # oracle verdicts

``config`` holds the cell's :class:`~repro.campaign.spec.Scenario`
fields that differ from their defaults, leaving out victim, policy and
seed; replay runs ``Scenario(victim=f"synth-{family}", **config)``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import SynthError
from repro.synth.oracle import expected_verdicts
from repro.synth.verify import assemble_model, verify_model

ENTRY_SCHEMA = 1


def cell_config(cell) -> dict:
    """The ``config`` of an entry found on ``cell`` (a
    :class:`~repro.campaign.spec.Scenario`): the victim follows the
    family, replay sweeps the policies, and the seed is provenance."""
    return {field.name: getattr(cell, field.name)
            for field in dataclasses.fields(cell)
            if field.name not in ("victim", "policy", "seed")
            and getattr(cell, field.name) != field.default}


def make_entry(
    model: dict,
    family: str,
    seed: int,
    note: str = "",
    policy: Optional[str] = None,
    config: Optional[dict] = None,
) -> dict:
    """Build a corpus entry for ``model`` (verdicts recomputed fresh)."""
    program = assemble_model(model)
    return {
        "schema": ENTRY_SCHEMA,
        "family": family,
        "seed": seed,
        "note": note,
        "policy": policy,
        "config": dict(config or {}),
        "model": model,
        "expected": expected_verdicts(model, program),
    }


def entry_name(entry: dict) -> str:
    """Stable content-derived file name for an entry.

    The digest covers the model *and* the disagreeing policy/config:
    two findings that shrink to the same minimal program but differ in
    what disagreed must not overwrite each other.
    """
    identity = {
        "model": entry["model"],
        "policy": entry.get("policy"),
        "config": entry.get("config"),
    }
    digest = hashlib.sha256(
        json.dumps(identity, sort_keys=True).encode()
    ).hexdigest()[:10]
    return f"repro_{entry['family']}_{digest}.json"


def save_entry(directory: Path, entry: dict) -> Path:
    """Write ``entry`` under ``directory``; returns the file path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / entry_name(entry)
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return path


def load_corpus(directory: Path) -> List[Tuple[Path, dict]]:
    """Load every ``repro_*.json`` entry under ``directory`` (sorted)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    entries = []
    for path in sorted(directory.glob("repro_*.json")):
        entry = json.loads(path.read_text())
        if entry.get("schema") != ENTRY_SCHEMA:
            raise SynthError(f"{path}: unsupported corpus schema "
                             f"{entry.get('schema')!r}")
        entries.append((path, entry))
    return entries


def replay_entry(entry: dict) -> Dict[str, dict]:
    """Re-run a corpus entry on its recorded cell; returns per-policy
    verdict comparison.

    For every policy the entry records that the cell takes (cosim drops
    ``none``), recompute the oracle verdict and the simulated verdict on
    today's code.  The tier-1 corpus test asserts all three agree —
    recorded, oracle, simulated — so neither a generator/oracle drift
    nor a policy/simulator regression can land silently.
    """
    from repro.campaign.spec import Scenario

    cell = Scenario(victim=f"synth-{entry['family']}", **entry["config"])
    return {
        policy: {
            "recorded": bool(entry["expected"][policy]),
            "oracle": oracle,
            "simulated": simulated,
        }
        for policy, (oracle, simulated)
        in verify_model(entry["model"], cell).items()
        if policy in entry["expected"]
    }

"""Auto-triage: campaign disagreements → minimized reproducers.

When a campaign run finds a synthesized scenario whose simulated verdict
contradicts the oracle (``expectation_met == False`` on a ``synth-*`` or
``cov-*`` victim), the CLI hands the failing results here, with the
matrix's cells by name, instead of merely failing the run.  For each
one, triage starts from the very model the runner ran
(:func:`repro.campaign.runner._victim_bundle`, generator features
included), re-checks the disagreement on the result's own cell through
the runner's backends, shrinks it with
:func:`repro.synth.minimize.minimize_model`, and saves a corpus entry
that records the cell (:mod:`repro.synth.corpus`) — the artifact a
developer commits under ``tests/synth/corpus/`` so the tier-1 suite
guards the fix forever.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.synth.corpus import cell_config, make_entry, save_entry
from repro.synth.minimize import minimize_model
from repro.synth.verify import disagreement_predicate


def shrink_and_save(cell, model: dict, origin: Tuple[int, str],
                    out_dir: Path, max_evals: int = 200) -> Path:
    """Shrink ``model``'s disagreement on ``cell`` into a saved reproducer.

    ``origin`` is ``(seed, source)``: the seed behind ``model`` and the
    finding's provenance for the note.  A disagreement that does not
    reproduce on the cell standalone (e.g. a sharding-environment
    artifact) is saved unminimized, so it is still not dropped
    silently.  Returns the entry's path.
    """
    from repro.campaign.spec import VICTIMS

    seed, source = origin
    family = VICTIMS[cell.victim].synth_family
    predicate = disagreement_predicate(cell)
    if predicate(model):
        model = minimize_model(model, predicate, max_evals=max_evals)
        note = f"minimized from {source} (family {family}, seed {seed})"
    else:
        note = (f"{source} disagreed with the oracle but does not "
                f"reproduce standalone")
    entry = make_entry(model, family=family, seed=seed, note=note,
                       policy=cell.policy, config=cell_config(cell))
    return save_entry(out_dir, entry)


def triage_results(
    results: Sequence[Dict[str, object]],
    cells: Mapping[str, object],
    out_dir: Path,
    max_evals: int = 200,
) -> List[Path]:
    """Minimize every disagreeing synth result into a saved reproducer.

    Args:
        results: failing campaign result dicts (synth victims only).
        cells: scenario name → :class:`~repro.campaign.spec.Scenario`,
            covering every result (the campaign's full matrix).
        out_dir: where reproducer JSON files are written.
        max_evals: shrink budget per finding (each eval is a simulation).

    Returns:
        the saved reproducer paths, one per result.
    """
    from repro.campaign.runner import _victim_bundle

    paths: List[Path] = []
    for result in results:
        cell = cells[str(result["name"])]
        seed = int(result["seed"])
        paths.append(shrink_and_save(
            cell, _victim_bundle(cell, seed).model,
            (seed, f"campaign scenario {cell.name}"), out_dir, max_evals,
        ))
    return paths

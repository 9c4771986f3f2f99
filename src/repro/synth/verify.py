"""Oracle-vs-simulation verification of synthesized models.

The bridge between the static oracle and the real simulators: given a
raw model (not a registered campaign victim — minimized reproducers,
fuzz mutants and ad-hoc generator output arrive here) and a campaign
cell (a :class:`repro.campaign.spec.Scenario`), build the model's
:class:`~repro.synth.SynthBundle` once and run it on that cell through
:func:`repro.campaign.runner.simulate`, the campaign's own backends, so
a verdict here is the verdict the campaign records for the same program
on the same cell.  The campaign CLI's triage path, the corpus replay
and ``python -m repro.synth verify`` are all built on these helpers.

Imports from :mod:`repro.campaign` stay inside the functions: the
campaign registry imports :mod:`repro.synth` for its victim builders,
so the module graph must not close the cycle at import time.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.errors import AxisConflict
from repro.isa.asm import Program
from repro.synth import SynthBundle, model_bundle
from repro.synth.ir import emit
from repro.synth.oracle import ORACLE_POLICIES
from repro.system.addresses import AddressMap


def assemble_model(model: dict, base: Optional[int] = None) -> Program:
    """Assemble ``model`` at ``base`` (default: the host DRAM base)."""
    return emit(model, AddressMap().dram_base if base is None else base)


def _verdicts(found: SynthBundle, scenario,
              sim_mode: Optional[str]) -> Tuple[bool, bool]:
    """``(oracle, simulated)`` verdicts of ``found`` on ``scenario``'s
    policy, seeded like the cell in a campaign with seed 0."""
    from repro.campaign.runner import simulate
    from repro.campaign.spec import derive_seed

    outcome = simulate(scenario, derive_seed(0, scenario), bundle=found,
                       sim_mode=sim_mode)
    return found.expected[scenario.policy], bool(outcome["detected"])


def _bundle(model: dict) -> SynthBundle:
    return model_bundle(model, AddressMap().dram_base)


def simulated_verdict(model: dict, scenario,
                      sim_mode: Optional[str] = None) -> bool:
    """Run ``model`` on ``scenario``'s cell; returns the simulated
    verdict for the cell's policy.  ``sim_mode`` picks the co-sim
    engine (both are cycle-exact)."""
    return _verdicts(_bundle(model), scenario, sim_mode)[1]


def verify_model(model: dict, scenario,
                 sim_mode: Optional[str] = None) -> Dict[str, Tuple[bool, bool]]:
    """Compare oracle and simulator under every oracle policy the cell
    accepts (``scenario`` with its policy swapped; a combination that
    raises :class:`~repro.errors.AxisConflict`, such as policy ``none``
    on the cosim backend, is skipped).

    Returns ``{policy: (oracle_verdict, simulated_verdict)}`` — callers
    filter for inequality to find disagreements.
    """
    found = _bundle(model)
    results: Dict[str, Tuple[bool, bool]] = {}
    for policy in ORACLE_POLICIES:
        try:
            cell = dataclasses.replace(scenario, policy=policy)
        except AxisConflict:
            continue
        results[policy] = _verdicts(found, cell, sim_mode)
    return results


def disagreement_predicate(scenario, sim_mode: Optional[str] = None):
    """A :func:`repro.synth.minimize.minimize_model` predicate: "oracle
    and simulator still disagree on ``scenario``'s policy" on its
    cell."""

    def predicate(model: dict) -> bool:
        oracle, simulated = _verdicts(_bundle(model), scenario, sim_mode)
        return oracle != simulated

    return predicate

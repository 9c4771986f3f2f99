"""Scenario synthesis: procedural victims, attack mutations, a static
expected-verdict oracle, and shrinking of oracle/simulation disagreements.

The subsystem turns the simulator stack into a scenario-exploration
machine: instead of replaying a hand-written victim corpus against a
hand-maintained verdict table, it *generates* well-formed RV64 victim
programs (random call graphs, dispatch tables, loops), *plants* attacks
into them (return corruption, JOP chains, call hijacks, callsite-reuse
returns) and *derives* the verdict every policy must reach from the
program's own control-flow structure.  See the module docstrings of
:mod:`repro.synth.ir`, :mod:`repro.synth.generator` and
:mod:`repro.synth.oracle` for the three layers, and
:mod:`repro.synth.minimize` / :mod:`repro.synth.corpus` for what happens
when a prediction and a simulation ever disagree.

The campaign registry consumes this module through
:class:`SynthBundle`: one memoised object per ``(family, seed, base)``
holding the generated model, the assembled program, the policy label
sets and the oracle's expected verdicts.  :func:`model_bundle` builds
the same object for any model — a minimized reproducer, a fuzz mutant —
so it runs on a campaign cell through the runner's own backends.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.isa.asm import Program
from repro.synth.generator import FAMILIES, FEATURES, MAX_EVENTS, generate
from repro.synth.ir import emit, label_sets, plan_events
from repro.synth.oracle import ORACLE_POLICIES, expected_verdicts, resolve_events

__all__ = [
    "FAMILIES",
    "FEATURES",
    "MAX_EVENTS",
    "ORACLE_POLICIES",
    "SynthBundle",
    "bundle",
    "bundle_for_seed",
    "bundle_from_rng",
    "clear_bundle_cache",
    "expected_verdicts",
    "generate",
    "model_bundle",
    "plan_events",
    "resolve_events",
]


@dataclass(frozen=True)
class SynthBundle:
    """Everything the campaign needs to run one synthesized victim.

    Attributes:
        model: the IR (JSON-able; feed to :mod:`repro.synth.minimize`).
        program: the assembled RV64 image.
        entry_points: label names of the fine-grained forward-edge set.
        function_entries: label names of the coarse function-entry set.
        expected: policy name → oracle verdict.
    """

    model: dict
    program: Program
    entry_points: Tuple[str, ...]
    function_entries: Tuple[str, ...]
    expected: Dict[str, bool]


#: Memoised bundles: generation, assembly and the oracle are pure
#: functions of the key, so campaigns sweeping hundreds of seeds pay
#: each build once per process.  Bounded like the assembly cache.
_BUNDLES: Dict[Tuple[str, int, int, Tuple[str, ...]], SynthBundle] = {}
_BUNDLE_CACHE_LIMIT = 1024


def clear_bundle_cache() -> None:
    """Drop every memoised bundle (tests)."""
    _BUNDLES.clear()


def model_bundle(model: dict, base: int) -> SynthBundle:
    """The bundle of any model loaded at ``base`` (not memoised): the
    form in which a model reaches the campaign runner's backends
    (:func:`repro.campaign.runner.simulate`)."""
    program = emit(model, base)
    entry_points, function_entries = label_sets(model)
    return SynthBundle(
        model=model,
        program=program,
        entry_points=entry_points,
        function_entries=function_entries,
        expected=expected_verdicts(model, program),
    )


def bundle(family: str, seed: int, base: int,
           features: Tuple[str, ...] = ()) -> SynthBundle:
    """The (memoised) bundle for ``(family, seed)`` loaded at ``base``.

    ``features`` forwards to :func:`repro.synth.generator.generate` —
    the coverage campaign's victims grow bounded recursion and indirect
    tail calls on top of the family pipeline.
    """
    key = (family, seed, base, features)
    cached = _BUNDLES.get(key)
    if cached is not None:
        return cached
    built = model_bundle(generate(family, seed, features=features), base)
    if len(_BUNDLES) >= _BUNDLE_CACHE_LIMIT:
        _BUNDLES.clear()
    _BUNDLES[key] = built
    return built


def _draw(rng: random.Random) -> int:
    """The model seed a victim builder draws from its scenario RNG.

    One fixed derivation shared by :func:`bundle_from_rng` (the registry
    builder path) and :func:`bundle_for_seed` (the runner's oracle
    path), so both resolve the identical bundle for a scenario.
    """
    return rng.getrandbits(64)


def bundle_from_rng(family: str, rng: random.Random, base: int,
                    features: Tuple[str, ...] = ()) -> SynthBundle:
    """Bundle for a victim builder's ``(addresses, rng)`` call."""
    return bundle(family, _draw(rng), base, features=features)


def bundle_for_seed(family: str, scenario_seed: int, base: int,
                    features: Tuple[str, ...] = ()) -> SynthBundle:
    """Bundle for a scenario's derived seed (the runner-side entry)."""
    return bundle(family, _draw(random.Random(scenario_seed)), base,
                  features=features)

"""Differential suite: firmware shadow stack vs PolicyHost(ShadowStackPolicy).

The policy host's cycle model is calibrated from the firmware itself,
so a shadow stack running as a Python mailbox agent must be
*indistinguishable* from the RV32 firmware in every host-side
observable: verdict, detection latency, and the SimulationReport cycle
totals (global cycles, host instret, stall cycles, and the complete
CFI-stage statistics, check latencies included).  This suite asserts
that across every registered campaign victim, both firmware variants'
timing models, and both execution engines.
"""

import random

import pytest

from repro.attacks.rop import run_attack_scenario
from repro.campaign.spec import VICTIMS
from repro.firmware.policies import ShadowStackPolicy
from repro.system.addresses import AddressMap
from repro.system.sim import MODE_BATCHED, MODE_BUSY

MODES = (MODE_BUSY, MODE_BATCHED)

_ADDRESSES = AddressMap()
_PROGRAMS = {}


def _program(victim, seed=1234):
    key = (victim, seed)
    if key not in _PROGRAMS:
        _PROGRAMS[key] = VICTIMS[victim].builder(_ADDRESSES, random.Random(seed))
    return _PROGRAMS[key]


def _key(report):
    """The comparison set: everything the host side can observe.

    ``ibex_instructions`` is deliberately excluded — with a policy host
    mounted the RoT core is frozen, which is the one *intended*
    difference between the two agents.
    """
    return (
        report.cycles,
        report.host_instructions,
        report.host_stall_cycles,
        report.detected,
        report.violation.kind if report.violation else None,
        report.detection_latency,
        report.cfi,
    )


def _run(victim, variant, mode, backend, **kwargs):
    if backend == "host":
        kwargs.update(policy_backend="host", policy=ShadowStackPolicy())
    outcome = run_attack_scenario(
        _program(victim), firmware_variant=variant, sim_mode=mode, **kwargs
    )
    return _key(outcome.report)


class TestEveryVictimEveryEngine:
    """Firmware vs host over the complete victim registry (IRQ model)."""

    @pytest.mark.parametrize("victim", sorted(VICTIMS))
    def test_host_matches_firmware_in_all_engines(self, victim):
        reference = _run(victim, "irq", MODE_BUSY, "firmware")
        for mode in MODES:
            assert _run(victim, "irq", mode, "firmware") == reference, (
                victim, "firmware", mode)
            assert _run(victim, "irq", mode, "host") == reference, (
                victim, "host", mode)


class TestPollingVariant:
    """The polling firmware's poll-loop-periodic timing model."""

    @pytest.mark.parametrize("victim", ["benign", "rop", "deep-recursion",
                                        "ret-to-callsite"])
    def test_host_matches_firmware_in_all_engines(self, victim):
        reference = _run(victim, "polling", MODE_BUSY, "firmware")
        for mode in MODES:
            assert _run(victim, "polling", mode, "host") == reference, (
                victim, mode)


class TestPlatformKnobs:
    """Cosim knobs that perturb the handshake cadence."""

    @pytest.mark.parametrize("queue_depth", [1, 2, 8])
    def test_queue_depths(self, queue_depth):
        reference = _run("deep-recursion", "irq", MODE_BUSY, "firmware",
                         queue_depth=queue_depth)
        for mode in MODES:
            assert _run("deep-recursion", "irq", mode, "host",
                        queue_depth=queue_depth) == reference, mode

    def test_optimized_fabric(self):
        reference = _run("rop", "polling", MODE_BUSY, "firmware",
                         fabric="optimized")
        for mode in MODES:
            assert _run("rop", "polling", mode, "host",
                        fabric="optimized") == reference, mode

    def test_seed_swept_victims(self):
        """The seeded victim builder (varying recursion depth) across a
        few seeds — different doorbell cadences each time."""
        for seed in (7, 42, 99):
            program = VICTIMS["deep-recursion"].builder(
                _ADDRESSES, random.Random(seed))
            reference = _key(run_attack_scenario(program, sim_mode=MODE_BUSY).report)
            got = _key(run_attack_scenario(
                program, sim_mode=MODE_BATCHED,
                policy_backend="host", policy=ShadowStackPolicy(),
            ).report)
            assert got == reference, seed

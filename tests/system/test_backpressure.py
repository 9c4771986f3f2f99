"""Queue back-pressure and blocking paths, identical in every engine.

The mailbox/log-writer blocking and latched-overflow paths must behave
identically across the busy and batched engines at queue depths 1, 2
and full (8).  Back-pressure is where the engines' skippable-cycle
reasoning is most fragile — a writer stalled
on a full queue, a blocking CFI stage stalling the host, a violation
latched while later checks keep draining — so every such path gets a
cross-engine assertion here.
"""

import random

import pytest

from repro.attacks.rop import run_attack_scenario
from repro.campaign.spec import VICTIMS
from repro.core.config import TitanCfiConfig
from repro.faults.plan import build_plan
from repro.firmware.policies import ShadowStackPolicy
from repro.firmware.shadow_stack import FirmwareLayout, shadow_stack_firmware
from repro.system.addresses import AddressMap
from repro.system.sim import MODE_BATCHED, MODE_BUSY, SystemSimulator
from repro.system.soc import build_soc

MODES = (MODE_BUSY, MODE_BATCHED)
DEPTHS = (1, 2, 8)


def _run(victim, mode, depth, blocking, raise_on_violation=True):
    config = TitanCfiConfig(queue_depth=depth, blocking=blocking,
                            raise_on_violation=raise_on_violation)
    soc = build_soc(cfi_config=config)
    firmware = shadow_stack_firmware("irq", FirmwareLayout(soc.addresses))
    soc.load_firmware(firmware.data)
    soc.load_host_program(
        VICTIMS[victim].builder(soc.addresses, random.Random(1234))
    )
    return SystemSimulator(soc, mode=mode).run()


def _key(report):
    return (
        report.cycles,
        report.host_instructions,
        report.host_stall_cycles,
        report.ibex_instructions,
        report.detected,
        report.detection_latency,
        report.cfi,
    )


class TestDepthSweepAcrossEngines:
    """Every (depth × blocking × victim) cell: identical reports."""

    @pytest.mark.parametrize("blocking", [False, True])
    @pytest.mark.parametrize("depth", DEPTHS)
    @pytest.mark.parametrize("victim", ["benign", "deep-recursion", "rop"])
    def test_reports_identical_across_modes(self, victim, depth, blocking):
        reference = None
        for mode in MODES:
            key = _key(_run(victim, mode, depth, blocking))
            if reference is None:
                reference = key
            else:
                assert key == reference, (victim, depth, blocking, mode)

    def test_depth_one_actually_exercises_full_queue_stalls(self):
        """The sweep above is only meaningful if the shallow queue
        really backs up: the writer must spend cycles stalled on a
        full queue for the bursty victim."""
        report = _run("deep-recursion", MODE_BUSY, depth=1, blocking=False)
        assert report.cfi["full_stalls"] > 0
        assert report.cfi["queue_high_water"] == 1

    def test_blocking_depth_one_is_the_table2_configuration(self):
        report = _run("rop", MODE_BUSY, depth=1, blocking=True)
        assert report.detected
        assert report.host_stall_cycles > 0


class TestLatchedViolation:
    """raise_on_violation=False: the violation is latched, the run and
    the queue keep draining — identically in every engine."""

    @pytest.mark.parametrize("depth", DEPTHS)
    def test_latched_runs_identical_across_modes(self, depth):
        reference = None
        for mode in MODES:
            report = _run("ret-to-callsite", mode, depth, blocking=False,
                          raise_on_violation=False)
            assert report.detected
            assert report.cfi["violations"] >= 1
            assert (report.detection_latency
                    == report.cfi["first_violation_latency"])
            key = _key(report)
            if reference is None:
                reference = key
            else:
                assert key == reference, (depth, mode)


class TestFaultInducedBackPressure:
    """stall-burst slows the monitor until the writer queue overflows;
    the overflow accounting must agree across both engines."""

    def _run_stalled(self, mode, depth, plan):
        outcome = run_attack_scenario(
            VICTIMS["deep-recursion"].builder(
                AddressMap(), random.Random(1234)
            ),
            queue_depth=depth,
            sim_mode=mode,
            policy_backend="host",
            policy=ShadowStackPolicy(),
            fault_plan=plan,
        )
        return outcome.report

    @pytest.mark.parametrize("depth", [1, 2])
    def test_stall_burst_overflow_identical_across_engines(self, depth):
        plan = build_plan("stall-burst", 77)
        baseline_stalls = self._run_stalled(MODE_BUSY, depth, None)
        reference = None
        for mode in MODES:
            report = self._run_stalled(mode, depth, plan)
            assert report.cfi["full_stalls"] > baseline_stalls.cfi["full_stalls"]
            key = _key(report)
            if reference is None:
                reference = key
            else:
                assert key == reference, (depth, mode)

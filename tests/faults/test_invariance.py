"""Faulted runs must be engine-invariant and fault-free runs unchanged.

The acceptance criteria of the fault subsystem:

* with the fault layer compiled in but detached (or attached with an
  empty plan), not a single simulated number moves;
* every fault scenario is seed-deterministic and produces identical
  verdicts AND detection latencies on the busy and batched engines
  (faults index event occurrences, never cycles).
"""

import pytest

from repro.campaign.runner import run_scenario
from repro.campaign.spec import Scenario
from repro.faults import FaultPlan, attach_faults
from repro.firmware.shadow_stack import FirmwareLayout, shadow_stack_firmware
from repro.system.addresses import AddressMap
from repro.system.sim import MODE_BATCHED, MODE_BUSY, SystemSimulator
from repro.system.soc import build_soc

MODES = (MODE_BUSY, MODE_BATCHED)

#: (fault plan, victim, policy backend) cells covering every fault
#: family on both mailbox agents that support it.
CELLS = [
    ("drop-first", "rop", "firmware"),
    ("drop-window", "benign", "firmware"),
    ("dup-first", "benign", "firmware"),
    ("dup-window", "rop", "firmware"),
    ("corrupt-target", "rop", "firmware"),
    ("stall-late", "rop", "host"),
    ("stall-burst", "deep-recursion", "host"),
    ("reset-early", "rop", "host"),
    ("reset-early", "benign", "host"),
]


def _scenario(plan, victim, policy_backend):
    return Scenario(
        victim=victim,
        backend="cosim",
        policy="shadow-stack",
        policy_backend=policy_backend,
        fault_plan=plan,
    )


def _report_key(report):
    return (
        report.cycles,
        report.host_instructions,
        report.host_stall_cycles,
        report.ibex_instructions,
        report.detected,
        report.detection_latency,
        report.cfi,
    )


class TestFaultFreeIdentity:
    """An attached-but-empty fault layer is cycle-invisible."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("victim,variant", [
        ("benign", "irq"),
        ("rop", "irq"),
        ("deep-recursion", "irq"),
        ("benign", "polling"),
    ])
    def test_empty_plan_changes_nothing(self, victim, variant, mode):
        from repro.campaign.spec import VICTIMS
        import random

        keys = []
        for plan in (None, FaultPlan()):
            soc = build_soc()
            firmware = shadow_stack_firmware(
                variant, FirmwareLayout(soc.addresses)
            )
            soc.load_firmware(firmware.data)
            soc.load_host_program(
                VICTIMS[victim].builder(soc.addresses, random.Random(7))
            )
            if plan is not None:
                attach_faults(soc, plan)
            keys.append(_report_key(SystemSimulator(soc, mode=mode).run()))
        assert keys[0] == keys[1]


class TestEngineInvariance:
    """Same faulted scenario, both engines, identical result dicts."""

    @pytest.mark.parametrize("plan,victim,policy_backend", CELLS)
    def test_faulted_results_identical_across_engines(
        self, plan, victim, policy_backend
    ):
        reference = None
        for mode in MODES:
            result = run_scenario(_scenario(plan, victim, policy_backend),
                                  campaign_seed=0, sim_mode=mode)
            assert result["expectation_met"], (
                f"{result['name']} [{mode}]: simulated verdict "
                f"{result['detected']} disagrees with the fault oracle "
                f"{result['expected_detected']}"
            )
            assert result["contract_ok"], (
                f"{result['name']} [{mode}]: degradation "
                f"{result['degradation']} outside the policy's contract"
            )
            if reference is None:
                reference = result
            else:
                assert result == reference, f"{result['name']} [{mode}]"

    def test_fault_scenarios_are_seed_deterministic(self):
        scenario = _scenario("corrupt-target", "rop", "firmware")
        a = run_scenario(scenario, campaign_seed=9)
        b = run_scenario(scenario, campaign_seed=9)
        assert a == b

    def test_campaign_seed_perturbs_the_plan(self):
        # drop-window draws its index from the derived seed; across a
        # few campaign seeds at least two schedules must differ, and
        # each must still satisfy its contract.
        scenario = _scenario("drop-window", "rop", "firmware")
        stats = set()
        for campaign_seed in range(4):
            result = run_scenario(scenario, campaign_seed=campaign_seed)
            assert result["contract_ok"]
            stats.add(str(result["fault_stats"]["fired"]) +
                      str(result["detection_latency"]))
        assert len(stats) > 1

    def test_stall_burst_backs_up_the_queue(self):
        """The queue-overflow stress plan must actually cause writer
        back-pressure: full-queue stall cycles appear that the
        fault-free baseline lacks."""
        scenario = Scenario(
            victim="deep-recursion",
            backend="cosim",
            policy="shadow-stack",
            policy_backend="host",
            queue_depth=2,
            fault_plan="stall-burst",
        )
        result = run_scenario(scenario, campaign_seed=0)
        assert result["contract_ok"]
        assert result["fault_stats"]["stall_cycles_injected"] > 0
        # The verdict must survive the back-pressure unchanged: stalls
        # delay, they never flip (the contract's core invariant).
        assert result["detected"] == result["baseline_detected"]

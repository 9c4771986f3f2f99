"""Campaign runner: marker invariants, per-policy verdicts, sharding.

The two registry-wide invariant suites here are the campaign's ground
truth (ISSUE satellite): every attack victim's unprotected run must
leave ``GADGET_MARKER`` in a0, every benign victim ``CLEAN_MARKER``,
and every (victim × policy) reference scenario must produce exactly the
verdict the :data:`~repro.campaign.spec.POLICY_DETECTS` table predicts.
"""

import random

import pytest

from repro.attacks.programs import CLEAN_MARKER, GADGET_MARKER
from repro.campaign.aggregate import finalize, summarize
from repro.campaign.runner import capture_commit_logs, run_campaign, run_scenario
from repro.campaign.spec import (
    REFERENCE_POLICIES,
    VICTIMS,
    Scenario,
    expand_grid,
    resolve_matrix,
)
from repro.system.addresses import AddressMap


@pytest.fixture(scope="module")
def addresses():
    return AddressMap()


class TestMarkerInvariants:
    """Semantic ground truth for every registered victim."""

    @pytest.mark.parametrize("victim", sorted(VICTIMS))
    def test_unprotected_run_leaves_the_right_marker(self, victim, addresses):
        spec = VICTIMS[victim]
        program = spec.builder(addresses, random.Random(1234))
        _logs, hart = capture_commit_logs(program, addresses)
        marker = hart.regs.read(10)
        if spec.attack is None:
            assert marker == CLEAN_MARKER, victim
        else:
            assert marker == GADGET_MARKER, victim

    @pytest.mark.parametrize("victim", sorted(VICTIMS))
    def test_every_victim_emits_cf_events(self, victim, addresses):
        program = VICTIMS[victim].builder(addresses, random.Random(1234))
        logs, _hart = capture_commit_logs(program, addresses)
        assert logs, f"{victim} produced no CFI-relevant events"


class TestExpectedVerdicts:
    """Every registered (victim × policy) cell matches the ground truth."""

    @pytest.mark.parametrize("victim", sorted(VICTIMS))
    @pytest.mark.parametrize("policy", REFERENCE_POLICIES)
    def test_reference_verdict_matches_spec(self, victim, policy):
        scenario = Scenario(victim=victim, policy=policy)
        result = run_scenario(scenario)
        assert result["detected"] == scenario.expected_detected, result
        assert result["expectation_met"]

    def test_no_policy_flags_any_benign_victim(self):
        scenarios = expand_grid(
            victim=[v for v, s in VICTIMS.items() if s.attack is None],
            policy=list(REFERENCE_POLICIES),
        )
        for scenario in scenarios:
            assert not run_scenario(scenario)["detected"], scenario.name


class TestCosimBackend:
    def test_rop_detected_with_latency(self):
        result = run_scenario(Scenario(victim="rop", backend="cosim"))
        assert result["detected"]
        assert result["violation_kind"] == "return"
        assert result["detection_latency"] > 0
        assert result["cycles"] > 0

    def test_benign_clean_with_overhead(self):
        result = run_scenario(Scenario(victim="benign", backend="cosim"))
        assert not result["detected"]
        assert not result["gadget_executed"]
        assert result["overhead_percent"] > 0

    def test_blocking_depth1_stops_the_gadget(self):
        """Table II configuration: detection is synchronous, the gadget
        never becomes architecturally visible."""
        result = run_scenario(
            Scenario(victim="rop", backend="cosim", queue_depth=1, blocking=True)
        )
        assert result["detected"]
        assert not result["gadget_executed"]

    def test_latched_violation_reports_the_violating_checks_latency(self):
        """With raise_on_violation=False later benign checks keep
        running; detection_latency must still be the violating check's."""
        from repro.core.config import TitanCfiConfig
        from repro.firmware.shadow_stack import FirmwareLayout, shadow_stack_firmware
        from repro.system.sim import SystemSimulator
        from repro.system.soc import build_soc
        from repro.campaign.spec import VICTIMS

        config = TitanCfiConfig(raise_on_violation=False)
        soc = build_soc(cfi_config=config)
        firmware = shadow_stack_firmware("irq", FirmwareLayout(soc.addresses))
        soc.load_firmware(firmware.data)
        soc.load_host_program(
            VICTIMS["ret-to-callsite"].builder(soc.addresses, random.Random(0))
        )
        report = SystemSimulator(soc).run()
        assert report.detected
        assert report.detection_latency is not None
        assert report.detection_latency == report.cfi["first_violation_latency"]
        # The run continued past the violation: more checks completed
        # after it, so "last check" would have been the wrong answer.
        assert report.cfi["violations"] >= 1

    def test_runaway_victim_raises_not_truncates(self, addresses):
        """The reference backend must not score a non-halting victim as
        a clean complete trace — Hart.run raises on step exhaustion."""
        from repro.errors import SimulationError
        from repro.isa.asm import Assembler

        spin = Assembler(xlen=64).assemble(
            "main:\n    j main\n", base=addresses.dram_base
        )
        with pytest.raises(SimulationError):
            capture_commit_logs(spin, addresses, max_steps=1000)

    def test_jop_evades_the_shadow_stack_firmware(self):
        """The firmware's policy is return-edge only — the JOP chain
        must slip through (the campaign's motivating blind spot)."""
        result = run_scenario(Scenario(victim="jop", backend="cosim"))
        assert not result["detected"]
        assert result["gadget_executed"]
        assert result["expectation_met"]


class TestSeededScenarios:
    def test_seed_sweeps_program_shape(self):
        a = run_scenario(Scenario(victim="deep-recursion"), campaign_seed=1)
        b = run_scenario(Scenario(victim="deep-recursion"), campaign_seed=2)
        assert a["host_instructions"] != b["host_instructions"]

    def test_same_seed_reproduces_exactly(self):
        a = run_scenario(Scenario(victim="deep-recursion"), campaign_seed=5)
        b = run_scenario(Scenario(victim="deep-recursion"), campaign_seed=5)
        assert a == b


class TestShardedCampaign:
    @pytest.fixture(scope="class")
    def matrix(self):
        # Small but mixed: both backends, attacks and benign victims.
        return expand_grid(
            victim=["benign", "rop", "jop", "ret-to-callsite"],
            policy=["shadow-stack", "coarse", "composite"],
        ) + expand_grid(victim=["benign", "rop"], backend="cosim")

    def test_parallel_equals_serial(self, matrix):
        serial = run_campaign(matrix, jobs=1, campaign_seed=3)
        parallel = run_campaign(matrix, jobs=2, campaign_seed=3)
        for payload in (serial, parallel):
            payload.pop("timing")
            payload.pop("jobs")
        assert serial == parallel

    def test_streaming_sees_every_result(self, matrix):
        seen = []
        payload = run_campaign(matrix, jobs=2, campaign_seed=3,
                               stream=seen.append)
        assert len(seen) == payload["scenario_count"] == len(matrix)
        assert sorted(r["name"] for r in seen) == [
            r["name"] for r in payload["scenarios"]
        ]

    def test_summary_has_zero_false_positives(self, matrix):
        payload = finalize(run_campaign(matrix, jobs=2))
        counts = payload["summary"]["counts"]
        assert counts["false_positives"] == 0
        assert counts["expectations_missed"] == 0

    def test_results_sorted_by_name(self, matrix):
        payload = run_campaign(matrix, jobs=2)
        names = [r["name"] for r in payload["scenarios"]]
        assert names == sorted(names)

    def test_duplicate_scenarios_rejected_before_execution(self):
        from repro.errors import ConfigError

        duplicated = [Scenario(victim="rop"), Scenario(victim="rop")]
        seen = []
        with pytest.raises(ConfigError, match="duplicate"):
            run_campaign(duplicated, jobs=1, stream=seen.append)
        assert seen == []  # rejected up front, nothing executed


class TestSmokeMatrixEndToEnd:
    def test_smoke_matrix_all_expectations_met(self):
        payload = finalize(run_campaign(resolve_matrix("smoke"), jobs=2))
        counts = payload["summary"]["counts"]
        assert counts["expectations_missed"] == 0
        assert counts["false_positives"] == 0
        assert counts["true_positives"] >= 3

    def test_summarize_is_pure(self):
        payload = run_campaign(resolve_matrix("smoke")[:4], jobs=1)
        assert summarize(payload["scenarios"]) == summarize(payload["scenarios"])


class TestXhartMatrixEndToEnd:
    def test_every_cell_meets_the_per_hart_contract(self):
        from repro.campaign.spec import resolve_matrix

        payload = run_campaign(resolve_matrix("xhart-smoke"), jobs=1)
        rows = payload["scenarios"]
        assert all(r["status"] == "ok" and r["expectation_met"]
                   for r in rows)
        guarded = [r for r in rows if r["fault_plan"] is None]
        attacked = [r for r in rows if r["fault_plan"] is not None]
        assert len(guarded) == 1 and len(attacked) == 3
        base_rows = guarded[0]["per_hart"]
        assert guarded[0]["quarantined_harts"] == []
        for r in attacked:
            assert r["contract_ok"] is True
            assert r["degradation"] == "fail-safe-quarantine"
            assert r["quarantined_harts"] == [r["fault_hart"]]
            for hart_id, row in enumerate(r["per_hart"]):
                if hart_id == r["fault_hart"]:
                    assert row["role"] == "attacker" and row["quarantined"]
                else:
                    assert row["role"] == "benign"
                    # The hard contract: benign rows bit-identical to
                    # the guarded no-adversary baseline.
                    for field in ("detected", "violation_kind",
                                  "detection_latency"):
                        assert row[field] == base_rows[hart_id][field]

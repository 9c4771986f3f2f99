"""The synth campaign tier: matrix shape, oracle-driven expectations,
serial-vs-sharded determinism and cross-engine verdict agreement —
the ISSUE's acceptance criteria, as tests."""

import pytest

from repro.campaign.pool import run_campaign
from repro.campaign.runner import run_scenario
from repro.campaign.spec import (
    SYNTH_SEEDS,
    SYNTH_VICTIMS,
    VICTIMS,
    Scenario,
    resolve_matrix,
)
from repro.synth import bundle_for_seed
from repro.system.addresses import AddressMap

BASE = AddressMap().dram_base


class TestMatrixShape:
    def test_synth_matrix_reaches_the_scale_floor(self):
        scenarios = resolve_matrix("synth")
        assert len(scenarios) >= 200
        names = [s.name for s in scenarios]
        assert len(set(names)) == len(names)

    def test_synth_matrix_is_seed_swept_and_multi_backend(self):
        scenarios = resolve_matrix("synth")
        assert {s.victim for s in scenarios} == set(SYNTH_VICTIMS)
        assert {s.seed for s in scenarios} >= set(SYNTH_SEEDS)
        backends = {s.backend for s in scenarios}
        assert backends == {"reference", "cosim"}
        cosim_agents = {
            s.resolved_policy_backend for s in scenarios
            if s.backend == "cosim"
        }
        assert cosim_agents == {"firmware", "host"}

    def test_synth_smoke_is_a_small_subset(self):
        smoke = resolve_matrix("synth-smoke")
        assert 20 <= len(smoke) < len(resolve_matrix("synth"))
        assert any(s.backend == "cosim" for s in smoke)

    def test_registry_entries_are_first_class(self):
        for name in SYNTH_VICTIMS:
            spec = VICTIMS[name]
            assert spec.synthetic and spec.seeded
            assert spec.synth_family is not None


class TestOracleDrivenExpectations:
    def test_expected_source_is_the_oracle(self):
        result = run_scenario(Scenario(victim="synth-rop", seed=1))
        assert result["expected_source"] == "oracle"
        assert result["seeded"] is True

    def test_hand_written_victims_keep_the_table(self):
        result = run_scenario(Scenario(victim="rop"))
        assert result["expected_source"] == "table"

    def test_expectation_uses_the_per_program_verdict(self):
        """The recorded expectation equals the bundle's oracle verdict
        for the scenario's derived seed — not a class-level constant."""
        scenario = Scenario(victim="synth-jop", policy="coarse", seed=4)
        result = run_scenario(scenario)
        found = bundle_for_seed("jop", result["seed"], BASE)
        assert result["expected_detected"] == found.expected["coarse"]
        assert result["expectation_met"]


class TestAcceptance:
    """The ISSUE's acceptance bullet, executed."""

    @pytest.fixture(scope="class")
    def smoke_payload(self):
        return run_campaign(resolve_matrix("synth-smoke"), jobs=1, campaign_seed=0)

    def test_every_oracle_verdict_matches_simulation(self, smoke_payload):
        for result in smoke_payload["scenarios"]:
            assert result["expectation_met"], result["name"]

    def test_serial_equals_sharded(self):
        matrix = resolve_matrix("synth-smoke")
        serial = run_campaign(matrix, jobs=1, campaign_seed=9)
        sharded = run_campaign(matrix, jobs=2, campaign_seed=9)
        for payload in (serial, sharded):
            payload.pop("timing")
            payload.pop("jobs")
        assert serial == sharded

    @pytest.mark.parametrize("victim,policy,policy_backend", [
        ("synth-rop", "shadow-stack", "auto"),          # firmware agent
        ("synth-ret-to-callsite", "composite", "host"),  # policy host
        ("synth-benign", "crypto-return", "host"),
        ("synth-call-hijack", "forward-edge", "host"),
    ])
    def test_cosim_verdict_engine_independent_and_oracle_true(
        self, victim, policy, policy_backend
    ):
        """Both engines must produce the oracle's verdict (and the
        same cycle totals) on generated programs."""
        results = [
            run_scenario(
                Scenario(victim=victim, policy=policy, backend="cosim",
                         policy_backend=policy_backend, seed=2),
                sim_mode=mode,
            )
            for mode in ("busy", "batched")
        ]
        assert results[0] == results[1]
        assert results[0]["expectation_met"]

    def test_full_matrix_engine_independent_and_oracle_true(self):
        """Every cell of the full ``synth`` matrix: the simulated verdict
        is the oracle's, and the busy engine gives the batched engine's
        rows."""
        matrix = resolve_matrix("synth")
        rows = {mode: run_campaign(matrix, jobs=1, sim_mode=mode)["scenarios"]
                for mode in ("busy", "batched")}
        assert len(rows["batched"]) == len(matrix)
        missed = [r["name"] for r in rows["batched"]
                  if not r["expectation_met"]]
        assert missed == []
        assert rows["busy"] == rows["batched"]

"""Fault plans: validation, JSON round-trips, seed determinism."""

import pytest

from repro.errors import ConfigError, FaultPlanError
from repro.faults.plan import (
    ADVERSARIAL_FAULTS,
    FAULT_DOORBELL_DROP,
    FAULT_DOORBELL_DUP,
    FAULT_EVENT_CORRUPT,
    FAULT_MONITOR_RESET,
    FAULT_MONITOR_STALL,
    FAULT_PLANS,
    MONITOR_FAULTS,
    TRANSPORT_FAULTS,
    FaultEvent,
    FaultPlan,
    build_plan,
)


class TestFaultEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultEvent("doorbell-steal", index=0)

    def test_negative_index_rejected(self):
        with pytest.raises(FaultPlanError, match="index"):
            FaultEvent(FAULT_DOORBELL_DROP, index=-1)

    def test_zero_count_rejected(self):
        with pytest.raises(FaultPlanError, match="count"):
            FaultEvent(FAULT_DOORBELL_DROP, index=0, count=0)

    def test_corrupt_needs_nonzero_mask(self):
        with pytest.raises(FaultPlanError, match="XOR mask"):
            FaultEvent(FAULT_EVENT_CORRUPT, index=0, param=0)

    def test_corrupt_mask_must_fit_64_bits(self):
        with pytest.raises(FaultPlanError, match="XOR mask"):
            FaultEvent(FAULT_EVENT_CORRUPT, index=0, param=1 << 64)

    def test_stall_needs_positive_delay(self):
        with pytest.raises(FaultPlanError, match="cycle delay"):
            FaultEvent(FAULT_MONITOR_STALL, index=0, param=0)

    def test_parameterless_kinds_reject_params(self):
        for kind in (FAULT_DOORBELL_DROP, FAULT_DOORBELL_DUP,
                     FAULT_MONITOR_RESET):
            with pytest.raises(FaultPlanError, match="no parameter"):
                FaultEvent(kind, index=0, param=7)


class TestPlanProperties:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.empty
        assert plan.kinds == frozenset()
        assert not plan.needs_monitor
        assert plan.total_stall_cycles == 0

    def test_needs_monitor_tracks_kinds(self):
        transport = FaultPlan((FaultEvent(FAULT_DOORBELL_DROP, index=0),))
        monitor = FaultPlan((FaultEvent(FAULT_MONITOR_RESET, index=1),))
        assert not transport.needs_monitor
        assert monitor.needs_monitor

    def test_total_stall_cycles_sums_windows(self):
        plan = FaultPlan((
            FaultEvent(FAULT_MONITOR_STALL, index=0, count=3, param=100),
            FaultEvent(FAULT_MONITOR_STALL, index=5, param=50),
        ))
        assert plan.total_stall_cycles == 350


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", sorted(FAULT_PLANS))
    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_named_plans_round_trip(self, name, seed):
        plan = build_plan(name, seed)
        assert FaultPlan.loads(plan.dumps()) == plan

    def test_malformed_json_raises_fault_plan_error(self):
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.loads("{nope")

    def test_malformed_event_raises_fault_plan_error(self):
        with pytest.raises(FaultPlanError, match="malformed fault event"):
            FaultPlan.from_json({"events": [{"index": 3}]})

    def test_events_must_be_a_list(self):
        with pytest.raises(FaultPlanError, match="must be a list"):
            FaultPlan.from_json({"events": "drop-first"})


class TestRegistry:
    def test_unknown_plan_name_raises(self):
        with pytest.raises(FaultPlanError, match="unknown fault plan"):
            build_plan("drop-everything", 0)

    @pytest.mark.parametrize("name", sorted(FAULT_PLANS))
    def test_build_plan_is_deterministic(self, name):
        assert build_plan(name, 42) == build_plan(name, 42)

    @pytest.mark.parametrize("name", sorted(FAULT_PLANS))
    def test_spec_needs_monitor_matches_plan(self, name):
        spec = FAULT_PLANS[name]
        plan = build_plan(name, 7)
        assert plan.needs_monitor == spec.needs_monitor

    @pytest.mark.parametrize("name", sorted(FAULT_PLANS))
    def test_plan_kinds_stay_in_one_family_set(self, name):
        plan = build_plan(name, 3)
        assert plan.kinds <= (
            TRANSPORT_FAULTS | MONITOR_FAULTS | ADVERSARIAL_FAULTS
        )

    @pytest.mark.parametrize("seed", ["x", True, -3, 2.5])
    def test_seed_must_be_a_non_negative_int(self, seed):
        # The plan stream is named by the seed's text: True and 1 (or
        # 2.5, "x") would otherwise each name a plan of their own.
        with pytest.raises(ConfigError, match="seed must be an int >= 0"):
            build_plan("drop-window", seed)

    def test_seed_perturbs_windowed_plans(self):
        # The windowed plans draw their index from the seeded RNG, so
        # some pair of seeds must disagree.
        plans = {build_plan("drop-window", seed).events for seed in range(8)}
        assert len(plans) > 1

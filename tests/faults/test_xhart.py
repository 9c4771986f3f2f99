"""Cross-hart adversarial faults and the monitor's quarantine defense.

Covers the hart-scoping rules (the unscoped-plan-on-N>1 bugfix, typed
``UnknownHartError`` on bad scopes), the three adversarial kinds
(``hart-spoof`` / ``doorbell-flood`` / ``arbiter-hold``) end to end
against the defense layer, the quarantine-lossy graceful-degradation
coupling, the no-reset-escape rule, and the per-hart contract / oracle
units.  The hard contract throughout: benign peers' verdicts and
detection latencies stay bit-identical to the adversary-free baseline.
"""

import random

import pytest

from repro.campaign.spec import VICTIMS
from repro.core.config import TitanCfiConfig
from repro.errors import ConfigError, FaultPlanError, UnknownHartError
from repro.faults import (
    FAULT_DOORBELL_DROP,
    FaultEvent,
    FaultPlan,
    attach_faults,
    build_plan,
    predict_adversarial,
)
from repro.faults.contract import (
    DEGRADATION_MISS,
    DEGRADATION_QUARANTINE,
    DEGRADATION_TRANSPARENT,
    ROLE_ATTACKER,
    ROLE_BENIGN,
    evaluate_hart_contract,
)
from repro.firmware.policies import ShadowStackPolicy
from repro.policyhost import MonitorDefense, mount_policy_host
from repro.soc.mailbox import DoorbellArbiter
from repro.system.sim import MODE_BATCHED, MODE_BUSY, SystemSimulator
from repro.system.soc import build_soc
from repro.system.topology import Topology

MODES = (MODE_BUSY, MODE_BATCHED)
SEED = 1234
ADVERSARIAL_PLANS = ("xhart-spoof", "xhart-flood", "xhart-hold")


def _build(n=2, plan=None, defense=True, lossy=False):
    """N-hart SoC: rop on hart 0 (the benign-contract probe), chatty
    deep-recursion peers, shadow-stack monitor on the policy host."""
    victims = ["rop"] + ["deep-recursion"] * (n - 1)
    topo = Topology(n_harts=n)
    soc = build_soc(
        cfi_config=TitanCfiConfig(raise_on_violation=False, lossy=lossy),
        topology=topo,
    )
    for hart_id, victim in enumerate(victims):
        amap = topo.address_map(hart_id, soc.addresses)
        program = VICTIMS[victim].builder(amap, random.Random(SEED + hart_id))
        soc.load_host_program(program, hart_id=hart_id)
    mount_policy_host(soc, ShadowStackPolicy(), defense=defense)
    if plan is not None:
        attach_faults(soc, plan)
    return soc


def _run(plan_name=None, n=2, mode=None):
    plan = None
    if plan_name is not None:
        plan = build_plan(plan_name, SEED).scoped(1)
    soc = _build(n=n, plan=plan)
    report = SystemSimulator(soc, mode=mode).run()
    return soc, report


def _hart_row(report, hart_id):
    entry = report.per_hart[hart_id]
    return (entry["detected"], entry["violation_kind"],
            entry["detection_latency"])


@pytest.fixture(scope="module")
def baseline():
    """The adversary-free (but defense-mounted) N=2 reference run."""
    _soc, report = _run(None)
    return report


class TestPlanScoping:
    def test_unscoped_plan_on_multihart_rejected(self):
        """Regression: an unscoped plan used to silently fault hart 0
        of an N>1 topology; it must now be a typed rejection."""
        plan = FaultPlan(
            events=(FaultEvent(kind=FAULT_DOORBELL_DROP, index=0),)
        )
        soc = _build(defense=False)
        with pytest.raises(FaultPlanError, match="silently fault hart 0"):
            attach_faults(soc, plan)

    def test_out_of_range_scope_rejected(self):
        plan = build_plan("drop-first", SEED).scoped(5)
        soc = _build(defense=False)
        with pytest.raises(UnknownHartError):
            attach_faults(soc, plan)

    def test_single_hart_plans_unchanged(self):
        """N=1 keeps accepting unscoped plans (the historic contract)."""
        soc = build_soc(cfi_config=TitanCfiConfig(raise_on_violation=False))
        program = VICTIMS["rop"].builder(soc.addresses, random.Random(SEED))
        soc.load_host_program(program)
        mount_policy_host(soc, ShadowStackPolicy())
        attach_faults(soc, build_plan("drop-first", SEED))
        assert soc.faults is not None

    def test_adversarial_plan_needs_multihart(self):
        soc = build_soc(cfi_config=TitanCfiConfig(raise_on_violation=False))
        program = VICTIMS["rop"].builder(soc.addresses, random.Random(SEED))
        soc.load_host_program(program)
        mount_policy_host(soc, ShadowStackPolicy())
        with pytest.raises(FaultPlanError):
            attach_faults(soc, build_plan("xhart-spoof", SEED))

    def test_scoped_helpers(self):
        plan = build_plan("xhart-flood", SEED)
        assert not plan.hart_scoped
        scoped = plan.scoped(1)
        assert scoped.hart_scoped and scoped.harts == (1,)
        assert scoped.adversarial


class TestQuarantineDefense:
    @pytest.mark.parametrize("plan_name", ADVERSARIAL_PLANS)
    def test_attacker_is_quarantined(self, plan_name):
        soc, report = _run(plan_name)
        assert soc.doorbell_arbiter.quarantined(1)
        assert report.per_hart[1]["quarantined"]
        assert not report.per_hart[0]["quarantined"]

    @pytest.mark.parametrize("plan_name", ADVERSARIAL_PLANS)
    def test_benign_hart_rows_bit_identical(self, plan_name, baseline):
        """The hard contract: the rop hart's verdict, kind and latency
        must not move by one cycle while a peer attacks the monitor."""
        _soc, report = _run(plan_name)
        assert _hart_row(report, 0) == _hart_row(baseline, 0)

    def test_spoof_is_failsafed_against_the_owner(self):
        soc, report = _run("xhart-spoof")
        summary = soc.policy_host.defense.summary()
        assert summary["spoofs_detected"] == 1
        assert summary["failsafe_responses"] == 1
        assert report.faults["fired"]["hart-spoof"] == 1
        # The fail-safe verdict is charged to the spoofing owner hart.
        assert report.per_hart[1]["detected"]

    def test_flood_strikes_out_the_flooder(self):
        soc, report = _run("xhart-flood")
        summary = soc.policy_host.defense.summary()
        assert summary["floods_quarantined"] == 1
        assert summary["strikes"][1] >= 3
        assert report.faults["fired"]["doorbell-flood"] == 1

    def test_hold_is_watchdog_released(self):
        soc, report = _run("xhart-hold")
        summary = soc.policy_host.defense.summary()
        assert summary["holds_released"] == 1
        assert report.faults["fired"]["arbiter-hold"] == 1

    @pytest.mark.parametrize("plan_name", ADVERSARIAL_PLANS)
    def test_defense_is_engine_invariant(self, plan_name):
        keys = []
        for mode in MODES:
            soc, report = _run(plan_name, mode=mode)
            keys.append((
                report.cycles,
                report.detected,
                report.detection_latency,
                tuple((h["detected"], h["violation_kind"],
                       h["detection_latency"], h["quarantined"],
                       h["cfi"]["dropped"]) for h in report.per_hart),
                soc.policy_host.defense.summary(),
            ))
        assert keys[0] == keys[1]

    def test_quarantined_hart_sheds_instead_of_wedging(self):
        """Quarantine flips only the sealed hart's queue to lossy: its
        core keeps committing (drops counted), the run terminates, and
        the benign peer's queue stays verdict-exact (no drops)."""
        _soc, report = _run("xhart-spoof")
        assert report.per_hart[1]["cfi"]["dropped"] > 0
        assert report.per_hart[0]["cfi"]["dropped"] == 0

    def test_reset_does_not_lift_quarantine(self):
        """Anti reset-to-escape: a monitor reboot clears strike
        accounting but never the quarantine latch."""
        arbiter = DoorbellArbiter(2)
        defense = MonitorDefense(arbiter, 2)
        for _ in range(3):
            defense.strike(1)
        assert arbiter.quarantined(1)
        defense.reset()
        assert arbiter.quarantined(1)
        assert defense.strikes == [0, 0]

    def test_defense_mount_requires_multihart(self):
        soc = build_soc(cfi_config=TitanCfiConfig(raise_on_violation=False))
        program = VICTIMS["rop"].builder(soc.addresses, random.Random(SEED))
        soc.load_host_program(program)
        with pytest.raises(ConfigError):
            mount_policy_host(soc, ShadowStackPolicy(), defense=True)


class TestLossyQueue:
    def test_lossy_excludes_blocking(self):
        with pytest.raises(ConfigError):
            TitanCfiConfig(lossy=True, blocking=True)

    def test_lossy_queue_sheds_instead_of_stalling(self):
        """Global lossy mode at depth 1: the writer outpaces the
        monitor, the queue sheds oldest-first, and commit never sees a
        full-queue stall."""
        config = TitanCfiConfig(queue_depth=1, lossy=True,
                                raise_on_violation=False)
        soc = build_soc(cfi_config=config)
        program = VICTIMS["deep-recursion"].builder(
            soc.addresses, random.Random(SEED)
        )
        soc.load_host_program(program)
        mount_policy_host(soc, ShadowStackPolicy())
        report = SystemSimulator(soc).run()
        assert report.cfi["dropped"] > 0
        assert report.cfi["full_stalls"] == 0

    def test_lossy_run_is_engine_invariant(self):
        keys = []
        for mode in MODES:
            config = TitanCfiConfig(queue_depth=1, lossy=True,
                                    raise_on_violation=False)
            soc = build_soc(cfi_config=config)
            program = VICTIMS["deep-recursion"].builder(
                soc.addresses, random.Random(SEED)
            )
            soc.load_host_program(program)
            mount_policy_host(soc, ShadowStackPolicy())
            report = SystemSimulator(soc, mode=mode).run()
            keys.append((report.cycles, report.detected,
                         report.detection_latency, report.cfi))
        assert keys[0] == keys[1]


class TestHartContract:
    PLAN = build_plan("xhart-spoof", SEED).scoped(1)
    ROW = {"detected": True, "violation_kind": "return",
           "detection_latency": 220}

    def test_quarantined_attacker_meets_contract(self):
        label, ok = evaluate_hart_contract(
            self.PLAN, ROLE_ATTACKER, {}, {}, quarantined=True
        )
        assert (label, ok) == (DEGRADATION_QUARANTINE, True)

    def test_unquarantined_attacker_is_a_miss(self):
        label, ok = evaluate_hart_contract(
            self.PLAN, ROLE_ATTACKER, {}, {}, quarantined=False
        )
        assert (label, ok) == (DEGRADATION_MISS, False)

    def test_benign_identical_row_passes(self):
        label, ok = evaluate_hart_contract(
            self.PLAN, ROLE_BENIGN, dict(self.ROW), dict(self.ROW),
            quarantined=False,
        )
        assert ok and label != DEGRADATION_MISS

    def test_benign_latency_shift_fails(self):
        moved = dict(self.ROW, detection_latency=221)
        _label, ok = evaluate_hart_contract(
            self.PLAN, ROLE_BENIGN, dict(self.ROW), moved, quarantined=False
        )
        assert not ok

    def test_benign_quarantine_fails_even_if_identical(self):
        label, ok = evaluate_hart_contract(
            self.PLAN, ROLE_BENIGN, dict(self.ROW), dict(self.ROW),
            quarantined=True,
        )
        assert (label, ok) == (DEGRADATION_QUARANTINE, False)

    def test_transparent_benign_idle_hart(self):
        idle = {"detected": False, "violation_kind": None,
                "detection_latency": None}
        label, ok = evaluate_hart_contract(
            self.PLAN, ROLE_BENIGN, dict(idle), dict(idle), quarantined=False
        )
        assert (label, ok) == (DEGRADATION_TRANSPARENT, True)

    def test_non_adversarial_plan_rejected(self):
        with pytest.raises(ValueError):
            evaluate_hart_contract(
                build_plan("drop-first", SEED), ROLE_ATTACKER, {}, {}, True
            )

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError):
            evaluate_hart_contract(self.PLAN, "bystander", {}, {}, False)


class TestAdversarialOracle:
    def test_spoof_and_flood_always_surface(self):
        for name in ("xhart-spoof", "xhart-flood"):
            plan = build_plan(name, SEED)
            assert predict_adversarial(plan, baseline_detected=False)
            assert predict_adversarial(plan, baseline_detected=True)

    def test_hold_fabricates_nothing(self):
        plan = build_plan("xhart-hold", SEED)
        assert not predict_adversarial(plan, baseline_detected=False)
        assert predict_adversarial(plan, baseline_detected=True)

    def test_non_adversarial_plan_rejected(self):
        with pytest.raises(ValueError):
            predict_adversarial(build_plan("drop-first", SEED), False)

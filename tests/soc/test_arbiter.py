"""Doorbell arbitration of the shared CFI mailbox.

Unit-level: combinational idle grant, level-sensitive requests,
round-robin rotation on release, deterministic same-cycle ordering,
typed protocol errors.  System-level: fairness across symmetric harts,
cross-engine identity of contended handshakes, and the interaction
with the existing transport faults (doorbell drop returns the grant,
doorbell dup redelivers under the same grant discipline).
"""

import random

import pytest

from repro.campaign.spec import VICTIMS
from repro.core.config import TitanCfiConfig
from repro.errors import ConfigError, ProtocolError
from repro.faults import (
    FAULT_DOORBELL_DROP,
    FAULT_DOORBELL_DUP,
    FaultEvent,
    FaultPlan,
    attach_faults,
)
from repro.firmware.policies import ShadowStackPolicy
from repro.policyhost import mount_policy_host
from repro.soc.mailbox import DoorbellArbiter
from repro.system.sim import MODE_BATCHED, MODE_BUSY, SystemSimulator
from repro.system.soc import build_soc
from repro.system.topology import Topology

MODES = (MODE_BUSY, MODE_BATCHED)


class TestArbiterUnit:
    def test_needs_at_least_one_port(self):
        with pytest.raises(ConfigError):
            DoorbellArbiter(0)
        with pytest.raises(ConfigError):
            DoorbellArbiter("4")

    def test_idle_grant_is_combinational(self):
        arb = DoorbellArbiter(4)
        assert arb.acquire(2)
        assert arb.owner == 2
        assert arb.grants == [0, 0, 1, 0]

    def test_acquire_is_idempotent_for_owner(self):
        arb = DoorbellArbiter(2)
        assert arb.acquire(0)
        assert arb.acquire(0)
        assert arb.grants[0] == 1

    def test_contended_acquire_queues_request(self):
        arb = DoorbellArbiter(3)
        assert arb.acquire(0)
        assert not arb.acquire(1)
        assert arb.requesting(1)
        assert not arb.requesting(0)

    def test_release_rotates_to_next_requester(self):
        arb = DoorbellArbiter(4)
        arb.acquire(1)
        arb.acquire(0)
        arb.acquire(2)
        arb.release(1)
        # Scan starts after the releasing port: 2 wins over 0.
        assert arb.owner == 2
        assert not arb.requesting(2)
        assert arb.requesting(0)
        arb.release(2)
        assert arb.owner == 0

    def test_release_with_no_requests_idles_channel(self):
        arb = DoorbellArbiter(2)
        arb.acquire(1)
        arb.release(1)
        assert arb.owner is None

    def test_release_wraps_around(self):
        arb = DoorbellArbiter(4)
        arb.acquire(3)
        arb.acquire(1)
        arb.release(3)
        assert arb.owner == 1

    def test_same_cycle_ordering_is_port_order(self):
        """Writers tick in port order, so the lowest port's acquire
        lands first and wins an idle channel deterministically."""
        arb = DoorbellArbiter(4)
        for port in range(4):  # one cycle's ticks, in order
            arb.acquire(port)
        assert arb.owner == 0
        assert [arb.requesting(p) for p in range(4)] == [False, True, True, True]

    def test_sustained_contention_is_fair(self):
        arb = DoorbellArbiter(4)
        for port in range(4):
            arb.acquire(port)
        for _ in range(40):
            owner = arb.owner
            arb.release(owner)
            arb.acquire(owner)  # immediately re-request
        assert max(arb.grants) - min(arb.grants) <= 1

    def test_withdraw_drops_request(self):
        arb = DoorbellArbiter(2)
        arb.acquire(0)
        arb.acquire(1)
        arb.withdraw(1)
        arb.release(0)
        assert arb.owner is None

    def test_release_by_non_owner_rejected(self):
        arb = DoorbellArbiter(2)
        arb.acquire(0)
        with pytest.raises(ProtocolError):
            arb.release(1)

    def test_out_of_range_port_rejected(self):
        arb = DoorbellArbiter(2)
        with pytest.raises(ProtocolError):
            arb.acquire(2)
        with pytest.raises(ProtocolError):
            arb.release(-1)


def _build(victims, seed=1234, fault_plan=None, same_seed=False,
           defense=False):
    topo = Topology(n_harts=len(victims))
    soc = build_soc(
        cfi_config=TitanCfiConfig(raise_on_violation=False), topology=topo
    )
    for hart_id, victim in enumerate(victims):
        amap = topo.address_map(hart_id, soc.addresses)
        rng = random.Random(seed if same_seed else seed + hart_id)
        program = VICTIMS[victim].builder(amap, rng)
        soc.load_host_program(program, hart_id=hart_id)
    mount_policy_host(soc, ShadowStackPolicy(), defense=defense)
    if fault_plan is not None:
        attach_faults(soc, fault_plan)
    return soc


def _key(report):
    return (
        report.cycles,
        report.host_instructions,
        report.host_stall_cycles,
        report.detected,
        report.detection_latency,
        report.cfi,
        report.per_hart,
        report.faults,
    )


class TestArbitratedHandshakes:
    def test_symmetric_load_shares_grants_fairly(self):
        victims = ("deep-recursion",) * 4
        soc = _build(victims, same_seed=True)
        SystemSimulator(soc).run()
        grants = soc.doorbell_arbiter.grants
        assert all(g > 0 for g in grants)
        # Identical programs on identical harts: round robin keeps the
        # spread within a handful of handshakes.
        assert max(grants) - min(grants) <= 4

    def test_grants_match_logs_sent(self):
        soc = _build(("rop", "deep-recursion", "benign"))
        SystemSimulator(soc).run()
        for stage, grants in zip(soc.cfi_stages, soc.doorbell_arbiter.grants):
            assert stage.writer.stats.logs_sent == grants

    def test_uncontended_hart_sees_single_hart_timing(self):
        """One active hart + parked peers: detection latency must equal
        the historic single-hart number (combinational idle grant)."""
        single = build_soc(
            cfi_config=TitanCfiConfig(raise_on_violation=False)
        )
        program = VICTIMS["rop"].builder(single.addresses, random.Random(1234))
        single.load_host_program(program)
        mount_policy_host(single, ShadowStackPolicy())
        baseline = SystemSimulator(single).run()

        multi = _build(("rop", "benign"))
        report = SystemSimulator(multi).run()
        assert report.detection_latency == baseline.detection_latency

    @pytest.mark.parametrize("victims", [
        ("deep-recursion", "deep-recursion"),
        ("rop", "deep-recursion", "deep-recursion", "deep-recursion"),
    ])
    def test_contended_reports_identical_across_engines(self, victims):
        keys = [
            _key(SystemSimulator(_build(victims), mode=mode).run())
            for mode in MODES
        ]
        assert keys[0] == keys[1]


class TestArbiterFairness:
    """A requester that never stops asking must not starve its peers:
    round-robin rotation bounds every port's wait at one full turn, and
    a holder that never *releases* is bounded by the monitor's hold
    watchdog (which force-releases and quarantines the squatter)."""

    def test_permanent_requester_cannot_starve_peers(self):
        arb = DoorbellArbiter(4)
        arb.acquire(0)           # greedy port wins the idle channel
        for port in (1, 2, 3):
            arb.acquire(port)    # peers queue behind it
        served = []
        for _ in range(8):
            owner = arb.owner
            served.append(owner)
            arb.release(owner)
            arb.acquire(0)       # the greedy port re-asserts instantly
        # Every peer is granted within one rotation — the greedy port
        # does not win again until the whole backlog has been served.
        assert served[:4] == [0, 1, 2, 3]

    def test_held_grant_is_watchdog_released_across_engines(self):
        from repro.faults import build_plan

        plan = build_plan("xhart-hold", 99).scoped(1)
        victims = ("rop", "deep-recursion")
        keys = []
        for mode in MODES:
            soc = _build(victims, fault_plan=plan, defense=True)
            report = SystemSimulator(soc, mode=mode).run()
            keys.append(_key(report))
            defense = soc.policy_host.defense.summary()
            assert defense["holds_released"] == 1
            assert soc.doorbell_arbiter.quarantined(1)
            # The peer hart's wait was bounded: its stream kept flowing
            # past the hold and completed every check, and its attack
            # still landed.
            peer = report.per_hart[0]
            assert peer["cfi"]["checks_completed"] == peer["cfi"]["logs_sent"] > 0
            assert report.detected
        assert keys[0] == keys[1]


class TestArbiterUnderTransportFaults:
    """Doorbell drop/dup faults target hart 0's writer; the grant
    discipline must stay deterministic and engine-invariant around
    them."""

    DROP = FaultPlan(
        events=(FaultEvent(kind=FAULT_DOORBELL_DROP, index=0, count=2),),
        note="drop hart 0's first two events",
    ).scoped(0)
    DUP = FaultPlan(
        events=(FaultEvent(kind=FAULT_DOORBELL_DUP, index=1, count=1),),
        note="redeliver hart 0's second event",
    ).scoped(0)

    @pytest.mark.parametrize("plan", [DROP, DUP], ids=["drop", "dup"])
    def test_faulted_reports_identical_across_engines(self, plan):
        victims = ("rop", "deep-recursion")
        keys = [
            _key(SystemSimulator(
                _build(victims, fault_plan=plan), mode=mode
            ).run())
            for mode in MODES
        ]
        assert keys[0] == keys[1]

    def test_drop_returns_grant_to_peers(self):
        """A dropped event must hand the channel straight back: the
        peer hart's stream keeps flowing and completes every check."""
        soc = _build(("rop", "deep-recursion"), fault_plan=self.DROP)
        report = SystemSimulator(soc).run()
        assert report.faults["fired"][FAULT_DOORBELL_DROP] == 2
        peer = report.per_hart[1]
        assert peer["cfi"]["checks_completed"] == peer["cfi"]["logs_sent"] > 0

    def test_dup_redelivers_under_grant(self):
        soc = _build(("rop", "deep-recursion"), fault_plan=self.DUP)
        report = SystemSimulator(soc).run()
        assert report.faults["fired"][FAULT_DOORBELL_DUP] == 1
        attacker = report.per_hart[0]
        # The duplicated event re-rings the doorbell: one more check
        # than queue pops on the faulted writer.
        assert attacker["cfi"]["checks_completed"] > attacker["cfi"]["selected"]

"""N-hart topologies must be cycle-exact in every engine — and the
single-hart topology must be cycle-identical to the historic SoC.

Mirrors ``tests/system/test_batched.py`` for the multi-hart subsystem:
every report field (including the per-hart breakdown and aggregated CFI
statistics) must be identical across the busy and batched engines, and a
``Topology()`` SoC must be indistinguishable from one built without a
topology at all.
"""

import random

import pytest

from repro.campaign.spec import VICTIMS
from repro.core.config import TitanCfiConfig
from repro.errors import ConfigError
from repro.firmware.policies import (
    CompositePolicy,
    CryptoReturnPolicy,
    ShadowStackPolicy,
)
from repro.firmware.shadow_stack import FirmwareLayout, shadow_stack_firmware
from repro.hart.core import Hart
from repro.policyhost import mount_policy_host
from repro.system.sim import MODE_BATCHED, MODE_BUSY, SystemSimulator
from repro.system.soc import build_soc
from repro.system.topology import Topology

MODES = (MODE_BUSY, MODE_BATCHED)

#: Hand-written (non-synthetic) victims usable on any hart.
CORPUS = sorted(name for name, spec in VICTIMS.items() if not spec.synthetic)


def _report_key(report):
    return (
        report.cycles,
        report.host_instructions,
        report.host_stall_cycles,
        report.ibex_instructions,
        report.detected,
        report.detection_latency,
        report.cfi,
        report.per_hart,
    )


def _build_multihart(victims, policy_factory=ShadowStackPolicy, seed=1234,
                     firmware=None, lossy=False):
    """N harts sharing one monitor: the policy host, or the RV32
    ``firmware`` variant on Ibex when one is named."""
    topo = Topology(n_harts=len(victims))
    soc = build_soc(
        cfi_config=TitanCfiConfig(raise_on_violation=False, lossy=lossy),
        topology=topo,
    )
    for hart_id, victim in enumerate(victims):
        amap = topo.address_map(hart_id, soc.addresses)
        program = VICTIMS[victim].builder(amap, random.Random(seed + hart_id))
        soc.load_host_program(program, hart_id=hart_id)
    if firmware is None:
        mount_policy_host(soc, policy_factory())
    else:
        layout = FirmwareLayout(soc.addresses)
        soc.load_firmware(shadow_stack_firmware(firmware, layout).data)
    return soc


def _run_multihart(victims, mode, policy_factory=ShadowStackPolicy,
                   seed=1234, start_delays=None, lossy=False):
    soc = _build_multihart(victims, policy_factory=policy_factory, seed=seed,
                           lossy=lossy)
    report = SystemSimulator(soc, mode=mode, start_delays=start_delays).run()
    return report, soc


class TestSingleHartIdentity:
    """``Topology()`` must be invisible: same SoC, same timeline."""

    @pytest.mark.parametrize("victim", sorted(VICTIMS))
    def test_firmware_reports_identical_to_legacy(self, victim):
        keys = []
        for topology in (None, Topology()):
            soc = build_soc(topology=topology)
            firmware = shadow_stack_firmware("irq", FirmwareLayout(soc.addresses))
            soc.load_firmware(firmware.data)
            program = VICTIMS[victim].builder(soc.addresses, random.Random(1234))
            soc.load_host_program(program)
            keys.append(_report_key(SystemSimulator(soc).run()))
        assert keys[0] == keys[1]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("victim", ["benign", "rop", "deep-recursion"])
    def test_every_engine_matches_legacy(self, victim, mode):
        keys = []
        for topology in (None, Topology()):
            soc = build_soc(topology=topology)
            firmware = shadow_stack_firmware("irq", FirmwareLayout(soc.addresses))
            soc.load_firmware(firmware.data)
            program = VICTIMS[victim].builder(soc.addresses, random.Random(1234))
            soc.load_host_program(program)
            keys.append(_report_key(SystemSimulator(soc, mode=mode).run()))
        assert keys[0] == keys[1]

    @pytest.mark.parametrize(
        "policy_factory", [ShadowStackPolicy, CryptoReturnPolicy]
    )
    def test_policy_host_matches_legacy(self, policy_factory):
        keys = []
        for topology in (None, Topology()):
            soc = build_soc(
                cfi_config=TitanCfiConfig(raise_on_violation=False),
                topology=topology,
            )
            program = VICTIMS["rop"].builder(soc.addresses, random.Random(1234))
            soc.load_host_program(program)
            mount_policy_host(soc, policy_factory())
            keys.append(_report_key(SystemSimulator(soc).run()))
        assert keys[0] == keys[1]

    def test_single_hart_report_is_a_view_of_its_one_hart(self):
        soc = build_soc(topology=Topology())
        firmware = shadow_stack_firmware("irq", FirmwareLayout(soc.addresses))
        soc.load_firmware(firmware.data)
        program = VICTIMS["rop"].builder(soc.addresses, random.Random(1234))
        soc.load_host_program(program)
        report = SystemSimulator(soc).run()
        (entry,) = report.per_hart
        assert entry["detected"] and report.detected
        assert entry["violation_kind"] == report.violation.kind
        assert entry["detection_latency"] == report.detection_latency
        assert entry["instructions"] == report.host_instructions
        assert entry["stall_cycles"] == report.host_stall_cycles
        # Same keys, same order, same values as the stage's own summary.
        assert list(report.cfi.items()) == list(
            soc.cfi_stage.stats_summary().items())


class TestMultiHartEngineEquivalence:
    """Both engines, field-for-field, per-hart included."""

    @pytest.mark.parametrize("victims", [
        ("rop", "benign"),
        ("benign", "rop"),
        ("jop", "deep-recursion", "indirect-clean"),
        ("rop", "deep-recursion", "deep-recursion", "deep-recursion"),
    ])
    def test_reports_identical_across_modes(self, victims):
        reference = None
        for mode in MODES:
            report, _ = _run_multihart(victims, mode)
            key = _report_key(report)
            if reference is None:
                reference = key
            else:
                assert key == reference, (victims, mode)

    @pytest.mark.parametrize("policy_factory", [CryptoReturnPolicy,
                                                ShadowStackPolicy])
    def test_policies_identical_across_modes(self, policy_factory):
        keys = [
            _report_key(_run_multihart(("rop", "deep-recursion"), mode,
                                       policy_factory=policy_factory)[0])
            for mode in MODES
        ]
        assert keys[0] == keys[1]

    def test_architectural_state_identical(self):
        snapshots = []
        for mode in MODES:
            _, soc = _run_multihart(("rop", "benign", "deep-recursion"), mode)
            snapshots.append(tuple(
                (hart.regs.snapshot(), hart.cycle) for hart in soc.harts
            ))
        assert snapshots[0] == snapshots[1]

    @pytest.mark.parametrize("fw_variant", ["irq", "polling"])
    def test_firmware_monitor_identical_across_modes(self, fw_variant,
                                                     monkeypatch):
        """The RV32 firmware as the shared monitor.  It keeps a single
        shadow context, so its verdicts mean nothing here; the point is
        the schedule: Ibex runs its own windows between the application
        harts' windows, and both engines must still agree."""
        windows = []
        run_n = Hart.run_n

        def spy(hart, *args, **kwargs):
            retired, spent, term = run_n(hart, *args, **kwargs)
            if retired:
                windows.append(hart)
            return retired, spent, term

        monkeypatch.setattr(Hart, "run_n", spy)
        keys = []
        for mode in MODES:
            soc = _build_multihart(("rop", "deep-recursion"),
                                   firmware=fw_variant)
            keys.append(_report_key(SystemSimulator(soc, mode=mode).run()))
        assert keys[0] == keys[1]
        assert soc.rot.ibex in windows
        assert set(soc.harts) <= set(windows)

    @pytest.mark.parametrize("victims", [
        ("rop", "deep-recursion", "benign", "deep-recursion"),
        ("rop", "deep-recursion", "deep-recursion", "deep-recursion"),
    ])
    def test_staggered_start_identical_across_modes(self, victims):
        keys = [
            _report_key(_run_multihart(
                victims, mode, start_delays=[0, 700, 1400, 2100])[0])
            for mode in MODES
        ]
        assert keys[0] == keys[1]


#: Seeds of the saturation runs below.
SATURATION_SEEDS = (1234, 2345, 3456, 4567, 5678)


def _saturate(n, seed=1234, mode=MODE_BATCHED, lossy=False):
    """One saturation run: the rop attack on hart 0 races N - 1
    deep-recursion peers for the one shared monitor.  Returns the report
    and its comparison key, which adds every stage's check latencies."""
    report, soc = _run_multihart(("rop",) + ("deep-recursion",) * (n - 1),
                                 mode, seed=seed, lossy=lossy)
    latencies = [stage.writer.stats.check_latencies
                 for stage in soc.cfi_stages]
    return report, _report_key(report) + (latencies,)


class TestSaturation:
    """One monitor absorbing the event streams of N harts."""

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_stalling_queues_detect_and_never_drop(self, n):
        for seed in SATURATION_SEEDS:
            report, _ = _saturate(n, seed)
            assert report.detection_latency is not None, seed
            assert report.cfi["dropped"] == 0, seed

    def test_lossy_queue_that_never_fills_is_the_stalling_queue(self):
        """Drop-oldest acts only at the full-queue edge.  At N = 1 the
        queue never fills, so the lossy run is the stalling run, cycle
        for cycle, and drops nothing."""
        _, stalling = _saturate(1)
        report, lossy = _saturate(1, lossy=True)
        assert lossy == stalling
        assert report.cfi["dropped"] == 0

    def test_saturated_lossy_queue_sheds_instead_of_stalling(self):
        """At N = 2 the lossy queue trades every full-queue stall for a
        drop, identically in both engines."""
        (_, busy), (report, batched) = (
            _saturate(2, mode=mode, lossy=True) for mode in MODES)
        assert busy == batched
        assert report.cfi["full_stalls"] == 0
        assert report.cfi["dropped"] > 0


class TestPerHartReport:
    def test_attack_hart_flagged_peers_clean(self):
        report, _ = _run_multihart(("rop", "benign"), MODE_BATCHED)
        assert report.detected
        assert report.per_hart is not None and len(report.per_hart) == 2
        attacker, peer = report.per_hart
        assert attacker["hart"] == 0 and attacker["detected"]
        assert attacker["violation_kind"] is not None
        assert attacker["detection_latency"] == report.detection_latency
        assert peer["hart"] == 1 and not peer["detected"]
        assert peer["detection_latency"] is None

    def test_attack_on_peer_hart_attributed_correctly(self):
        report, _ = _run_multihart(("benign", "benign", "rop"), MODE_BATCHED)
        assert report.detected
        flagged = [h for h in report.per_hart if h["detected"]]
        assert [h["hart"] for h in flagged] == [2]
        assert report.detection_latency == flagged[0]["detection_latency"]

    def test_aggregate_cfi_sums_per_hart_stages(self):
        report, _ = _run_multihart(("rop", "deep-recursion"), MODE_BATCHED)
        for counter in ("examined", "selected", "logs_sent",
                        "checks_completed", "full_stalls"):
            assert report.cfi[counter] == sum(
                h["cfi"].get(counter, 0) for h in report.per_hart
            )
        assert report.cfi["queue_high_water"] == max(
            h["cfi"].get("queue_high_water", 0) for h in report.per_hart
        )
        assert report.host_instructions == sum(
            h["instructions"] for h in report.per_hart
        )

    def test_policy_host_demultiplexes_per_hart_stats(self):
        _, soc = _run_multihart(("rop", "benign"), MODE_BATCHED)
        summary = soc.policy_host.stats_summary()
        per_hart = summary["per_hart"]
        assert len(per_hart) == 2
        assert all(entry["checks"] > 0 for entry in per_hart)


class TestStartDelayValidation:
    def test_wrong_length_rejected(self):
        soc = _build_multihart(("benign", "benign"))
        with pytest.raises(ConfigError):
            SystemSimulator(soc, start_delays=[0])

    @pytest.mark.parametrize("delay", [-1, 1.5, "0"])
    def test_bad_delay_rejected(self, delay):
        soc = _build_multihart(("benign", "benign"))
        with pytest.raises(ConfigError):
            SystemSimulator(soc, start_delays=[0, delay])

    def test_stagger_defers_peer_work(self):
        prompt, _ = _run_multihart(("benign", "benign"), MODE_BATCHED)
        delayed, _ = _run_multihart(("benign", "benign"), MODE_BATCHED,
                                    start_delays=[0, 5000])
        assert delayed.cycles > prompt.cycles
        assert (delayed.host_instructions == prompt.host_instructions)


class TestPerHartPolicyContexts:
    def test_context_zero_is_the_policy_itself(self):
        policy = ShadowStackPolicy()
        assert policy.context(0) is policy

    def test_contexts_spawn_lazily_and_cache(self):
        policy = ShadowStackPolicy(capacity=7)
        ctx = policy.context(3)
        assert ctx is not policy
        assert isinstance(ctx, ShadowStackPolicy)
        assert ctx.capacity == 7
        assert policy.context(3) is ctx

    def test_composite_spawns_member_contexts(self):
        policy = CompositePolicy([ShadowStackPolicy(), CryptoReturnPolicy()])
        ctx = policy.context(1)
        assert isinstance(ctx, CompositePolicy)
        assert ctx is not policy

    def test_install_context_rejects_hart_zero(self):
        policy = ShadowStackPolicy()
        with pytest.raises(ConfigError):
            policy.install_context(0, ShadowStackPolicy())

    def test_install_context_overrides_spawn(self):
        policy = ShadowStackPolicy()
        provisioned = ShadowStackPolicy(capacity=3)
        policy.install_context(1, provisioned)
        assert policy.context(1) is provisioned

    def test_reset_resets_every_context(self):
        policy = ShadowStackPolicy()
        ctx = policy.context(1)
        ctx.stack.append(0xDEADBEEF)
        policy.reset()
        assert ctx.stack == []

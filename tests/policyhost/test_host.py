"""Policy-host behaviour: back-pressure, blocking, latched violations,
the crypto-return policy, and the calibration machinery itself.

The back-pressure/blocking classes mirror
``tests/system/test_batched.py``'s firmware-path configurations: the
host must keep both engines cycle-exact under CFI queue
back-pressure (depth 1), blocking commit mode and latched (non-raising)
violations — and, for the shadow-stack policy, match the firmware
exactly in those configurations too.
"""

import random

import pytest

from repro.attacks.rop import run_attack_scenario
from repro.campaign.spec import VICTIMS
from repro.core.commit_log import CommitLog
from repro.core.config import TitanCfiConfig
from repro.errors import ConfigError, ProtocolError
from repro.firmware.policies import (
    CheckResult,
    CryptoReturnPolicy,
    ForwardEdgePolicy,
    ShadowStackPolicy,
)
from repro.firmware.shadow_stack import FirmwareLayout, shadow_stack_firmware
from repro.policyhost import calibration
from repro.policyhost.calibration import (
    STEADY,
    ResponseCurve,
    ResponseModel,
    calibrate,
)
from repro.policyhost.host import firmware_path, mount_policy_host, resolve_path_key
from repro.system.addresses import AddressMap
from repro.system.sim import MODE_BATCHED, MODE_BUSY, SystemSimulator
from repro.system.soc import build_soc

MODES = (MODE_BUSY, MODE_BATCHED)

_ADDRESSES = AddressMap()


def _program(victim, seed=1234):
    return VICTIMS[victim].builder(_ADDRESSES, random.Random(seed))


def _key(report):
    return (
        report.cycles,
        report.host_instructions,
        report.host_stall_cycles,
        report.detected,
        report.detection_latency,
        report.cfi,
    )


def _run_config(victim, mode, backend, policy_factory=ShadowStackPolicy,
                **config_kwargs):
    """One cosim run under an explicit TitanCfiConfig."""
    config = TitanCfiConfig(**config_kwargs)
    soc = build_soc(cfi_config=config)
    if backend == "firmware":
        firmware = shadow_stack_firmware("irq", FirmwareLayout(soc.addresses))
        soc.load_firmware(firmware.data)
    else:
        mount_policy_host(soc, policy_factory(), variant="irq")
    soc.load_host_program(_program(victim))
    report = SystemSimulator(soc, mode=mode).run()
    return report, soc


class TestBackPressureConfigurations:
    """Queue-full stalls and blocking mode (the firmware-path mirror)."""

    @pytest.mark.parametrize("victim", ["benign", "rop", "deep-recursion"])
    def test_depth1_blocking_matches_firmware_all_engines(self, victim):
        reference = _key(_run_config(victim, MODE_BUSY, "firmware",
                                     queue_depth=1, blocking=True)[0])
        for mode in MODES:
            report, _ = _run_config(victim, mode, "host",
                                    queue_depth=1, blocking=True)
            assert _key(report) == reference, (victim, mode)

    def test_depth1_nonblocking_matches_firmware_all_engines(self):
        reference = _key(_run_config("deep-recursion", MODE_BUSY, "firmware",
                                     queue_depth=1)[0])
        for mode in MODES:
            report, _ = _run_config("deep-recursion", mode, "host",
                                    queue_depth=1)
            assert _key(report) == reference, mode

    def test_blocking_depth1_stops_the_gadget(self):
        """Table II configuration through the host: detection is
        synchronous, so the gadget never becomes architecturally
        visible — same as the firmware path."""
        from repro.attacks.programs import GADGET_MARKER

        report, soc = _run_config("rop", MODE_BATCHED, "host",
                                  queue_depth=1, blocking=True)
        assert report.detected
        assert soc.cva6.regs.read(10) != GADGET_MARKER

    def test_latched_violations_match_firmware_all_engines(self):
        """raise_on_violation=False: the run continues past the
        violation and the host keeps servicing checks — the latched
        fault, later check latencies and totals must all match."""
        reference = _key(_run_config("ret-to-callsite", MODE_BUSY, "firmware",
                                     raise_on_violation=False)[0])
        for mode in MODES:
            report, _ = _run_config("ret-to-callsite", mode, "host",
                                    raise_on_violation=False)
            assert _key(report) == reference, mode
        assert reference[3], "violation must still be detected"


class TestHostAgentProperties:
    def test_rot_core_stays_frozen(self):
        report, soc = _run_config("benign", MODE_BATCHED, "host")
        assert report.ibex_instructions == 0
        assert soc.rot.ibex.instret == 0
        assert soc.policy_host.stats.checks == report.cfi["checks_completed"]

    def test_host_stats_track_paths_and_latencies(self):
        report, soc = _run_config("benign", MODE_BUSY, "host")
        stats = soc.policy_host.stats_summary()
        assert stats["checks"] > 0
        assert stats["violations"] == 0
        assert stats["mean_service_latency"] > 0
        assert all(count > 0 for count in stats["by_path"].values())

    def test_one_hart_host_rejects_a_payload_tagged_with_hart_1(self):
        """Every transmission carries its source hart id in payload byte
        28, and a one-hart host checks it like any other."""
        soc = build_soc()
        mount_policy_host(soc, ShadowStackPolicy())
        log = CommitLog(pc=0x8000_0000, encoding=0x0000_8067,
                        next_address=0x8000_0004, target=0x8000_0100)
        with pytest.raises(ProtocolError, match="unknown hart 1"):
            soc.cfi_mailbox.deposit(log.pack() + bytes((1, 0, 0, 0)))
        assert soc.policy_host.stats.checks == 0

    def test_double_mount_rejected(self):
        soc = build_soc()
        mount_policy_host(soc, ShadowStackPolicy())
        with pytest.raises(ConfigError, match="already has a policy host"):
            mount_policy_host(soc, ShadowStackPolicy())

    def test_policy_without_check_rejected(self):
        soc = build_soc()
        with pytest.raises(ConfigError, match="no check"):
            mount_policy_host(soc, object())

    def test_host_needs_policy_instance(self):
        with pytest.raises(ConfigError, match="needs a policy"):
            run_attack_scenario(_program("benign"), policy_backend="host")

    def test_unknown_policy_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown policy backend"):
            run_attack_scenario(_program("benign"), policy_backend="hardware")

    def test_prebuilt_soc_rejects_inconsistent_policy_arguments(self):
        """A prebuilt soc must not silently ignore the policy axis."""
        soc = build_soc()
        with pytest.raises(ConfigError, match="already mounted"):
            run_attack_scenario(_program("benign"), soc=soc,
                                policy_backend="host",
                                policy=ShadowStackPolicy())
        with pytest.raises(ConfigError, match="no policy host mounted"):
            run_attack_scenario(_program("benign"), soc=soc,
                                policy_backend="host")
        mount_policy_host(soc, ShadowStackPolicy())
        with pytest.raises(ConfigError, match="has policy host mounted"):
            run_attack_scenario(_program("benign"), soc=soc)

    def test_prebuilt_soc_with_mounted_host_runs(self):
        soc = build_soc()
        mount_policy_host(soc, ShadowStackPolicy())
        outcome = run_attack_scenario(_program("rop"), soc=soc,
                                      policy_backend="host")
        assert outcome.detected

    def test_spill_beyond_calibrated_depth_fails_loudly(self):
        """The response model does not cover spill/restore: those path
        keys must raise, not silently charge the plain push/pop cost and
        drift from firmware timing.  Boot-epoch rings are keyed by the
        same model, so a spill inside a boot epoch raises too."""
        from repro.errors import SimulationError
        from repro.firmware.policies import EVENT_RESTORE, EVENT_SPILL

        model = calibrate("irq")
        spill_key = resolve_path_key(0x000000ef, False, EVENT_SPILL)
        restore_key = resolve_path_key(0x00008067, False, EVENT_RESTORE)
        assert spill_key == ("call-jal-ra", "spill")
        assert restore_key == ("ret-ra", "restore")
        for key in (spill_key, restore_key):
            with pytest.raises(SimulationError, match="spill/restore"):
                model.service_delta(key)

    def test_spill_inside_a_boot_epoch_fails_loudly(self, monkeypatch):
        """Boot-epoch rings are keyed by the firmware mirror, so a spill
        of the mirror raises the same error (a four-entry mirror stands
        in for the firmware's 1,024)."""
        from repro.errors import SimulationError
        from repro.firmware.rig import call_log
        from repro.policyhost import host as host_module
        from repro.soc.mailbox import CfiMailbox

        monkeypatch.setattr(host_module, "_LAYOUT", FirmwareLayout(
            _ADDRESSES, ss_capacity=4, spill_entries=2))
        mailbox = CfiMailbox()
        host = host_module.PolicyHost(ShadowStackPolicy(), mailbox,
                                      calibrate("irq"))
        with pytest.raises(SimulationError, match="spill/restore"):
            for _ in range(5):
                mailbox.deposit(call_log(1).pack())
                while not mailbox.completion_pending:
                    host.tick()
        assert host.stats.checks == host.stats.shadow_checks == 4


class TestCryptoReturnPolicy:
    """The host-only policy: MAC-tagged return addresses (CCFI-style)."""

    def test_detects_rop_with_engine_invariance(self):
        program = _program("rop")
        reference = None
        for mode in MODES:
            outcome = run_attack_scenario(
                program, sim_mode=mode,
                policy_backend="host", policy=CryptoReturnPolicy(),
            )
            key = _key(outcome.report)
            assert outcome.detected and outcome.violation.kind == "return"
            if reference is None:
                reference = key
            else:
                assert key == reference, mode

    def test_costs_more_than_shadow_stack(self):
        """The modelled MAC surcharge must be visible in the measured
        detection latency (same victim, same handshake cadence)."""
        program = _program("rop")
        shadow = run_attack_scenario(
            program, policy_backend="host", policy=ShadowStackPolicy())
        crypto = run_attack_scenario(
            program, policy_backend="host", policy=CryptoReturnPolicy())
        assert crypto.report.detection_latency > shadow.report.detection_latency

    def test_benign_run_clean(self):
        outcome = run_attack_scenario(
            _program("benign"), policy_backend="host",
            policy=CryptoReturnPolicy())
        assert not outcome.detected

    def test_tamper_is_detected_on_return(self):
        """Corrupting a stored frame breaks its MAC: the next return
        through it is flagged even though the attacker aims at the
        original address (the trace-level analogue of a spill-area
        tamper on the firmware path)."""
        from repro.campaign.runner import capture_commit_logs

        policy = CryptoReturnPolicy()
        logs, _hart = capture_commit_logs(_program("benign"), _ADDRESSES)
        verdicts = []
        tampered = False
        for log in logs:
            if policy.depth and not tampered:
                policy.tamper()
                tampered = True
            verdicts.append(policy.check(log))
        assert tampered
        assert CheckResult.VIOLATION in verdicts

    def test_forward_edge_policy_runs_as_agent(self):
        """A policy with label sets resolved from the victim symbols
        (the campaign's host path) detects the JOP chain in cosim."""
        program = _program("jop")
        spec = VICTIMS["jop"]
        targets = {program.symbols[name] for name in spec.entry_points}
        outcome = run_attack_scenario(
            program, policy_backend="host",
            policy=ForwardEdgePolicy(targets))
        assert outcome.detected and outcome.violation.kind == "indirect-jump"


class TestTable2Variants:
    def test_shadow_stack_host_reproduces_measured_table2(self):
        """Zero surcharge: the shadow stack's policy-host latency set is
        the Table I measured set, so its Table II rows are identical to
        the firmware's measured rows."""
        from repro.eval import table2

        assert (table2.compute(policy=ShadowStackPolicy())
                == table2.compute(latencies="measured"))

    def test_crypto_return_rows_are_strictly_slower(self):
        from repro.eval import table2

        base = table2.compute(latencies="measured")
        crypto = table2.compute(policy=CryptoReturnPolicy())
        for row_base, row_crypto in zip(base, crypto):
            for variant in ("optimized", "polling", "irq"):
                assert (row_crypto["model"][variant]
                        > row_base["model"][variant]), row_base["benchmark"]

    def test_paper_latencies_reject_policy_variant(self):
        from repro.eval import table2

        with pytest.raises(ValueError, match="measured-only"):
            table2.resolve_latencies("paper", policy=ShadowStackPolicy())


class TestCalibration:
    def test_models_are_memoised(self):
        assert calibrate("irq") is calibrate("irq")
        assert calibrate("irq") is not calibrate("polling")

    @pytest.mark.parametrize("kwargs", [
        {"variant": "bogus"},
        {"fabric": "warp"},
        {"wake_cycles": -5},
        {"wake_cycles": "45"},
        {"wake_cycles": True},
        {"wake_cycles": 4.5},
    ], ids=repr)
    def test_bad_config_is_a_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            ResponseModel(**kwargs)

    def test_memo_does_not_alias_a_bool_wake(self, monkeypatch):
        """``True == 1``: a memoised one-cycle-wake model must not
        answer ``wake_cycles=True``."""
        monkeypatch.setitem(calibration._MODELS, ("irq", "standard", 1),
                            object())
        with pytest.raises(ConfigError, match="wake_cycles"):
            calibrate(wake_cycles=True)

    def test_response_curve_periodic_extrapolation(self):
        curve = ResponseCurve(start=0, values=(9, 8, 7, 5, 6, 5, 6), period=2)
        assert [curve.latency(d) for d in range(3, 11)] == [5, 6, 5, 6, 5, 6, 5, 6]
        with pytest.raises(Exception):
            ResponseCurve(start=4, values=(1,), period=1).latency(3)

    def test_irq_tail_is_constant_polling_is_loop_periodic(self):
        irq = calibrate("irq")
        polling = calibrate("polling")
        assert irq.busy_curve(STEADY).period == 1
        assert polling.busy_curve(STEADY).period > 1

    def test_service_deltas_cover_every_firmware_path(self):
        model = calibrate("irq")
        for encoding, violation, hint in [
            (0x000080e7, False, None),   # jalr ra → call
            (0x00008067, False, None),   # jalr x0,(ra) → return
            (0x00008067, True, None),    # mismatched return
            (0x00008067, True, "underflow"),
            (0x00050067, False, None),   # jalr x0,(a0) → indirect jump
            (0x00050067, True, None),    # host-only: flagged jump (bias)
            (0x0000006f, False, None),   # jal x0 → direct jump
            (0x00000013, False, None),   # non-transfer
        ]:
            key = resolve_path_key(encoding, violation, hint)
            assert isinstance(model.service_delta(key), int), key

    def test_firmware_path_mirrors_cflow_classification(self):
        """The path parser must agree with the shared classifier on
        call/return/jump structure for every probe encoding."""
        from repro.isa.cflow import CfKind, classify_word

        cases = {
            "call-jal-ra": 0x000000ef, "call-jalr-ra": 0x000080e7,
            "ret-ra": 0x00008067, "ret-t0": 0x00028067,
            "jump-rs": 0x00050067, "jal-jump": 0x0000006f,
        }
        kinds = {
            "call-jal-ra": CfKind.CALL, "call-jalr-ra": CfKind.CALL,
            "ret-ra": CfKind.RETURN, "ret-t0": CfKind.RETURN,
            "jump-rs": CfKind.INDIRECT_JUMP, "jal-jump": CfKind.DIRECT_JUMP,
        }
        for path, encoding in cases.items():
            assert firmware_path(encoding) == path
            assert classify_word(encoding) is kinds[path]

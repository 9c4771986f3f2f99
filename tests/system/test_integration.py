"""Full-system integration: real firmware on Ibex, real programs on CVA6.

These are the tests that prove §IV works end to end: the co-simulated
handshake (filter → queue → log writer → AXI → mailbox → doorbell →
PLIC → Ibex ISR → verdict → completion) on clean runs, attacks, and the
spill path.
"""

import pytest

from repro.attacks.programs import (
    CLEAN_MARKER,
    GADGET_MARKER,
    benign_program,
    deep_recursion_program,
    rop_program,
)
from repro.attacks.rop import run_attack_scenario
from repro.core.config import TitanCfiConfig
from repro.firmware.shadow_stack import FirmwareLayout, shadow_stack_firmware
from repro.system.addresses import AddressMap
from repro.system.sim import SystemSimulator
from repro.system.soc import build_soc


@pytest.fixture(scope="module")
def addresses():
    return AddressMap()


def build_protected(variant="irq", queue_depth=8, blocking=False,
                    fabric="standard", layout=None):
    soc = build_soc(
        cfi_config=TitanCfiConfig(queue_depth=queue_depth, blocking=blocking),
        fabric=fabric,
    )
    fw_variant = "irq" if variant == "irq" else "polling"
    firmware = shadow_stack_firmware(
        fw_variant, layout or FirmwareLayout(soc.addresses)
    )
    soc.load_firmware(firmware.data)
    return soc


class TestCleanRuns:
    def test_benign_program_passes_irq_firmware(self, addresses):
        soc = build_protected("irq")
        soc.load_host_program(benign_program(soc.addresses))
        report = SystemSimulator(soc).run()
        assert not report.detected
        assert soc.cva6.regs.read(10) == CLEAN_MARKER
        assert report.cfi["checks_completed"] == report.cfi["selected"]
        assert report.cfi["checks_completed"] > 10

    @pytest.mark.parametrize("fabric", ["standard", "optimized"])
    def test_benign_program_passes_polling_firmware(self, addresses, fabric):
        soc = build_protected("polling", fabric=fabric)
        soc.load_host_program(benign_program(soc.addresses))
        report = SystemSimulator(soc).run()
        assert not report.detected
        assert soc.cva6.regs.read(10) == CLEAN_MARKER
        assert report.cfi["checks_completed"] == report.cfi["selected"]

    def test_polling_faster_than_irq(self, addresses):
        """The paper's headline optimisation: polling cuts check latency."""
        results = {}
        for variant in ("irq", "polling"):
            soc = build_protected(variant, queue_depth=1, blocking=True)
            soc.load_host_program(benign_program(soc.addresses))
            results[variant] = SystemSimulator(soc).run().cycles
        assert results["polling"] < results["irq"]

    def test_optimized_fabric_fastest(self, addresses):
        results = {}
        for name, fabric, variant in (
            ("polling", "standard", "polling"),
            ("optimized", "optimized", "polling"),
        ):
            soc = build_protected(variant, queue_depth=1, blocking=True,
                                  fabric=fabric)
            soc.load_host_program(benign_program(soc.addresses))
            results[name] = SystemSimulator(soc).run().cycles
        assert results["optimized"] < results["polling"]

    def test_unprotected_baseline_has_no_cfi_stats(self, addresses):
        soc = build_soc(with_cfi=False)
        soc.load_host_program(benign_program(soc.addresses))
        report = SystemSimulator(soc).run()
        assert report.cfi == {}
        assert soc.cva6.regs.read(10) == CLEAN_MARKER

    def test_protection_overhead_is_bounded(self, addresses):
        """Deep queue + sparse CF ops: overhead should be small."""
        baseline = build_soc(with_cfi=False)
        baseline.load_host_program(benign_program(baseline.addresses))
        base_cycles = SystemSimulator(baseline).run().cycles

        protected = build_protected("irq", queue_depth=8)
        protected.load_host_program(benign_program(protected.addresses))
        protected_cycles = SystemSimulator(protected).run().cycles
        assert protected_cycles >= base_cycles


class TestAttackDetection:
    def test_rop_detected_irq(self, addresses):
        outcome = run_attack_scenario(rop_program(addresses), "irq")
        assert outcome.detected
        assert outcome.violation.kind == "return"

    def test_rop_detected_polling(self, addresses):
        outcome = run_attack_scenario(rop_program(addresses), "polling")
        assert outcome.detected

    def test_benign_not_flagged(self, addresses):
        outcome = run_attack_scenario(benign_program(addresses), "irq")
        assert not outcome.detected

    def test_async_detection_lets_gadget_start(self, addresses):
        """Queue depth 8: detection is asynchronous; the gadget's side
        effects are visible by the time the verdict lands."""
        outcome = run_attack_scenario(rop_program(addresses), "irq",
                                      queue_depth=8, blocking=False)
        assert outcome.detected
        assert outcome.gadget_executed

    def test_blocking_mode_stops_gadget(self, addresses):
        """Depth-1 blocking (Table II config): the violating return
        cannot be outrun — the gadget never executes."""
        outcome = run_attack_scenario(rop_program(addresses), "irq",
                                      queue_depth=1, blocking=True)
        assert outcome.detected
        assert not outcome.gadget_executed


class TestSpillPath:
    def test_deep_recursion_with_tiny_stack_spills_and_passes(self, addresses):
        """Recursion deeper than the resident stack must spill to DRAM
        (HMAC-authenticated) and still verify every return."""
        amap = AddressMap()
        layout = FirmwareLayout(amap, ss_capacity=16, spill_entries=8)
        soc = build_protected("irq", layout=layout)
        soc.load_host_program(deep_recursion_program(soc.addresses, depth=40))
        report = SystemSimulator(soc).run(max_cycles=20_000_000)
        assert not report.detected
        assert soc.cva6.regs.read(10) == CLEAN_MARKER
        assert soc.rot.hmac.operations >= 2  # spill + restore MACs

    def test_shallow_recursion_no_spill(self, addresses):
        soc = build_protected("irq")
        soc.load_host_program(deep_recursion_program(soc.addresses, depth=8))
        report = SystemSimulator(soc).run()
        assert not report.detected
        assert soc.rot.hmac.operations == 0


class TestMailboxProtection:
    def test_rogue_master_cannot_touch_mailbox(self, addresses):
        """§VI: PMP-style guard faults any non-authorised master."""
        from repro.errors import AccessFault

        soc = build_soc()
        with pytest.raises(AccessFault, match="denied"):
            soc.axi.write("accelerator", soc.addresses.cfi_mailbox_base, b"\x01")
        assert soc.pmp.faults == 1

    def test_cfi_stage_and_rot_allowed(self, addresses):
        soc = build_soc()
        soc.axi.read("cfi-stage", soc.addresses.cfi_mailbox_base, 8)
        soc.axi.read("opentitan", soc.addresses.cfi_mailbox_base, 8)

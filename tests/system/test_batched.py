"""Batched hart stepping must be invisible in every statistic.

The batched engine (``SystemSimulator(mode="batched")``) runs whole
instruction windows inside :meth:`repro.hart.core.Hart.run_n` between
synchronisation points.  This suite drives every registered campaign
victim under both firmware variants through both execution engines and
asserts the resulting :class:`SimulationReport` is field-for-field
identical — cycles, stall counts, instret, CFI statistics (including
check latencies, queue high-water and detection latency).
"""

import random

import pytest

from repro.attacks.programs import benign_program
from repro.campaign.spec import VICTIMS
from repro.errors import ConfigError, SimulationError
from repro.firmware.shadow_stack import FirmwareLayout, shadow_stack_firmware
from repro.system.sim import MODE_BATCHED, MODE_BUSY, SystemSimulator
from repro.system.soc import build_soc

MODES = (MODE_BUSY, MODE_BATCHED)


def _run(victim, mode, fw_variant="irq", seed=1234, **soc_kwargs):
    soc = build_soc(**soc_kwargs)
    if soc.cfi_stage is not None or soc_kwargs.get("with_cfi", True):
        firmware = shadow_stack_firmware(fw_variant, FirmwareLayout(soc.addresses))
        soc.load_firmware(firmware.data)
    program = VICTIMS[victim].builder(soc.addresses, random.Random(seed))
    soc.load_host_program(program)
    report = SystemSimulator(soc, mode=mode).run()
    return report, soc


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


class TestEveryVictimEveryFirmware:
    """The full victim registry × firmware variants, both engines."""

    @pytest.mark.parametrize("fw_variant", ["irq", "polling"])
    @pytest.mark.parametrize("victim", sorted(VICTIMS))
    def test_reports_identical_across_modes(self, victim, fw_variant):
        reference = None
        for mode in MODES:
            report, _ = _run(victim, mode, fw_variant=fw_variant)
            key = _report_key(report)
            if reference is None:
                reference = key
            else:
                assert key == reference, (victim, fw_variant, mode)

    @pytest.mark.parametrize("victim", ["benign", "rop", "deep-recursion"])
    def test_architectural_state_identical(self, victim):
        """Not just the report: the final register file must match."""
        snapshots = []
        for mode in MODES:
            _, soc = _run(victim, mode)
            snapshots.append(
                (soc.cva6.regs.snapshot(), soc.rot.ibex.regs.snapshot(),
                 soc.cva6.cycle, soc.rot.ibex.cycle)
            )
        assert snapshots[0] == snapshots[1]


class TestBackPressureConfigurations:
    """The paths that bypass batching (CFI back-pressure, blocking)."""

    @pytest.mark.parametrize("victim", ["benign", "rop", "deep-recursion"])
    def test_depth1_blocking_identical(self, victim):
        from repro.core.config import TitanCfiConfig

        keys = []
        for mode in MODES:
            config = TitanCfiConfig(queue_depth=1, blocking=True)
            report, _ = _run(victim, mode, cfi_config=config)
            keys.append(_report_key(report))
        assert keys[0] == keys[1]

    def test_depth1_nonblocking_identical(self):
        from repro.core.config import TitanCfiConfig

        keys = []
        for mode in MODES:
            config = TitanCfiConfig(queue_depth=1)
            report, _ = _run("deep-recursion", mode, cfi_config=config)
            keys.append(_report_key(report))
        assert keys[0] == keys[1]


class TestPlatformVariants:
    def test_optimized_fabric_identical(self):
        keys = [
            _report_key(_run("benign", mode, fabric="optimized")[0])
            for mode in MODES
        ]
        assert keys[0] == keys[1]

    def test_baseline_without_cfi_identical(self):
        keys = [
            _report_key(_run("benign", mode, with_cfi=False)[0])
            for mode in MODES
        ]
        assert keys[0] == keys[1]

    def test_latched_violations_identical(self):
        """raise_on_violation=False: runs continue past the violation;
        the batched engine must latch on the same cycle."""
        from repro.core.config import TitanCfiConfig

        keys = []
        for mode in MODES:
            config = TitanCfiConfig(raise_on_violation=False)
            report, _ = _run("ret-to-callsite", mode, cfi_config=config)
            keys.append(_report_key(report))
        assert keys[0] == keys[1]
        assert keys[0][4], "violation must still be detected"


class TestBatchingActuallyBatches:
    def test_batched_mode_reduces_tick_count(self):
        """Same cycles, far fewer scheduler iterations."""
        soc = build_soc()
        firmware = shadow_stack_firmware("irq", FirmwareLayout(soc.addresses))
        soc.load_firmware(firmware.data)
        soc.load_host_program(benign_program(soc.addresses))
        sim = SystemSimulator(soc, mode=MODE_BATCHED)
        ticks = 0
        original_tick = sim.tick

        def counting_tick():
            nonlocal ticks
            ticks += 1
            original_tick()

        sim.tick = counting_tick
        report = sim.run()
        assert ticks < report.cycles // 10, "batched run barely batched"

    def test_cycle_budget_exhaustion_matches_busy_loop(self):
        """The max_cycles exhaustion path fires on the same cycle (no
        firmware: Ibex halts on its first fetch, so checks hang)."""
        for mode in MODES:
            soc = build_soc()
            soc.load_host_program(benign_program(soc.addresses))
            sim = SystemSimulator(soc, mode=mode)
            with pytest.raises(SimulationError, match="exceeded"):
                sim.run(max_cycles=50_000)
            assert sim.now == 50_000, mode

    @pytest.mark.parametrize("mode", ["warp", 'event-driven'])
    def test_unknown_mode_rejected(self, mode):
        soc = build_soc()
        with pytest.raises(ConfigError, match="unknown execution mode"):
            SystemSimulator(soc, mode=mode)

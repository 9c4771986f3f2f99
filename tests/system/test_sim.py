"""Co-simulator unit tests: interleaving, quiescence, reporting."""

import pytest

from repro.attacks.programs import CLEAN_MARKER, benign_program
from repro.errors import ConfigError, SimulationError
from repro.firmware.policies import ShadowStackPolicy
from repro.firmware.shadow_stack import FirmwareLayout, shadow_stack_firmware
from repro.policyhost import mount_policy_host
from repro.system.sim import SystemSimulator
from repro.system.soc import build_soc


def protected_soc():
    soc = build_soc()
    firmware = shadow_stack_firmware("irq", FirmwareLayout(soc.addresses))
    soc.load_firmware(firmware.data)
    return soc


class TestRunSemantics:
    def test_cycle_budget_enforced(self):
        soc = protected_soc()
        soc.load_host_program(benign_program(soc.addresses))
        with pytest.raises(SimulationError, match="exceeded"):
            SystemSimulator(soc).run(max_cycles=10)

    def test_run_drains_cfi_pipeline(self):
        soc = protected_soc()
        soc.load_host_program(benign_program(soc.addresses))
        report = SystemSimulator(soc).run()
        assert soc.cfi_stage.quiescent
        assert report.cfi["checks_completed"] == report.cfi["logs_sent"]

    def test_report_fields_consistent(self):
        soc = protected_soc()
        soc.load_host_program(benign_program(soc.addresses))
        report = SystemSimulator(soc).run()
        assert report.cycles > 0
        assert report.host_instructions > 0
        assert report.ibex_instructions > 0
        assert not report.detected

    def test_harts_interleave(self):
        """Ibex must make progress while CVA6 still runs (true co-sim)."""
        soc = protected_soc()
        soc.load_host_program(benign_program(soc.addresses))
        simulator = SystemSimulator(soc)
        saw_both_active = False
        for _ in range(50_000):
            simulator.tick()
            if soc.cva6.halted:
                break
            if soc.rot.ibex.instret > 0 and not soc.cva6.halted:
                saw_both_active = True
                break
        assert saw_both_active

    def test_rot_without_firmware_hangs_checks(self):
        """Without firmware, Ibex halts on its first fetch and checks
        never complete (sanity that the verdicts really come from Ibex,
        not from a model shortcut)."""
        soc = build_soc()
        soc.load_host_program(benign_program(soc.addresses))
        simulator = SystemSimulator(soc)
        with pytest.raises(SimulationError):
            simulator.run(max_cycles=100_000)
        assert soc.rot.ibex.halted and soc.rot.ibex.instret == 0
        assert soc.cfi_stage.writer.stats.checks_completed == 0


class TestBaselineComparison:
    def test_cfi_overhead_visible_in_cycles(self):
        baseline = build_soc(with_cfi=False)
        baseline.load_host_program(benign_program(baseline.addresses))
        base = SystemSimulator(baseline).run()

        protected = protected_soc()
        protected.load_host_program(benign_program(protected.addresses))
        prot = SystemSimulator(protected).run()

        assert base.host_instructions == prot.host_instructions
        assert prot.cycles >= base.cycles
        assert protected.cva6.regs.read(10) == CLEAN_MARKER


class TestProbe:
    def test_probe_is_invisible_in_cycles(self):
        reports, steps = [], []
        for probe in (None, steps.append):
            soc = protected_soc()
            soc.load_host_program(benign_program(soc.addresses))
            simulator = SystemSimulator(soc)
            simulator.probe(soc.rot.ibex, probe)
            reports.append(simulator.run())
        assert reports[0] == reports[1]
        retired = [step for step in steps if step.insn is not None]
        assert len(retired) == reports[1].ibex_instructions

    def test_probe_needs_a_scheduled_hart(self):
        """A mounted policy host freezes Ibex, so it cannot be probed."""
        soc = build_soc()
        mount_policy_host(soc, ShadowStackPolicy())
        with pytest.raises(ConfigError, match="not scheduled"):
            SystemSimulator(soc).probe(soc.rot.ibex, print)


class TestCycleArguments:
    """Cycle counts at the simulator's entry points follow the one
    integer-field rule (``repro.errors.check_int``): an ``int``, not a
    ``bool``, >= 0."""

    def test_bool_start_delay_rejected(self):
        with pytest.raises(ConfigError, match="start delay"):
            SystemSimulator(protected_soc(), start_delays=[True])

    @pytest.mark.parametrize("max_cycles", ["10", True, -1, 10.0])
    def test_bad_max_cycles_rejected(self, max_cycles):
        soc = protected_soc()
        soc.load_host_program(benign_program(soc.addresses))
        simulator = SystemSimulator(soc)
        with pytest.raises(ConfigError, match="max_cycles"):
            simulator.run(max_cycles=max_cycles)
        assert simulator.now == 0

    @pytest.mark.parametrize("until", ["10", False, -1, 2.5])
    def test_bad_advance_bound_rejected(self, until):
        simulator = SystemSimulator(protected_soc())
        with pytest.raises(ConfigError, match="until"):
            simulator.advance(until)
        assert simulator.now == 0

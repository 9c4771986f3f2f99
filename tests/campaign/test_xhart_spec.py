"""Scenario axes for cross-hart adversarial cells: ``fault_hart``
scoping, the ``defense``/``lossy`` knobs, grid-expansion rules, name
stability, and the registered xhart matrices."""

import pytest

from repro.campaign.spec import (
    ADVERSARIAL_FAULT_PLANS,
    MONITOR_FAULT_PLANS,
    TRANSPORT_FAULT_PLANS,
    Scenario,
    expand_grid,
    resolve_matrix,
)
from repro.errors import ConfigError, UnknownHartError


class TestScenarioValidation:
    def test_plan_families_partition_the_registry(self):
        assert set(ADVERSARIAL_FAULT_PLANS) == {
            "xhart-flood", "xhart-hold", "xhart-spoof"
        }
        assert not set(ADVERSARIAL_FAULT_PLANS) & set(MONITOR_FAULT_PLANS)
        assert not set(ADVERSARIAL_FAULT_PLANS) & set(TRANSPORT_FAULT_PLANS)

    def test_multihart_fault_needs_fault_hart(self):
        with pytest.raises(ConfigError, match="silently fault hart 0"):
            Scenario(victim="rop", backend="cosim", n_harts=2,
                     fault_plan="drop-first")

    def test_fault_hart_needs_a_plan(self):
        with pytest.raises(ConfigError, match="needs a fault_plan"):
            Scenario(victim="rop", backend="cosim", n_harts=2, fault_hart=1)

    def test_single_hart_fault_hart_is_rejected(self):
        with pytest.raises(ConfigError, match="needs a multi-hart cell"):
            Scenario(victim="rop", backend="cosim", fault_plan="drop-first",
                     fault_hart=0)

    def test_fault_hart_out_of_range_is_typed(self):
        with pytest.raises(UnknownHartError):
            Scenario(victim="rop", backend="cosim", n_harts=2,
                     fault_plan="xhart-spoof", fault_hart=2, defense=True)

    def test_adversarial_plan_needs_multihart(self):
        with pytest.raises(ConfigError, match="multi-hart"):
            Scenario(victim="rop", backend="cosim", policy_backend="host",
                     fault_plan="xhart-spoof")

    def test_adversarial_plan_needs_defense(self):
        with pytest.raises(ConfigError, match="defense"):
            Scenario(victim="rop", backend="cosim", n_harts=2,
                     fault_plan="xhart-spoof", fault_hart=1)

    def test_defense_needs_multihart_cosim(self):
        with pytest.raises(ConfigError, match="multi-hart"):
            Scenario(victim="rop", backend="cosim", defense=True)

    def test_lossy_needs_cosim(self):
        with pytest.raises(ConfigError, match="cosim"):
            Scenario(victim="rop", lossy=True)

    def test_lossy_excludes_blocking(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            Scenario(victim="rop", backend="cosim", lossy=True,
                     blocking=True)

    def test_xhart_name_parts(self):
        cell = Scenario(victim="rop", backend="cosim", n_harts=2,
                        hart_victims=("deep-recursion",),
                        fault_plan="xhart-spoof", fault_hart=1,
                        defense=True)
        for part in ("fault-xhart-spoof", "fh1", "guard"):
            assert part in cell.name.split("/")

    def test_lossy_name_part(self):
        cell = Scenario(victim="rop", backend="cosim", lossy=True)
        assert "lossy" in cell.name.split("/")

    def test_pre_existing_names_are_stable(self):
        """The new axes must not rename existing cells (artifact and
        seed-derivation stability across PRs)."""
        assert Scenario(victim="rop", backend="cosim").name \
            == "cosim/rop/shadow-stack/irq/q8"
        assert Scenario(victim="rop", backend="cosim", n_harts=2).name \
            == "cosim/rop/shadow-stack/host/irq/q8/n2/benign"


class TestGridExpansion:
    def test_mixed_sweep_drops_incompatible_cells(self):
        cells = expand_grid(
            victim="rop",
            backend=["reference", "cosim"],
            n_harts=[1, 2],
            fault_plan=[None, "drop-first", "xhart-spoof"],
            fault_hart=[None, 1],
            defense=[False, True],
        )
        assert cells  # something survived
        names = [c.name for c in cells]
        assert len(set(names)) == len(names)
        for cell in cells:
            if cell.fault_plan == "xhart-spoof":
                assert cell.n_harts == 2 and cell.defense \
                    and cell.fault_hart == 1
            if cell.n_harts == 2 and cell.fault_plan is not None:
                assert cell.fault_hart is not None

    def test_lossy_blocking_combinations_drop(self):
        cells = expand_grid(
            victim="rop",
            backend="cosim",
            lossy=[False, True],
            blocking=[False, True],
        )
        assert len(cells) == 3
        assert not any(c.lossy and c.blocking for c in cells)


class TestXhartMatrices:
    def test_xhart_matrix_shape(self):
        cells = resolve_matrix("xhart")
        names = [c.name for c in cells]
        assert len(set(names)) == len(names)
        adversarial = [c for c in cells if c.fault_plan is not None]
        baselines = [c for c in cells if c.fault_plan is None]
        assert len(adversarial) == 18 and len(baselines) == 4
        assert {c.fault_plan for c in adversarial} \
            == set(ADVERSARIAL_FAULT_PLANS)
        for cell in cells:
            assert cell.defense and not cell.lossy
            assert cell.n_harts in (2, 4)
        # The fault-hart sweep moves the compromised hart around.
        assert {c.fault_hart for c in adversarial} == {1, 2, 3}

    def test_xhart_smoke_matrix_shape(self):
        cells = resolve_matrix("xhart-smoke")
        assert len(cells) == 4
        assert {c.fault_plan for c in cells} \
            == {None, "xhart-flood", "xhart-hold", "xhart-spoof"}
        assert all(c.n_harts == 2 and c.defense for c in cells)

"""Multi-hart campaign cells: validation, naming, grids and execution.

The scenario layer must reject every inconsistent multi-hart cell with
a *typed* error (never silently fix it up), produce stable names for
the consistent ones, and the grid expander must drop — not raise on —
cross-field combinations that cannot exist (multi-hart on the reference
backend, firmware agents, unscoped fault plans).  A small N=2 run through the
real runner closes the loop: per-hart rows, aggregate verdict, and
engine invariance.
"""

import pytest

from repro.campaign.runner import run_scenario
from repro.campaign.spec import (
    Scenario,
    expand_grid,
    resolve_matrix,
)
from repro.errors import ConfigError, HartCountError, UnknownHartError
from repro.system.topology import MAX_HARTS


def _cell(**overrides):
    """A valid baseline multi-hart cell, tweaked per test."""
    kwargs = dict(victim="rop", backend="cosim", n_harts=2)
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestMultiHartValidation:
    @pytest.mark.parametrize("n", [0, -1, MAX_HARTS + 1, True, "2"])
    def test_bad_hart_count_rejected(self, n):
        with pytest.raises(HartCountError):
            _cell(n_harts=n)

    @pytest.mark.parametrize("attack_hart", [-1, 2, 7])
    def test_attack_hart_out_of_range(self, attack_hart):
        with pytest.raises(UnknownHartError) as excinfo:
            _cell(attack_hart=attack_hart)
        assert excinfo.value.hart_id == attack_hart
        assert excinfo.value.n_harts == 2

    def test_negative_stagger_rejected(self):
        with pytest.raises(ConfigError, match="stagger"):
            _cell(stagger=-1)

    def test_single_hart_rejects_multihart_knobs(self):
        with pytest.raises(ConfigError, match="hart_victims"):
            Scenario(victim="rop", backend="cosim", hart_victims=("benign",))
        with pytest.raises(ConfigError, match="stagger"):
            Scenario(victim="rop", backend="cosim", stagger=500)

    def test_reference_backend_rejected(self):
        with pytest.raises(ConfigError, match="cosim"):
            Scenario(victim="rop", backend="reference", n_harts=2)

    def test_firmware_agent_rejected(self):
        with pytest.raises(ConfigError, match="shadow context"):
            _cell(policy_backend="firmware")

    def test_unscoped_fault_plan_rejected(self):
        # Fault plans are allowed on multi-hart cells since the
        # cross-hart PR, but only hart-scoped: an unscoped plan would
        # silently fault hart 0.
        with pytest.raises(ConfigError, match="silently fault hart 0"):
            _cell(fault_plan="drop-first")
        assert _cell(fault_plan="drop-first", fault_hart=1).fault_hart == 1

    def test_hart_victims_length_must_be_n_minus_one(self):
        with pytest.raises(ConfigError, match="hart_victims"):
            _cell(n_harts=4, hart_victims=("benign",))

    def test_synthetic_victims_rejected(self):
        with pytest.raises(ConfigError, match="synthesized"):
            _cell(victim="synth-rop")
        with pytest.raises(ConfigError, match="synthesized"):
            _cell(hart_victims=("synth-benign",))

    def test_unknown_peer_victim_rejected(self):
        with pytest.raises(ConfigError, match="unknown victim"):
            _cell(hart_victims=("nope",))

    def test_valid_cells_accepted(self):
        assert _cell().multihart
        assert _cell(n_harts=MAX_HARTS).n_harts == MAX_HARTS
        assert _cell(n_harts=4, attack_hart=3, stagger=750,
                     hart_victims=("jop", "benign", "deep-recursion"))


class TestResolution:
    def test_auto_backend_resolves_to_host(self):
        assert _cell().resolved_policy_backend == "host"
        assert _cell(policy="composite").resolved_policy_backend == "host"

    def test_single_hart_auto_still_prefers_firmware(self):
        single = Scenario(victim="rop", backend="cosim")
        assert single.resolved_policy_backend == "firmware"

    def test_resolved_hart_victims_default_to_benign(self):
        assert _cell(n_harts=4).resolved_hart_victims == ("benign",) * 3
        assert _cell(hart_victims=("jop",)).resolved_hart_victims == ("jop",)
        assert Scenario(victim="rop").resolved_hart_victims == ()

    def test_victim_for_hart_maps_around_attack_hart(self):
        cell = _cell(n_harts=4, attack_hart=2,
                     hart_victims=("benign", "jop", "deep-recursion"))
        assert [cell.victim_for_hart(h) for h in range(4)] == [
            "benign", "jop", "rop", "deep-recursion"
        ]
        with pytest.raises(UnknownHartError):
            cell.victim_for_hart(4)

    def test_single_hart_victim_for_hart_is_the_victim(self):
        cell = Scenario(victim="rop")
        assert cell.victim_for_hart(0) == "rop"


class TestNaming:
    def test_name_carries_multihart_axes(self):
        name = _cell(n_harts=4, attack_hart=2, stagger=750,
                     hart_victims=("jop", "benign", "deep-recursion")).name
        assert "n4" in name
        assert "jop+benign+deep-recursion" in name
        assert "ah2" in name
        assert "g750" in name

    def test_name_omits_default_axes(self):
        name = _cell().name
        assert "n2" in name and "benign" in name
        assert "ah" not in name and "/g" not in name

    def test_single_hart_names_are_stable(self):
        """Legacy cells must keep their historic names (artifact and
        seed-derivation compatibility)."""
        cell = Scenario(victim="rop", backend="cosim")
        assert cell.name == "cosim/rop/shadow-stack/irq/q8"

    def test_names_are_unique_across_matrix(self):
        names = [s.name for s in resolve_matrix("multihart")]
        assert len(names) == len(set(names))


class TestGridExpansion:
    def test_hart_victims_single_tuple_is_one_axis_value(self):
        cells = expand_grid(
            victim="rop", backend="cosim", n_harts=2, hart_victims=("jop",)
        )
        assert len(cells) == 1
        assert cells[0].hart_victims == ("jop",)

    def test_hart_victims_list_of_tuples_sweeps(self):
        cells = expand_grid(
            victim="rop", backend="cosim", n_harts=2,
            hart_victims=[("jop",), ("benign",)],
        )
        assert [c.hart_victims for c in cells] == [("jop",), ("benign",)]

    def test_hart_victims_axis_rejects_scalars(self):
        with pytest.raises(ConfigError, match="hart_victims"):
            expand_grid(victim="rop", backend="cosim", n_harts=2,
                        hart_victims="jop")

    def test_mixed_backend_sweep_drops_reference_multihart(self):
        cells = expand_grid(
            victim="rop", backend=["reference", "cosim"], n_harts=[1, 2]
        )
        multi = [c for c in cells if c.multihart]
        assert multi and all(c.backend == "cosim" for c in multi)
        assert any(c.backend == "reference" and not c.multihart for c in cells)

    def test_firmware_agent_cells_dropped(self):
        cells = expand_grid(
            victim="rop", backend="cosim", n_harts=2,
            policy_backend=["firmware", "host"],
        )
        assert [c.policy_backend for c in cells] == ["host"]

    def test_fault_plan_cells_dropped(self):
        cells = expand_grid(
            victim="rop", backend="cosim", n_harts=[1, 2],
            fault_plan=[None, "drop-first"],
        )
        assert all(c.fault_plan is None or not c.multihart for c in cells)
        assert any(c.multihart for c in cells)

    def test_mismatched_hart_victims_cells_dropped(self):
        cells = expand_grid(
            victim="rop", backend="cosim", n_harts=[2, 4],
            hart_victims=("jop",),
        )
        assert [c.n_harts for c in cells] == [2]

    def test_out_of_range_attack_hart_cells_dropped(self):
        cells = expand_grid(
            victim="rop", backend="cosim", n_harts=[2, 4], attack_hart=[0, 2]
        )
        assert all(c.attack_hart < c.n_harts for c in cells)
        assert {(c.n_harts, c.attack_hart) for c in cells} == {
            (2, 0), (4, 0), (4, 2)
        }

    def test_multihart_knobs_drop_single_hart_cells(self):
        cells = expand_grid(
            victim="rop", backend="cosim", n_harts=[1, 2], stagger=[0, 750]
        )
        assert all(not c.stagger or c.multihart for c in cells)


class TestNamedMatrices:
    @pytest.mark.parametrize("name", ["multihart", "multihart-smoke"])
    def test_matrices_resolve(self, name):
        cells = resolve_matrix(name)
        assert cells
        assert all(c.multihart for c in cells)
        assert all(c.backend == "cosim" for c in cells)
        assert all(c.resolved_policy_backend == "host" for c in cells)

    def test_full_matrix_covers_the_axes(self):
        cells = resolve_matrix("multihart")
        assert {c.n_harts for c in cells} == {2, 4, 8}
        assert any(c.stagger for c in cells)
        assert any(c.attack_hart for c in cells)
        assert any(c.hart_victims for c in cells)

    def test_smoke_matrix_is_small(self):
        smoke = resolve_matrix("multihart-smoke")
        assert 0 < len(smoke) <= 8
        assert {c.n_harts for c in smoke} == {2, 4}


class TestRunScenario:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(_cell(), campaign_seed=7)

    def test_result_carries_multihart_columns(self, result):
        assert result["n_harts"] == 2
        assert result["attack_hart"] == 0
        assert result["hart_victims"] == ["benign"]
        assert result["stagger"] == 0

    def test_per_hart_rows_and_aggregate_verdict(self, result):
        rows = result["per_hart"]
        assert [row["hart"] for row in rows] == [0, 1]
        assert rows[0]["victim"] == "rop" and rows[0]["detected"]
        assert rows[1]["victim"] == "benign" and not rows[1]["detected"]
        assert result["detected"] and result["expectation_met"]
        assert all(row["expectation_met"] for row in rows)

    def test_engines_agree_through_the_runner(self, result):
        batched = run_scenario(_cell(), campaign_seed=7, sim_mode="batched")
        stable = {k: v for k, v in result.items() if k != "wall_time_sec"}
        assert stable == {
            k: v for k, v in batched.items() if k != "wall_time_sec"
        }

    def test_single_hart_rows_are_null(self):
        single = Scenario(victim="benign", backend="cosim")
        result = run_scenario(single, campaign_seed=7)
        assert result["n_harts"] == 1
        assert result["per_hart"] is None
        assert result["attack_hart"] is None
        assert result["hart_victims"] is None

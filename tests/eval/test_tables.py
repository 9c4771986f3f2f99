"""Experiment-harness tests: every table reproduces the paper's shape.

These are the reproduction's acceptance tests: they encode how close
each regenerated number must be to the published one (the table CLIs in
README.md's "Regenerating the paper's tables" print both).
"""

import pytest

from repro.eval import figure1, table2, table3, table4
from repro.eval.firmware_analysis import analyze_all, check_latency


@pytest.fixture(scope="module")
def firmware_results():
    return analyze_all()


class TestTable1Shape:
    """Firmware analysis against the published Table I."""

    def test_irq_call_total_cycles(self, firmware_results):
        total = firmware_results["irq"]["call"].total_cycles
        assert total == pytest.approx(258, rel=0.10)  # paper: 258

    def test_irq_return_total_cycles(self, firmware_results):
        total = firmware_results["irq"]["return"].total_cycles
        assert total == pytest.approx(276, rel=0.10)

    def test_polling_cheaper_than_irq(self, firmware_results):
        assert (
            firmware_results["polling"]["call"].total_cycles
            < firmware_results["irq"]["call"].total_cycles
        )

    def test_optimized_cheapest(self, firmware_results):
        assert (
            firmware_results["optimized"]["call"].total_cycles
            < firmware_results["polling"]["call"].total_cycles
        )

    def test_latencies_near_paper(self, firmware_results):
        assert check_latency(firmware_results, "irq") == pytest.approx(267, rel=0.10)
        assert check_latency(firmware_results, "polling") == pytest.approx(112, rel=0.12)
        assert check_latency(firmware_results, "optimized") == pytest.approx(73, rel=0.12)

    def test_soc_access_counts_match_paper_exactly(self, firmware_results):
        """Table I: 4 SoC accesses per check, every variant."""
        for variant in ("irq", "polling", "optimized"):
            for kind in ("call", "return"):
                cell = firmware_results[variant][kind].cell("cfi", "mem_soc")
                assert cell.instructions == 4

    def test_rot_access_counts_match_paper_exactly(self, firmware_results):
        """Table I: 5 RoT scratchpad accesses in the CFI section."""
        for kind in ("call", "return"):
            cell = firmware_results["irq"][kind].cell("cfi", "mem_rot")
            assert cell.instructions == 5

    def test_irq_spill_restore_cost(self, firmware_results):
        """Table I: 14 RoT accesses in the IRQ section (6+6 spill/restore
        + PLIC claim/complete)."""
        cell = firmware_results["irq"]["call"].cell("irq", "mem_rot")
        assert cell.instructions == 14

    def test_polling_has_no_irq_section(self, firmware_results):
        for kind in ("call", "return"):
            assert firmware_results["polling"][kind].section_total("irq").cycles == 0

    def test_polling_saving_near_58_percent(self, firmware_results):
        irq_latency = check_latency(firmware_results, "irq")
        poll_latency = check_latency(firmware_results, "polling")
        saving = 100.0 * (1 - poll_latency / irq_latency)
        assert saving == pytest.approx(58, abs=8)  # paper: ~58%

    def test_optimized_saving_over_70_percent(self, firmware_results):
        irq_latency = check_latency(firmware_results, "irq")
        optimized = check_latency(firmware_results, "optimized")
        assert 100.0 * (1 - optimized / irq_latency) >= 70

    def test_wake_cycles_dominate_irq_logic(self, firmware_results):
        """§V-B: 45 of the IRQ logic cycles are the doorbell→wake latency."""
        cell = firmware_results["irq"]["call"].cell("irq", "logic")
        assert cell.cycles >= 45


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self):
        return {row["benchmark"]: row for row in table2.compute(latencies="paper")}

    def test_every_published_cell_within_one_point(self, rows):
        for name, row in rows.items():
            for variant in ("optimized", "polling", "irq"):
                paper = row["paper"][variant]
                model = row["model"][variant]
                if paper is None:
                    assert model < 1.0, f"{name}/{variant}"
                else:
                    assert model == pytest.approx(paper, abs=max(1.0, 0.01 * paper)), (
                        f"{name}/{variant}"
                    )

    def test_titancfi_beats_dexie_on_3_of_4(self, rows):
        """§V-C: lower overhead than DExIE in 3 of 4 shared benchmarks."""
        wins = sum(
            1
            for name in ("aha-mont64", "edn", "matmult-int", "ud")
            if rows[name]["model"]["irq"] < rows[name]["dexie"]
        )
        assert wins >= 3

    def test_dhrystone_is_the_outlier(self, rows):
        assert rows["dhrystone"]["model"]["irq"] > 1000

    def test_default_latencies_are_measured(self):
        """Regression: the module docstring promises measured-by-default;
        the code once defaulted to ``latencies="paper"``."""
        import inspect

        for fn in (table2.compute, table2.render, table2.resolve_latencies):
            default = inspect.signature(fn).parameters["latencies"].default
            assert default == "measured", fn.__qualname__

    def test_default_matches_explicit_measured(self):
        assert table2.compute() == table2.compute(latencies="measured")

    def test_measured_latencies_keep_ud_near_paper(self):
        """At the latencies measured on this repository's Ibex model,
        ud's depth-1 IRQ slowdown stays near the paper's 43%."""
        rows = {row["benchmark"]: row
                for row in table2.compute(latencies="measured")}
        assert rows["ud"]["model"]["irq"] == pytest.approx(43, abs=6)


class TestTable3:
    @pytest.fixture(scope="class")
    def rows(self):
        return {row["benchmark"]: row for row in table3.compute(latencies="paper")}

    def test_row_count(self, rows):
        assert len(rows) == 32

    def test_irq_column_matches_calibration_targets(self, rows):
        for name, row in rows.items():
            paper = row["paper"]["irq"]
            model = row["model"]["irq"]
            if paper is None:
                assert model < 3.0, name
            else:
                assert model == pytest.approx(paper, abs=0.12 * paper + 3), name

    def test_majority_under_10_percent(self, rows):
        """The paper's headline: <10% overhead for most kernels (IRQ)."""
        low = sum(1 for row in rows.values() if row["model"]["irq"] < 10)
        assert low >= len(rows) // 2

    def test_validation_columns_track_paper(self, rows):
        """Poll/Opt (predictions, not fits) stay within 2x-ish everywhere
        the paper reports a value; spot-check the big ones tightly."""
        for name in ("dhrystone", "mm", "nbody", "slre"):
            row = rows[name]
            for variant in ("optimized", "polling"):
                assert row["model"][variant] == pytest.approx(
                    row["paper"][variant], rel=0.15
                ), f"{name}/{variant}"

    def test_saturated_ordering_preserved(self, rows):
        """mm is the worst case, dhrystone second, as in the paper."""
        irq = {name: row["model"]["irq"] for name, row in rows.items()}
        worst = sorted(irq, key=irq.get, reverse=True)[:2]
        assert worst[0] == "mm"
        assert worst[1] == "dhrystone"

    def test_worst_cases_within_5_percent(self, rows):
        """The two worst cases, tighter than the calibration tolerance:
        mm 4311% and dhrystone 1215% in the paper."""
        assert rows["mm"]["model"]["irq"] == pytest.approx(4311, rel=0.05)
        assert rows["dhrystone"]["model"]["irq"] == pytest.approx(1215, rel=0.05)


class TestTable4:
    @pytest.fixture(scope="class")
    def data(self):
        return table4.compute()

    def test_host_deltas_within_15_percent(self, data):
        host = data["host"]
        assert host["delta"].luts == pytest.approx(host["paper_delta"]["lut"], rel=0.15)
        assert host["delta"].registers == pytest.approx(host["paper_delta"]["reg"], rel=0.15)

    def test_soc_deltas_within_15_percent(self, data):
        soc = data["soc"]
        assert soc["delta"].luts == pytest.approx(soc["paper_delta"]["lut"], rel=0.15)
        assert soc["delta"].registers == pytest.approx(soc["paper_delta"]["reg"], rel=0.15)

    def test_no_bram_needed(self, data):
        assert data["host"]["delta"].brams == 0

    def test_soc_overhead_under_1_percent(self, data):
        """The paper's headline: ~1% additional area on the SoC."""
        assert data["soc"]["overhead_percent"]["lut"] < 1.0
        assert data["soc"]["overhead_percent"]["reg"] < 1.0

    def test_host_overhead_under_6_percent(self, data):
        assert data["host"]["overhead_percent"]["lut"] < 6.0
        assert data["host"]["overhead_percent"]["reg"] < 7.0

    def test_uses_less_than_dexie(self, data):
        dexie_lut_delta = data["dexie"]["lut_with_cfi"] - data["dexie"]["lut_base"]
        assert data["host"]["delta"].luts < dexie_lut_delta

    def test_queue_depth_scales_registers(self):
        registers = [table4.compute(queue_depth=depth)["host"]["delta"].registers
                     for depth in (1, 2, 4, 8, 16, 32)]
        assert registers == sorted(set(registers))  # strictly increasing


class TestFigure1:
    def test_architecture_verifies(self):
        assert figure1.compute()["problems"] == []

    def test_dot_export_contains_domains(self):
        dot = figure1.compute()["dot"]
        assert dot.startswith("digraph titancfi")
        for cluster in ("cluster_cva6", "cluster_cfi-stage", "cluster_host", "cluster_rot"):
            assert cluster in dot

    def test_check_round_trip_nodes_exist(self):
        graph = figure1.build_graph()
        for node in figure1.CHECK_ROUND_TRIP:
            assert node in graph

    def test_broken_wire_detected(self):
        graph = figure1.build_graph()
        graph.remove_edge("cfi-mailbox", "log-writer")
        assert figure1.verify(graph)

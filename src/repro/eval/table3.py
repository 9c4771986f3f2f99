"""Table III — statistics and slowdowns of EmBench-IoT and RISC-V-Tests.

Queue depth 8, all 32 benchmarks, three firmware configurations.  The
synthetic traces are calibrated once against the published IRQ column
(see :mod:`repro.bench_catalog.calibration`); the Polling and Optimized
columns are predictions, reported next to the paper's values.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench_catalog.calibration import CalibratedTrace, calibrate_all
from repro.eval.report import paper_vs_measured, render_table, scientific
from repro.eval.table1 import PAPER_LATENCIES
from repro.eval.table2 import resolve_latencies
from repro.trace.model import simulate_trace

_ORDER = ("optimized", "polling", "irq")
QUEUE_DEPTH = 8


def compute(
    latencies: str = "paper",
    queue_depth: int = QUEUE_DEPTH,
    calibration: Optional[Dict[str, CalibratedTrace]] = None,
) -> List[Dict[str, object]]:
    """Rows of Table III."""
    lat = resolve_latencies(latencies)
    calibrated = calibration or calibrate_all(
        irq_latency=round(lat["irq"]), queue_depth=queue_depth
    )
    rows: List[Dict[str, object]] = []
    for name, cal in calibrated.items():
        bench = cal.benchmark
        arrivals = cal.arrivals()
        model = {
            variant: simulate_trace(
                arrivals, bench.cycles, round(lat[variant]), queue_depth=queue_depth
            ).slowdown_percent
            for variant in _ORDER
        }
        rows.append({
            "benchmark": name,
            "suite": bench.suite,
            "cycles": bench.cycles,
            "cf_count": bench.cf_count,
            "paper": {
                "optimized": bench.paper_opt,
                "polling": bench.paper_poll,
                "irq": bench.paper_irq,
            },
            "model": model,
            "fitted": cal.fitted,
        })
    return rows


def render(latencies: str = "paper", queue_depth: int = QUEUE_DEPTH) -> str:
    """Text report for Table III (cells are paper/model)."""
    rows = compute(latencies=latencies, queue_depth=queue_depth)
    lat = resolve_latencies(latencies)
    table_rows = []
    for row in rows:
        table_rows.append([
            row["benchmark"],
            scientific(row["cycles"]),
            scientific(row["cf_count"]),
            paper_vs_measured(row["paper"]["optimized"], row["model"]["optimized"]),
            paper_vs_measured(row["paper"]["polling"], row["model"]["polling"]),
            paper_vs_measured(row["paper"]["irq"], row["model"]["irq"]),
            "burst" if row["fitted"] else "uniform",
        ])
    title = (
        f"Table III - slowdown %, CFI queue depth {queue_depth} "
        f"(L: opt={lat['optimized']:.0f} poll={lat['polling']:.0f} "
        f"irq={lat['irq']:.0f}; cells: paper/model)"
    )
    return render_table(
        ["Benchmark", "Cycles", "CF", "Opt.", "Poll.", "IRQ", "Trace"],
        table_rows,
        title=title,
    )


def main() -> None:
    """CLI entry point (``python -m repro.eval.table3``)."""
    print(render(latencies="paper"))


if __name__ == "__main__":
    main()

"""Table I — cycles to implement the return-address protection policy.

Runs the real firmware variants on the Ibex ISS and reproduces the
paper's breakdown: {IRQ, CFI} × {Logic, Mem-RoT, Mem-SoC} ×
{instructions, cycles, cycle-%} for a call and a return, in the IRQ,
Polling and Optimized configurations — plus the derived §V-B metrics
(45-cycle wake, polling/optimized savings, per-check latencies).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.eval.firmware_analysis import (
    CATEGORIES,
    CheckBreakdown,
    analyze_all,
    check_latency,
)
from repro.eval.report import render_table

#: Published Table I totals: variant → kind → (instructions, cycles).
PAPER_TOTALS = {
    "irq": {"call": (48, 258), "return": (58, 276)},
    "polling": {"call": (24, 103), "return": (34, 121)},
    "optimized": {"call": (24, 64), "return": (34, 82)},
}

#: Published per-check latencies used by §V-C (averaged call/return).
PAPER_LATENCIES = {"irq": 267, "polling": 112, "optimized": 73}

_CATEGORY_LABELS = {"logic": "Logic", "mem_rot": "Mem. RoT", "mem_soc": "Mem. SoC"}


def compute(addresses=None) -> Dict[str, object]:
    """Measure everything; returns breakdowns + derived metrics."""
    results = analyze_all(addresses=addresses)
    latencies = {variant: check_latency(results, variant) for variant in results}
    irq_latency = latencies["irq"]
    derived = {
        "latencies": latencies,
        "polling_saving_percent": 100.0 * (1 - latencies["polling"] / irq_latency),
        "optimized_saving_percent": 100.0 * (1 - latencies["optimized"] / irq_latency),
    }
    return {"results": results, "derived": derived}


def _rows_for(variant: str, kind: str, breakdown: CheckBreakdown) -> List[List[object]]:
    rows: List[List[object]] = []
    total_cycles = breakdown.total_cycles or 1
    for category in CATEGORIES:
        irq_cell = breakdown.cell("irq", category)
        cfi_cell = breakdown.cell("cfi", category)
        cat = breakdown.category_total(category)
        rows.append([
            variant.upper(), kind.upper(), _CATEGORY_LABELS[category],
            irq_cell.instructions or None, cfi_cell.instructions or None, cat.instructions,
            irq_cell.cycles or None, cfi_cell.cycles or None, cat.cycles,
            round(100.0 * cat.cycles / total_cycles),
        ])
    irq_total = breakdown.section_total("irq")
    cfi_total = breakdown.section_total("cfi")
    rows.append([
        variant.upper(), kind.upper(), "TOT",
        irq_total.instructions or None, cfi_total.instructions or None,
        breakdown.total_instructions,
        irq_total.cycles or None, cfi_total.cycles or None, breakdown.total_cycles,
        100,
    ])
    return rows


def render(computed: Optional[Dict[str, object]] = None) -> str:
    """Full text report for Table I."""
    computed = computed or compute()
    results = computed["results"]
    derived = computed["derived"]

    rows: List[List[object]] = []
    for variant in ("irq", "polling", "optimized"):
        for kind in ("call", "return"):
            rows.extend(_rows_for(variant, kind, results[variant][kind]))

    table = render_table(
        ["Variant", "Op.", "Class",
         "I.IRQ", "I.CFI", "I.TOT",
         "C.IRQ", "C.CFI", "C.TOT", "C%"],
        rows,
        title="Table I - return-address protection cost in OpenTitan (measured)",
    )

    lines = [table, "", "Paper-vs-measured totals:"]
    for variant in ("irq", "polling", "optimized"):
        for kind in ("call", "return"):
            p_instr, p_cycles = PAPER_TOTALS[variant][kind]
            b = results[variant][kind]
            lines.append(
                f"  {variant:9s} {kind:6s}: instructions {p_instr}/{b.total_instructions}"
                f"  cycles {p_cycles}/{b.total_cycles}   (paper/measured)"
            )
    lines.append("")
    lines.append("Derived per-check latencies L (averaged call/return):")
    for variant, latency in derived["latencies"].items():
        lines.append(
            f"  {variant:9s}: paper {PAPER_LATENCIES[variant]:4d}  measured {latency:6.1f}"
        )
    lines.append(
        f"Polling saves {derived['polling_saving_percent']:.0f}% of the IRQ check"
        " (paper: ~58%)"
    )
    lines.append(
        f"Optimized saves {derived['optimized_saving_percent']:.0f}% of the IRQ check"
        " (paper: >70%)"
    )
    return "\n".join(lines)


def main() -> None:
    """CLI entry point (``python -m repro.eval.table1``)."""
    print(render())


if __name__ == "__main__":
    main()

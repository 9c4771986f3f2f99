"""Table IV — hardware resource utilisation versus DExIE.

The structural area model costs every block TitanCFI adds; the harness
reports the host-core and SoC deltas and overhead percentages next to
the published values, plus the DExIE comparison rows.
"""

from __future__ import annotations

from typing import Dict, List

from repro.area.catalog import HOST_BASELINE, PAPER_DELTAS, SOC_BASELINE
from repro.area.model import (
    breakdown,
    estimate_cfi_stage,
    estimate_mailbox,
    total,
)
from repro.baselines.dexie import DEXIE_AREA
from repro.eval.report import render_table


def compute(queue_depth: int = 8) -> Dict[str, object]:
    """Model deltas + published values, fully structured."""
    host_blocks = estimate_cfi_stage(queue_depth=queue_depth)
    host_delta = total(host_blocks)
    soc_delta = host_delta + total(estimate_mailbox())
    return {
        "host": {
            "delta": host_delta,
            "baseline": HOST_BASELINE,
            "paper_delta": PAPER_DELTAS["host"],
            "overhead_percent": {
                "lut": 100.0 * host_delta.luts / HOST_BASELINE["lut"],
                "reg": 100.0 * host_delta.registers / HOST_BASELINE["reg"],
            },
        },
        "soc": {
            "delta": soc_delta,
            "baseline": SOC_BASELINE,
            "paper_delta": PAPER_DELTAS["soc"],
            "overhead_percent": {
                "lut": 100.0 * soc_delta.luts / SOC_BASELINE["lut"],
                "reg": 100.0 * soc_delta.registers / SOC_BASELINE["reg"],
            },
        },
        "dexie": DEXIE_AREA,
        "blocks": breakdown(host_blocks + estimate_mailbox()),
    }


def render(queue_depth: int = 8) -> str:
    """Text report for Table IV."""
    data = compute(queue_depth=queue_depth)
    rows: List[List[object]] = []
    for scope in ("host", "soc"):
        entry = data[scope]
        rows.append([
            scope.upper(), "LUT",
            f"{entry['baseline']['lut']:.2E}",
            f"{entry['paper_delta']['lut']:.2E}/{entry['delta'].luts:.2E}",
            f"{entry['overhead_percent']['lut']:+.1f} %",
        ])
        rows.append([
            scope.upper(), "Registers",
            f"{entry['baseline']['reg']:.2E}",
            f"{entry['paper_delta']['reg']:.2E}/{entry['delta'].registers:.2E}",
            f"{entry['overhead_percent']['reg']:+.1f} %",
        ])
        rows.append([scope.upper(), "BRAM", f"{entry['baseline']['bram']:.2E}", "0/0", "-"])

    dexie = data["dexie"]
    for resource, base_key, cfi_key in (
        ("LUT", "lut_base", "lut_with_cfi"),
        ("Registers", "reg_base", "reg_with_cfi"),
        ("BRAM", "bram_base", "bram_with_cfi"),
    ):
        base, with_cfi = dexie[base_key], dexie[cfi_key]
        rows.append([
            "DExIE[8]", resource, f"{base:.2E}",
            f"{with_cfi - base:.2E} (published)",
            f"{100.0 * (with_cfi - base) / base:+.1f} %",
        ])

    table = render_table(
        ["Scope", "Resource", "w/o CFI", "Delta (paper/model)", "Overhead"],
        rows,
        title=f"Table IV - hardware utilisation (queue depth {queue_depth})",
    )

    block_rows = [
        [name, f"{est.luts:.0f}", f"{est.registers:.0f}"]
        for name, est in data["blocks"].items()
    ]
    blocks = render_table(
        ["Block", "LUTs", "Registers"],
        block_rows,
        title="Per-block structural breakdown (model output)",
    )
    comparison = (
        "vs DExIE best configuration: TitanCFI's host delta uses "
        f"{100.0 * (1 - data['host']['delta'].luts / (dexie['lut_with_cfi'] - dexie['lut_base'])):.0f}% "
        "fewer LUTs and no BRAM (paper: 60% fewer LUTs, 2% fewer registers, 0 BRAM)."
    )
    return "\n\n".join([table, blocks, comparison])


def main() -> None:
    """CLI entry point (``python -m repro.eval.table4``)."""
    print(render())


if __name__ == "__main__":
    main()

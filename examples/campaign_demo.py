#!/usr/bin/env python3
"""Campaign engine demo: sweep attacks × policies, print the verdict grid.

Builds a small scenario matrix with the declarative grid expander —
four victims crossed with three reference policies, plus two
full-platform co-simulations — runs it (serially here; pass jobs>1 for
the sharded runner behind ``python -m repro.campaign run``), and prints
the aggregated detection matrix.

Run:  python examples/campaign_demo.py
"""

from repro.campaign.aggregate import finalize, render_report
from repro.campaign.pool import run_campaign
from repro.campaign.spec import expand_grid


def main() -> None:
    # 1. Declare the matrix: every combination is one scenario, invalid
    #    combinations (e.g. cosim × coarse) are dropped automatically.
    matrix = expand_grid(
        victim=["benign", "rop", "jop", "ret-to-callsite"],
        policy=["shadow-stack", "coarse", "composite"],
    ) + expand_grid(
        victim=["benign", "rop"],
        backend="cosim",          # full SoC + RV32 shadow-stack firmware
    )
    print(f"matrix: {len(matrix)} scenarios")
    for scenario in matrix[:4]:
        print(f"  {scenario.name}  "
              f"(expected: {'DETECT' if scenario.expected_detected else 'pass'})")
    print("  ...")

    # 2. Run it.  Deterministic per-scenario seeds mean a re-run — or a
    #    sharded run with any worker count — aggregates identically.
    payload = finalize(run_campaign(matrix, jobs=1, campaign_seed=2024))

    # 3. The aggregate: who caught what, at what cost.
    print()
    print(render_report(payload))

    counts = payload["summary"]["counts"]
    assert counts["false_positives"] == 0
    assert counts["expectations_missed"] == 0


if __name__ == "__main__":
    main()

"""Table II — runtime slowdown versus DExIE [8] and FIXER [6].

Reproduces the depth-1 comparison: "we constrained the CFI Queue to
have depth 1, to emulate the behaviour of stalling the core as soon as
a single control flow instruction is retired."  In that regime the
blocking closed form applies; the harness evaluates it (and, as a
cross-check, the discrete-event model in blocking mode) for the three
firmware latencies, next to the published DExIE/FIXER numbers.

By default the check latencies are *measured* — taken from the Table I
firmware runs on this repository's Ibex model — with the paper's
latency constants available via ``latencies="paper"`` for an exact
replication check.

Per-policy variants (``policy=...``): the policy host runs any Python
policy as a cycle-accurate mailbox agent whose per-check cost is the
firmware-measured base plus the policy's modelled surcharge
(:mod:`repro.policyhost.latency`) — so Table II can be evaluated for
software policies the firmware does not implement.  The shadow stack's
surcharge is zero, so its host variant reproduces the measured rows
exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baselines.fixer import FIXER_TABLE2_VALUE
from repro.bench_catalog.catalog import TABLE2_BENCHMARKS
from repro.eval.report import paper_vs_measured, render_table
from repro.eval.table1 import PAPER_LATENCIES
from repro.trace.analytic import blocking_slowdown_percent

_ORDER = ("optimized", "polling", "irq")


def resolve_latencies(latencies: str = "measured",
                      policy=None) -> Dict[str, float]:
    """Latency set to evaluate with: measured (Table I run) or paper.

    With ``policy`` (a fresh :class:`repro.firmware.policies.Policy`
    instance) the measured set is the policy's *host* latency — the
    firmware-measured base plus the policy's per-check surcharge.
    """
    if policy is not None:
        if latencies != "measured":
            raise ValueError("per-policy latencies are measured-only")
        from repro.policyhost.latency import host_check_latencies

        return host_check_latencies(policy)
    if latencies == "paper":
        return dict(PAPER_LATENCIES)
    if latencies == "measured":
        from repro.eval.table1 import compute as table1_compute

        return dict(table1_compute()["derived"]["latencies"])
    raise ValueError(f"latencies must be 'paper' or 'measured', got {latencies!r}")


def compute(latencies: str = "measured", policy=None) -> List[Dict[str, object]]:
    """Rows of Table II.

    Each row carries the published values and this model's slowdowns
    for the three firmware configurations at queue depth 1; ``policy``
    selects a policy-host measured-latency variant (see
    :func:`resolve_latencies`).
    """
    return _compute_rows(resolve_latencies(latencies, policy=policy))


def _compute_rows(lat: Dict[str, float]) -> List[Dict[str, object]]:
    """Rows of Table II for an already-resolved latency set."""
    rows: List[Dict[str, object]] = []
    for bench in TABLE2_BENCHMARKS:
        model = {
            variant: blocking_slowdown_percent(bench.cycles, bench.cf_count, lat[variant])
            for variant in _ORDER
        }
        paper_opt, paper_poll, paper_irq = bench.table2
        rows.append({
            "benchmark": bench.name,
            "suite": bench.suite,
            "dexie": bench.dexie_slowdown,
            "fixer": FIXER_TABLE2_VALUE if bench.fixer_slowdown is not None else None,
            "paper": {"optimized": paper_opt, "polling": paper_poll, "irq": paper_irq},
            "model": model,
        })
    return rows


def render(latencies: str = "measured", policy=None,
           policy_label: Optional[str] = None) -> str:
    """Text report for Table II (cells are paper/measured)."""
    # Resolve once: host_check_latencies runs mutating probes through
    # ``policy``, so rows and header must come from the same pass.
    lat = resolve_latencies(latencies, policy=policy)
    rows = _compute_rows(lat)
    table_rows = []
    for row in rows:
        table_rows.append([
            row["benchmark"],
            row["dexie"],
            row["fixer"],
            paper_vs_measured(row["paper"]["optimized"], row["model"]["optimized"]),
            paper_vs_measured(row["paper"]["polling"], row["model"]["polling"]),
            paper_vs_measured(row["paper"]["irq"], row["model"]["irq"]),
        ])
    variant = f", policy-host: {policy_label}" if policy_label else ""
    header = (
        f"Table II - slowdown %, CFI queue depth 1{variant} "
        f"(L: opt={lat['optimized']:.0f} poll={lat['polling']:.0f} irq={lat['irq']:.0f}; "
        "cells: paper/model)"
    )
    return render_table(
        ["Benchmark", "DExIE[8]", "FIXER[6]", "Opt.", "Poll.", "IRQ"],
        table_rows,
        title=header,
    )


def main() -> None:
    """CLI entry point (``python -m repro.eval.table2``)."""
    from repro.firmware.policies import CryptoReturnPolicy

    print(render(latencies="paper"))
    print()
    print("With this reproduction's measured firmware latencies:")
    print()
    print(render(latencies="measured"))
    print()
    print("Policy-host variant — MAC-authenticated returns (a policy the")
    print("firmware does not implement, running as a mailbox agent):")
    print()
    print(render(policy=CryptoReturnPolicy(), policy_label="crypto-return"))


if __name__ == "__main__":
    main()

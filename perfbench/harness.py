"""One in-process pass over a workload, traced or not.

Usage (from the repository root)::

    python3 perfbench/harness.py --workload full-sweep --seed 1 \\
        --jobs 1 --trace 1 --out DIR

Runs the workload's ``work``/``resubmit`` steps (and the submits in
between) by calling the CLIs' ``main`` in this process, so the span
wrappers from :mod:`spans` see every layer the parent executes.  Prints
one JSON object: the pass's wall time, the row digest, any failed
checks and, when traced, the per-layer metrics of this pass.

Every ``repro`` module is imported before the clock starts, traced or
not, so the traced and untraced passes differ only by the wrappers.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def _main_of(module: str):
    if module == "repro.campaign":
        from repro.campaign.cli import main
    else:
        from repro.service.cli import main
    return main


def layer_metrics(tracer: spans.Tracer, rows, sweeps) -> dict:
    """This pass's per-layer metrics (see metrics.PER_LAYER)."""
    from repro.campaign.runner import SHARD_CACHE
    from repro.isa.decode import decode_cache_size

    out = {}
    for hart in ("host", "ibex"):
        span = f"hart.run_n.{hart}"
        calls = tracer.calls(span)
        insns = tracer.counters[span + ".insns"]
        out.update({
            f"{span}.calls": calls,
            f"{span}.insns": insns,
            f"{span}.s": tracer.total(span),
            f"{span}.window_insns_mean": insns / calls if calls else 0.0,
            f"{span}.window_insns_p90": spans.percentile(
                tracer.histograms[span], 0.9),
        })
    cycles = tracer.counters["system.sim_cycles"]
    system_self = tracer.self_time("system.run")
    lookups = SHARD_CACHE.hits + SHARD_CACHE.misses
    cells = sum(sweep.get("cells", 0) for sweep in sweeps)
    model = workloads.model_metrics(rows)
    out.update({
        "hart.step.calls": tracer.calls("hart.step"),
        "hart.step.s": tracer.total("hart.step"),
        "system.run.calls": tracer.calls("system.run"),
        "system.run.self_s": system_self,
        "system.sim_cycles": cycles,
        "system.self_ns_per_cycle": system_self * 1e9 / cycles if cycles else 0.0,
        "policyhost.calibrate.calls": tracer.calls("policyhost.calibrate"),
        "policyhost.calibrate.s": tracer.total("policyhost.calibrate"),
        "campaign.pool.workers_spawned": tracer.calls("campaign.pool.spawn"),
        "campaign.scenario.calls": tracer.calls("campaign.scenario"),
        "campaign.scenario.self_s": tracer.self_time("campaign.scenario"),
        "campaign.capture.s": tracer.total("campaign.capture"),
        "campaign.shard_cache.hit_share": (
            SHARD_CACHE.hits / lookups if lookups else 0.0),
        "durable.fsync.calls": tracer.calls("durable.fsync"),
        "durable.fsync.s": tracer.total("durable.fsync"),
        "service.store.put.calls": tracer.calls("service.store.put"),
        "service.store.put.s": tracer.total("service.store.put"),
        "service.store.get.calls": tracer.calls("service.store.get"),
        "service.store.get.s": tracer.total("service.store.get"),
        "service.store.hit_share": (
            sum(sweep.get("hits", 0) for sweep in sweeps) / cells
            if cells else 0.0),
        "isa.assemble.calls": tracer.calls("isa.assemble"),
        "isa.assemble.s": tracer.total("isa.assemble"),
        "isa.decode_cache.entries": decode_cache_size(),
        "synth.bundle.calls": tracer.calls("synth.bundle"),
        "synth.bundle.self_s": tracer.self_time("synth.bundle"),
        "coverage.shape.s": tracer.total("coverage.shape"),
        "core.cfi_events": model["core.cfi_events"],
        "core.checks_completed": model["core.checks_completed"],
        "core.stall_cycles": model["core.stall_cycles"],
        "core.full_stalls": tracer.counters["core.full_stalls"],
        "overhead_pct_mean": model["overhead_pct_mean"],
    })
    return {name: float(value) for name, value in out.items()}


def run_pass(workload: str, seed: int, jobs: int, trace: bool, out: Path) -> dict:
    spans.import_all_repro()
    tracer = spans.Tracer()
    if trace:
        spans.install_repro_probes(tracer)
    steps = [step for step in workloads.plan(workload, seed, jobs, out)
             if step.phase != workloads.SETUP]
    last_work = [step for step in steps if step.phase == workloads.WORK][-1]
    problems = []
    wall = 0.0
    for step in steps:
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = _main_of(step.module)(list(step.argv))
        wall += time.perf_counter() - started
        if code != 0:
            problems.append(f"{step.module} {' '.join(step.argv)}: exit {code}")
        if step is last_work:
            # Inspecting artifacts is the benchmark's work, not the program's.
            work = workloads.inspect_work(workload, out)
    tracer.disable()
    problems.extend(work.problems)
    problems.extend(workloads.inspect_resubmit(workload, out, work))
    sweeps = [json.loads(path.read_text())
              for path in sorted(out.glob("service/jobs/*/sweep.json"))]
    result = {
        "wall_s": wall,
        "digest": work.digest,
        "rows": len(work.rows),
        "bad_rows": workloads.bad_rows(work.rows, workloads.expected_cells(workload)),
        "problems": problems,
    }
    if trace:
        result["metrics"] = layer_metrics(tracer, work.rows, sweeps)
        result["spans"] = {name: {"calls": int(agg[0]), "total_s": agg[1],
                                  "self_s": agg[2]}
                           for name, agg in sorted(tracer.spans.items())}
        result["edges"] = {f"{parent or '<root>'} > {child}": seconds
                           for (parent, child), seconds in sorted(tracer.edges.items())}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    result = run_pass(args.workload, args.seed, args.jobs, bool(args.trace), args.out)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Simulator throughput benchmark (simulated cycles/sec, host instr/sec).

Measures the wall-clock speed of the two engines every experiment in
this reproduction runs on:

* **cosim** — full-platform co-simulation (CVA6 + CFI stage + Ibex)
  over a representative victim-program mix, the engine behind the
  attack runs, the ablations and Figure 1;
* **firmware** — the Ibex-only measured-latency path behind Table I
  (and therefore Table II's ``latencies="measured"`` mode).

Run standalone to print a report and optionally refresh the committed
snapshot::

    PYTHONPATH=src python benchmarks/bench_speed.py            # print
    PYTHONPATH=src python benchmarks/bench_speed.py --update   # + BENCH_speed.json
    PYTHONPATH=src python benchmarks/bench_speed.py --smoke    # CI: one quick pass

Under pytest the same workloads run through pytest-benchmark like the
table benches.  The committed ``BENCH_speed.json`` snapshot records the
trajectory across PRs; wall-clock numbers are machine-dependent, so the
snapshot also stores the *simulated* totals, which must stay identical
on any machine.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

from repro.attacks.programs import (
    benign_program,
    deep_recursion_program,
    rop_program,
)
from repro.attacks.rop import run_attack_scenario
from repro.campaign.runner import run_campaign
from repro.campaign.spec import VICTIMS, resolve_matrix
from repro.core.config import TitanCfiConfig
from repro.eval import table1
from repro.firmware.policies import CryptoReturnPolicy, ShadowStackPolicy
from repro.firmware.shadow_stack import FirmwareLayout, shadow_stack_firmware
from repro.policyhost import mount_policy_host
from repro.system.sim import SystemSimulator
from repro.system.soc import build_soc
from repro.system.topology import Topology

SNAPSHOT = Path(__file__).resolve().parent.parent / "BENCH_speed.json"

#: The co-simulated victim mix: (name, program builder, firmware variant).
COSIM_WORKLOADS = (
    ("benign", benign_program, "irq"),
    ("deep-recursion", deep_recursion_program, "irq"),
    ("rop", rop_program, "irq"),
    ("benign-polling", benign_program, "polling"),
)


def _build_soc(program_builder, fw_variant):
    soc = build_soc()
    firmware = shadow_stack_firmware(fw_variant, FirmwareLayout(soc.addresses))
    soc.load_firmware(firmware.data)
    soc.load_host_program(program_builder(soc.addresses))
    return soc


def run_cosim_mix(mode: str = None) -> dict:
    """One pass over the co-simulated workload mix.

    Returns simulated totals (cycles, instructions) so callers can
    compute throughput and assert machine-independent invariance.
    ``mode`` selects the engine (``"busy"`` or ``"batched"``; ``None``
    is the default, batched).
    """
    cycles = host_instructions = ibex_instructions = 0
    for _name, builder, fw_variant in COSIM_WORKLOADS:
        soc = _build_soc(builder, fw_variant)
        report = SystemSimulator(soc, mode=mode).run()
        cycles += report.cycles
        host_instructions += report.host_instructions
        ibex_instructions += report.ibex_instructions
    return {
        "cycles": cycles,
        "host_instructions": host_instructions,
        "ibex_instructions": ibex_instructions,
    }


def run_cosim_mix_empty_faults(mode: str = None) -> dict:
    """The co-sim mix with the fault layer *attached but empty*.

    Every fault hook is live (controller wired into the log writer,
    mailbox and SoC) yet no event ever fires — totals must be identical
    to :func:`run_cosim_mix`, proving the fault-free path is
    cycle-exact with the fault subsystem compiled in.
    """
    from repro.faults import FaultPlan, attach_faults

    cycles = host_instructions = ibex_instructions = 0
    for _name, builder, fw_variant in COSIM_WORKLOADS:
        soc = _build_soc(builder, fw_variant)
        attach_faults(soc, FaultPlan(events=(), note="bench empty plan"))
        report = SystemSimulator(soc, mode=mode).run()
        cycles += report.cycles
        host_instructions += report.host_instructions
        ibex_instructions += report.ibex_instructions
    return {
        "cycles": cycles,
        "host_instructions": host_instructions,
        "ibex_instructions": ibex_instructions,
    }


def run_firmware_path() -> dict:
    """One pass of the Table I measured-latency path (Ibex ISS only)."""
    computed = table1.compute()
    return {"latencies": computed["derived"]["latencies"]}


#: Policy-host workload mix: (name, program builder, policy factory,
#: firmware variant whose calibrated timing model the host runs on).
POLICYHOST_WORKLOADS = (
    ("benign+shadow-stack", benign_program, ShadowStackPolicy, "irq"),
    ("deep-recursion+shadow-stack", deep_recursion_program,
     ShadowStackPolicy, "irq"),
    ("rop+crypto-return", rop_program, CryptoReturnPolicy, "irq"),
    ("benign+shadow-stack-polling", benign_program, ShadowStackPolicy,
     "polling"),
)


def run_policyhost_mix(mode: str = None) -> dict:
    """One pass of cosim runs with the policy host as mailbox agent.

    Simulated totals are machine-independent and must be identical in
    every engine (the host is a citizen of both) — the ``--smoke``
    path asserts exactly that.
    """
    from repro.system.addresses import AddressMap

    addresses = AddressMap()
    cycles = host_instructions = checks = 0
    for _name, builder, policy_factory, variant in POLICYHOST_WORKLOADS:
        outcome = run_attack_scenario(
            builder(addresses),
            firmware_variant=variant,
            sim_mode=mode,
            policy_backend="host",
            policy=policy_factory(),
        )
        cycles += outcome.report.cycles
        host_instructions += outcome.report.host_instructions
        checks += outcome.report.cfi.get("checks_completed", 0)
    return {
        "cycles": cycles,
        "host_instructions": host_instructions,
        "checks": checks,
    }


#: Saturation sweep shape: hart counts and per-point seeds.  The attack
#: always runs on hart 0; every peer hart runs the chatty
#: ``deep-recursion`` victim so monitor load scales with N.
SATURATION_NS = (1, 2, 4, 8)
SATURATION_SEEDS = (1234, 2345, 3456, 4567, 5678)


def _build_multihart_soc(n: int, victims, seed: int, lossy: bool = False):
    topo = Topology(n_harts=n)
    config = TitanCfiConfig(raise_on_violation=False, lossy=lossy)
    soc = build_soc(cfi_config=config, topology=topo)
    for hart_id in range(n):
        amap = topo.address_map(hart_id, soc.addresses)
        program = VICTIMS[victims[hart_id]].builder(
            amap, random.Random(seed + hart_id)
        )
        soc.load_host_program(program, hart_id=hart_id)
    mount_policy_host(soc, ShadowStackPolicy())
    return soc


def run_multihart_mix(mode: str = None) -> dict:
    """A small multi-hart mix: N=2 attack+benign and a staggered N=4
    attack amid chatty peers, one shared monitor each.  Simulated
    totals must be identical in every engine — the ``--smoke`` path
    asserts exactly that.
    """
    cases = (
        (2, ("rop", "benign"), None),
        (4, ("rop", "deep-recursion", "deep-recursion", "deep-recursion"),
         [0, 700, 1400, 2100]),
    )
    cycles = host_instructions = checks = 0
    latencies = []
    for n, victims, delays in cases:
        soc = _build_multihart_soc(n, victims, 1234)
        report = SystemSimulator(soc, mode=mode, start_delays=delays).run()
        cycles += report.cycles
        host_instructions += report.host_instructions
        checks += report.cfi.get("checks_completed", 0)
        latencies.append(report.detection_latency)
    return {
        "cycles": cycles,
        "host_instructions": host_instructions,
        "checks": checks,
        "detection_latencies": latencies,
    }


def _percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return None
    rank = max(1, -(-int(q * len(sorted_values) * 100) // 100))
    index = min(len(sorted_values) - 1, rank - 1)
    return sorted_values[index]


def run_saturation_point(n: int, seed: int, lossy: bool = False,
                         mode: str = None) -> dict:
    """One saturation run: rop attack on hart 0, N-1 deep-recursion
    peers hammering the shared monitor.  Returns simulated numbers
    only (machine-independent).  ``lossy=True`` swaps back-pressure
    stalls for drop-oldest queues (graceful degradation mode)."""
    victims = ("rop",) + ("deep-recursion",) * (n - 1)
    soc = _build_multihart_soc(n, victims, seed, lossy=lossy)
    report = SystemSimulator(soc, mode=mode).run()
    cfi = report.cfi
    check_latencies = []
    for stage in soc.cfi_stages:
        if stage is not None:
            check_latencies.extend(stage.writer.stats.check_latencies)
    return {
        "cycles": report.cycles,
        "detection_latency": report.detection_latency,
        "checks_completed": cfi.get("checks_completed", 0),
        "check_latencies": check_latencies,
        "queue_high_water": cfi.get("queue_high_water", 0),
        "full_stalls": cfi.get("full_stalls", 0),
        "dropped": cfi.get("dropped", 0),
    }


def run_saturation_sweep(ns=SATURATION_NS, seeds=SATURATION_SEEDS,
                         lossy: bool = False) -> list:
    """The saturation benchmark: sweep the hart count and record how
    detection latency and queue back-pressure respond as one monitor
    absorbs N harts' event streams.

    With ``lossy=True`` the same sweep runs in drop-oldest mode:
    back-pressure stalls collapse to ~0 and the pressure shows up in
    the drop counter instead (cores never stall, the monitor sheds
    load).  A shed event can carry the verdict, so lossy detection is
    best-effort — the sweep records how many runs still detected
    rather than asserting all of them do."""
    points = []
    for n in ns:
        latencies = []
        check_latencies = []
        cycles = checks = full_stalls = high_water = dropped = 0
        t0 = time.perf_counter()
        for seed in seeds:
            run = run_saturation_point(n, seed, lossy=lossy)
            if not lossy:
                assert run["detection_latency"] is not None, (n, seed)
                assert run["dropped"] == 0, (n, seed)
            if run["detection_latency"] is not None:
                latencies.append(run["detection_latency"])
            check_latencies.extend(run["check_latencies"])
            cycles += run["cycles"]
            checks += run["checks_completed"]
            full_stalls += run["full_stalls"]
            dropped += run["dropped"]
            high_water = max(high_water, run["queue_high_water"])
        seconds = time.perf_counter() - t0
        latencies.sort()
        check_latencies.sort()
        point = {
            "n_harts": n,
            "runs": len(seeds),
            "detection_latency_p50": _percentile(latencies, 0.50),
            "detection_latency_p90": _percentile(latencies, 0.90),
            "detection_latency_max": latencies[-1] if latencies else None,
            "check_latency_p50": _percentile(check_latencies, 0.50),
            "check_latency_p90": _percentile(check_latencies, 0.90),
            "check_latency_max": check_latencies[-1] if check_latencies else None,
            "checks_completed": checks,
            "queue_high_water": high_water,
            "full_stalls": full_stalls,
            "simulated_cycles": cycles,
            "seconds_per_sweep": round(seconds, 6),
            "cycles_per_sec": round(cycles / seconds),
        }
        if lossy:
            point["dropped"] = dropped
            point["detections"] = len(latencies)
        points.append(point)
    return points


def run_campaign_pass(sim_mode: str = None) -> dict:
    """One serial pass of the campaign smoke matrix (both backends).

    Runs in-process (``jobs=1``) so the numbers measure scenario
    execution itself, not worker-pool spawn cost; the simulated totals
    are machine-independent and must match any sharded run (and any
    ``sim_mode``).
    """
    payload = run_campaign(resolve_matrix("smoke"), jobs=1, sim_mode=sim_mode)
    return {
        "scenarios": payload["scenario_count"],
        "cycles": payload["timing"]["simulated_cycles"],
        "results": payload["scenarios"],
    }


def run_synth_pass(sim_mode: str = None) -> dict:
    """One serial pass of the full synth matrix (235 generated
    scenarios: generation + assembly are shard-cached, so the pass
    measures steady-state synthesis-campaign throughput).  Every
    scenario's expectation comes from the static oracle; the pass
    asserts all of them hold — a disagreement is a bug, not a number.
    """
    payload = run_campaign(resolve_matrix("synth"), jobs=1, sim_mode=sim_mode)
    missed = sum(
        not result["expectation_met"] for result in payload["scenarios"]
    )
    assert missed == 0, f"{missed} synth scenarios disagree with the oracle"
    return {
        "scenarios": payload["scenario_count"],
        "cycles": payload["timing"]["simulated_cycles"],
        "results": payload["scenarios"],
    }


def run_incremental_sweep() -> dict:
    """Cold vs warm store on the smoke matrix through the sweep service.

    Submits the smoke matrix twice against a fresh service root: the
    cold sweep executes every cell into the content-addressed store,
    the warm sweep must resolve 100 % from it (0 cells executed) and
    produce a byte-identical ``campaign.json``.  Wall-clock columns are
    machine-dependent; the hit/executed accounting and the byte
    identity are invariants the ``--smoke`` path asserts.
    """
    import tempfile

    from repro.service import SweepService

    with tempfile.TemporaryDirectory(prefix="bench-service-") as root:
        service = SweepService(root, code_version="bench")
        service.submit("smoke")
        t0 = time.perf_counter()
        (cold,) = service.serve_once()
        cold_seconds = time.perf_counter() - t0
        service.submit("smoke")
        t0 = time.perf_counter()
        (warm,) = service.serve_once()
        warm_seconds = time.perf_counter() - t0
        identical = (
            (service.job_dir("job-0001") / "campaign.json").read_bytes()
            == (service.job_dir("job-0002") / "campaign.json").read_bytes()
        )
    return {
        "matrix": "smoke",
        "cells": cold["cells"],
        "cold_executed": cold["executed"],
        "warm_executed": warm["executed"],
        "warm_hits": warm["hits"],
        "warm_hit_rate": round(warm["hits"] / warm["cells"], 4),
        "artifacts_identical": identical,
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "cold_scenarios_per_sec": round(cold["cells"] / cold_seconds, 1),
        "warm_scenarios_per_sec": round(warm["cells"] / warm_seconds, 1),
        "warm_speedup": round(cold_seconds / warm_seconds, 1),
    }


def run_coverage_pass(iters: int = 60, seed: int = 3) -> dict:
    """Coverage-guided fuzz loop vs blind generation at DOUBLE the budget.

    Runs one bounded guided loop (``iters`` candidates, serial) and the
    uniform seed sweep with ``2 * iters`` candidates through the same
    measurement pipeline, then compares distinct coverage points and
    CPU seconds.  The point counts are functions of the simulation
    alone — machine-independent, identical on every run — so the
    guided > uniform margin is an invariant the ``--smoke`` path
    asserts; only the seconds columns may move.  Also measures the
    frontier-draw overhead: the per-candidate steering cost the loop
    pays on top of plain generation.
    """
    import tempfile

    from repro.coverage import CoverageCorpus, CoverageMap, FuzzConfig, fuzz
    from repro.coverage import uniform_baseline
    from repro.coverage.loop import (
        CORPUS_DIR,
        MAP_NAME,
        _draw_parent,
        candidate_seed,
    )

    with tempfile.TemporaryDirectory(prefix="bench-coverage-") as root:
        cpu0, t0 = time.process_time(), time.perf_counter()
        guided = fuzz(root, FuzzConfig(iterations=iters, seed=seed))
        guided_cpu = time.process_time() - cpu0
        guided_seconds = time.perf_counter() - t0
        # Frontier-draw overhead on the final state (what steering adds
        # per candidate beyond generate + simulate).
        coverage = CoverageMap.from_json(
            json.loads((Path(root) / MAP_NAME).read_text())
        )
        corpus = CoverageCorpus(Path(root) / CORPUS_DIR)
        draws = 256
        t0 = time.perf_counter()
        for index in range(draws):
            _draw_parent(candidate_seed(seed, index, salt="parent"),
                         coverage, corpus)
        draw_seconds = time.perf_counter() - t0
    cpu0, t0 = time.process_time(), time.perf_counter()
    uniform = uniform_baseline(iters * 2, seed=seed)
    uniform_cpu = time.process_time() - cpu0
    uniform_seconds = time.perf_counter() - t0
    return {
        "guided_iterations": iters,
        "uniform_iterations": iters * 2,
        "guided_points": guided["distinct_points"],
        "uniform_points": uniform["distinct_points"],
        "guided_corpus_size": guided["corpus_size"],
        "oracle_disagreements": (guided["oracle_disagreements"]
                                 + uniform["oracle_disagreements"]),
        "guided_seconds": round(guided_seconds, 6),
        "uniform_seconds": round(uniform_seconds, 6),
        "guided_cpu_seconds": round(guided_cpu, 6),
        "uniform_cpu_seconds": round(uniform_cpu, 6),
        "guided_points_per_cpu_sec": round(
            guided["distinct_points"] / guided_cpu, 1
        ),
        "uniform_points_per_cpu_sec": round(
            uniform["distinct_points"] / uniform_cpu, 1
        ),
        "frontier_draw_us": round(draw_seconds / draws * 1e6, 1),
    }


def _timed(fn, min_seconds: float = 0.3, min_rounds: int = 3):
    """Repeat ``fn`` until ``min_seconds`` of samples exist; return
    (best-round seconds, last result)."""
    rounds = []
    result = None
    while len(rounds) < min_rounds or sum(rounds) < min_seconds:
        t0 = time.perf_counter()
        result = fn()
        rounds.append(time.perf_counter() - t0)
    return min(rounds), result


def measure() -> dict:
    """Measure both engines; returns the snapshot payload."""
    # Warm every cache first (decode, assembly, page allocations, the
    # policy host's calibrated response models) so the numbers reflect
    # steady-state throughput, as table sweeps see it.
    run_cosim_mix()
    run_firmware_path()
    run_campaign_pass()
    run_policyhost_mix()
    run_synth_pass()

    cosim_seconds, cosim_totals = _timed(run_cosim_mix)
    firmware_seconds, _ = _timed(run_firmware_path)
    campaign_seconds, campaign_totals = _timed(run_campaign_pass)
    policyhost_seconds, policyhost_totals = _timed(run_policyhost_mix)
    synth_seconds, synth_totals = _timed(run_synth_pass)
    # Per-engine co-sim comparison (default above is the batched mode).
    busy_seconds, _ = _timed(lambda: run_cosim_mix(mode="busy"))
    # The host instruction throughput counts both cores' retired
    # instructions: that is the work the interpreter actually performs.
    executed = cosim_totals["host_instructions"] + cosim_totals["ibex_instructions"]
    return {
        "cosim": {
            "workloads": [name for name, _, _ in COSIM_WORKLOADS],
            "seconds_per_pass": round(cosim_seconds, 6),
            "simulated_cycles": cosim_totals["cycles"],
            "simulated_instructions": executed,
            "cycles_per_sec": round(cosim_totals["cycles"] / cosim_seconds),
            "instructions_per_sec": round(executed / cosim_seconds),
        },
        "firmware": {
            "seconds_per_pass": round(firmware_seconds, 6),
        },
        "policyhost": {
            "workloads": [name for name, _, _, _ in POLICYHOST_WORKLOADS],
            "seconds_per_pass": round(policyhost_seconds, 6),
            "simulated_cycles": policyhost_totals["cycles"],
            "checks": policyhost_totals["checks"],
            "cycles_per_sec": round(
                policyhost_totals["cycles"] / policyhost_seconds
            ),
        },
        "campaign": {
            "matrix": "smoke",
            "scenarios": campaign_totals["scenarios"],
            "seconds_per_pass": round(campaign_seconds, 6),
            "simulated_cycles": campaign_totals["cycles"],
            "scenarios_per_sec": round(
                campaign_totals["scenarios"] / campaign_seconds, 1
            ),
            "cycles_per_sec": round(campaign_totals["cycles"] / campaign_seconds),
        },
        "synth": {
            "matrix": "synth",
            "scenarios": synth_totals["scenarios"],
            "seconds_per_pass": round(synth_seconds, 6),
            "simulated_cycles": synth_totals["cycles"],
            "scenarios_per_sec": round(
                synth_totals["scenarios"] / synth_seconds, 1
            ),
            "cycles_per_sec": round(synth_totals["cycles"] / synth_seconds),
        },
        # Incremental sweeps: smoke matrix through the sweep service,
        # cold (empty store) vs warm (100 % store hits).
        "incremental": run_incremental_sweep(),
        # Coverage-guided synthesis vs blind generation at double the
        # iteration budget (point counts are machine-independent).
        "coverage": run_coverage_pass(),
        # Saturation: one RoT monitor absorbing N harts' event streams.
        # Simulated numbers (latencies, stalls, high-water) are
        # machine-independent; only the seconds columns may move.
        "saturation": run_saturation_sweep(),
        # The same sweep with drop-oldest queues: stalls collapse to
        # ~0, drops and latency tails absorb the pressure instead.
        "saturation_lossy": run_saturation_sweep(lossy=True),
        # Trajectory of the two execution engines on the same mix —
        # the batched column is what the headline "cosim" section runs.
        "batched": {
            "cosim_seconds_busy": round(busy_seconds, 6),
            "cosim_seconds_batched": round(cosim_seconds, 6),
            "speedup_vs_busy": round(busy_seconds / cosim_seconds, 2),
        },
    }


def render(payload: dict) -> str:
    cosim = payload["cosim"]
    lines = [
        "Simulator throughput (bench_speed)",
        f"  co-sim mix ({', '.join(cosim['workloads'])}):",
        f"    {cosim['simulated_cycles']} cycles / pass in "
        f"{cosim['seconds_per_pass'] * 1000:.1f} ms",
        f"    {cosim['cycles_per_sec']:,} simulated cycles/sec",
        f"    {cosim['instructions_per_sec']:,} simulated instructions/sec",
        "  firmware measured-latency path (Table I):",
        f"    {payload['firmware']['seconds_per_pass'] * 1000:.2f} ms / pass",
    ]
    policyhost = payload.get("policyhost")
    if policyhost:
        lines += [
            f"  policy-host mix ({', '.join(policyhost['workloads'])}):",
            f"    {policyhost['simulated_cycles']} cycles "
            f"({policyhost['checks']} checks) / pass in "
            f"{policyhost['seconds_per_pass'] * 1000:.1f} ms — "
            f"{policyhost['cycles_per_sec']:,} simulated cycles/sec",
        ]
    campaign = payload.get("campaign")
    if campaign:
        lines += [
            f"  campaign smoke matrix ({campaign['scenarios']} scenarios, serial):",
            f"    {campaign['seconds_per_pass'] * 1000:.1f} ms / pass, "
            f"{campaign['scenarios_per_sec']} scenarios/sec",
            f"    {campaign['cycles_per_sec']:,} simulated cycles/sec",
        ]
    synth = payload.get("synth")
    if synth:
        lines += [
            f"  synth matrix ({synth['scenarios']} generated scenarios, serial):",
            f"    {synth['seconds_per_pass'] * 1000:.1f} ms / pass, "
            f"{synth['scenarios_per_sec']} scenarios/sec "
            f"(oracle-checked), {synth['cycles_per_sec']:,} simulated cycles/sec",
        ]
    incremental = payload.get("incremental")
    if incremental:
        lines += [
            f"  incremental sweep (service store, {incremental['cells']} "
            "smoke cells):",
            f"    cold: {incremental['cold_seconds'] * 1000:.1f} ms "
            f"({incremental['cold_scenarios_per_sec']} scenarios/sec, "
            f"{incremental['cold_executed']} executed)",
            f"    warm: {incremental['warm_seconds'] * 1000:.1f} ms "
            f"({incremental['warm_scenarios_per_sec']} scenarios/sec, "
            f"hit rate {incremental['warm_hit_rate']:.0%}, "
            f"{incremental['warm_speedup']}x) — artifacts "
            + ("byte-identical" if incremental["artifacts_identical"]
               else "DIVERGED"),
        ]
    coverage = payload.get("coverage")
    if coverage:
        lines += [
            f"  coverage-guided synthesis (guided "
            f"{coverage['guided_iterations']} iters vs uniform "
            f"{coverage['uniform_iterations']}):",
            f"    guided:  {coverage['guided_points']} distinct points in "
            f"{coverage['guided_cpu_seconds'] * 1000:.1f} ms CPU "
            f"({coverage['guided_points_per_cpu_sec']} points/cpu-sec, "
            f"corpus {coverage['guided_corpus_size']})",
            f"    uniform: {coverage['uniform_points']} distinct points in "
            f"{coverage['uniform_cpu_seconds'] * 1000:.1f} ms CPU "
            f"({coverage['uniform_points_per_cpu_sec']} points/cpu-sec) "
            "at 2x the budget",
            f"    frontier draw: {coverage['frontier_draw_us']} us/draw, "
            f"oracle disagreements: {coverage['oracle_disagreements']}",
        ]
    saturation = payload.get("saturation")
    if saturation:
        lines += [
            "  saturation (rop on hart 0, N-1 deep-recursion peers, "
            "one shared monitor):",
            "    N  det-lat p50/p90/max  check-lat p50/p90/max  "
            "queue-hw  full-stalls  cycles/sec",
        ]
        for point in saturation:
            lines.append(
                f"    {point['n_harts']}  "
                f"{point['detection_latency_p50']}/"
                f"{point['detection_latency_p90']}/"
                f"{point['detection_latency_max']:<12} "
                f"{point['check_latency_p50']}/"
                f"{point['check_latency_p90']}/"
                f"{point['check_latency_max']:<12} "
                f"{point['queue_high_water']:<9} "
                f"{point['full_stalls']:<11} "
                f"{point['cycles_per_sec']:,}"
            )
    lossy = payload.get("saturation_lossy")
    if lossy:
        lines += [
            "  saturation, lossy queues (drop-oldest, cores never stall):",
            "    N  det-lat p50/p90  detections  dropped  "
            "queue-hw  full-stalls  cycles/sec",
        ]
        for point in lossy:
            lines.append(
                f"    {point['n_harts']}  "
                f"{point['detection_latency_p50']}/"
                f"{point['detection_latency_p90']:<12} "
                f"{point['detections']}/{point['runs']:<7} "
                f"{point['dropped']:<8} "
                f"{point['queue_high_water']:<9} "
                f"{point['full_stalls']:<11} "
                f"{point['cycles_per_sec']:,}"
            )
    batched = payload.get("batched")
    if batched:
        lines += [
            "  execution engines (co-sim mix, ms/pass): "
            f"busy {batched['cosim_seconds_busy'] * 1000:.1f}, "
            f"batched {batched['cosim_seconds_batched'] * 1000:.1f} "
            f"({batched['speedup_vs_busy']}x vs busy)",
        ]
    return "\n".join(lines)


# -- pytest-benchmark entry points -------------------------------------------------


def test_cosim_mix_throughput(benchmark):
    run_cosim_mix()  # warm caches
    totals = benchmark(run_cosim_mix)
    assert totals["cycles"] > 0


def test_firmware_path_throughput(benchmark):
    run_firmware_path()
    benchmark(run_firmware_path)


def test_batched_totals_match_busy_loop():
    """No fast path may change a single simulated number."""
    busy = run_cosim_mix(mode="busy")
    assert run_cosim_mix(mode="batched") == busy


def test_policyhost_totals_match_across_engines():
    """The policy host must be cycle-exact in every engine too."""
    busy = run_policyhost_mix(mode="busy")
    assert busy["cycles"] > 0 and busy["checks"] > 0
    assert run_policyhost_mix(mode="batched") == busy


def test_multihart_totals_match_across_engines():
    """One shared monitor over N harts must be cycle-exact everywhere."""
    busy = run_multihart_mix(mode="busy")
    assert busy["cycles"] > 0 and busy["checks"] > 0
    assert run_multihart_mix(mode="batched") == busy


def test_campaign_throughput(benchmark):
    run_campaign_pass()  # warm caches
    totals = benchmark.pedantic(run_campaign_pass, rounds=1, iterations=1)
    assert totals["scenarios"] > 0 and totals["cycles"] > 0


# -- standalone CLI -----------------------------------------------------------------


def main(argv) -> int:
    if "--smoke" in argv:
        # CI smoke: one pass of each engine, assert only invariants that
        # hold on any machine.
        totals = run_cosim_mix()  # default engine (batched)
        assert totals["cycles"] > 0 and totals["host_instructions"] > 0
        assert run_cosim_mix(mode="busy") == totals
        # Fault-layer invariance: with every fault hook attached but no
        # event armed, not a single simulated number may move.
        assert run_cosim_mix_empty_faults() == totals
        run_firmware_path()
        # Policy-host cross-engine invariance: any Python policy as a
        # mailbox agent must not move a single simulated cycle between
        # the two engines.
        phost = run_policyhost_mix()
        assert phost["cycles"] > 0 and phost["checks"] > 0
        assert run_policyhost_mix(mode="busy") == phost
        # Multi-hart invariance: one monitor serving N harts (including
        # a staggered start) must not move a single simulated number
        # between the two engines.
        multi = run_multihart_mix()
        assert multi["cycles"] > 0 and multi["checks"] > 0
        assert multi["detection_latencies"][0] is not None
        assert run_multihart_mix(mode="busy") == multi
        # Lossy-queue invariance: while the queue never fills (N=1)
        # drop-oldest mode must be cycle-identical to blocking mode
        # with a zero drop counter — lossiness may only act at the
        # full-queue edge.  A saturated lossy run (N=2) must trade
        # every stall for drops and stay identical in every engine.
        strict_point = run_saturation_point(1, 1234)
        lossy_point = run_saturation_point(1, 1234, lossy=True)
        assert lossy_point == strict_point
        assert lossy_point["dropped"] == 0
        saturated = run_saturation_point(2, 1234, lossy=True)
        assert saturated["full_stalls"] == 0 and saturated["dropped"] > 0
        assert run_saturation_point(2, 1234, lossy=True,
                                    mode="busy") == saturated
        # Campaign-matrix invariance: the batched engine must not move a
        # single simulated cycle (or any per-scenario field) anywhere in
        # the smoke matrix versus the busy loop — a batching regression
        # fails CI here even if the co-sim mix happens not to hit it.
        campaign = run_campaign_pass()
        assert campaign["scenarios"] > 0 and campaign["cycles"] > 0
        campaign_busy = run_campaign_pass(sim_mode="busy")
        assert campaign["cycles"] == campaign_busy["cycles"]
        assert campaign["results"] == campaign_busy["results"]
        # Synth-matrix invariance: every generated scenario's verdict
        # matches the static oracle (asserted inside the pass) and no
        # simulated number moves between engines.
        synth = run_synth_pass()
        assert synth["scenarios"] >= 200 and synth["cycles"] > 0
        synth_busy = run_synth_pass(sim_mode="busy")
        assert synth["cycles"] == synth_busy["cycles"]
        assert synth["results"] == synth_busy["results"]
        # Incremental-sweep invariants: the warm service pass executes
        # nothing (100 % store hits) and reproduces the cold run's
        # campaign.json byte for byte.
        incremental = run_incremental_sweep()
        assert incremental["cold_executed"] == incremental["cells"]
        assert incremental["warm_executed"] == 0
        assert incremental["warm_hit_rate"] == 1.0
        assert incremental["artifacts_identical"]
        # Coverage-guided synthesis invariants: the point counts are
        # machine-independent, so the guided loop must beat blind
        # generation given DOUBLE the iteration budget, and every
        # simulated verdict must agree with the static oracle.
        coverage = run_coverage_pass()
        assert coverage["guided_points"] > coverage["uniform_points"], (
            f"guided loop ({coverage['guided_points']} points) failed to "
            f"dominate uniform generation at 2x budget "
            f"({coverage['uniform_points']} points)"
        )
        assert coverage["oracle_disagreements"] == 0
        assert coverage["guided_corpus_size"] > 0
        summary = {k: campaign[k] for k in ("scenarios", "cycles")}
        print("bench_speed smoke ok:", totals, summary,
              {"policyhost_cycles": phost["cycles"],
               "synth_scenarios": synth["scenarios"]})
        return 0
    payload = measure()
    print(render(payload))
    if "--update" in argv:
        SNAPSHOT.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"snapshot written to {SNAPSHOT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Ablation benches for TitanCFI's design choices.

Not paper tables — these sweep the knobs the paper fixes (queue depth,
check latency, firmware variant) and the end-to-end co-simulation, so a
downstream user can see where each design point sits.
"""

import pytest

from repro.attacks.programs import benign_program
from repro.bench_catalog.catalog import benchmark as catalog_benchmark
from repro.core.config import TitanCfiConfig
from repro.firmware.shadow_stack import FirmwareLayout, shadow_stack_firmware
from repro.system.sim import SystemSimulator
from repro.system.soc import build_soc
from repro.trace.generator import uniform_trace
from repro.trace.model import simulate_trace


@pytest.mark.table("ablation")
def test_queue_depth_sweep(benchmark):
    """Slowdown vs queue depth on dhrystone's arrival profile."""
    entry = catalog_benchmark("dhrystone")
    arrivals = uniform_trace(entry.cycles, entry.cf_count)

    def sweep():
        return {
            depth: simulate_trace(arrivals, entry.cycles, 267, queue_depth=depth)
            .slowdown_percent
            for depth in (1, 2, 4, 8, 16, 32, 64)
        }

    results = benchmark(sweep)
    depths = sorted(results)
    for shallow, deep in zip(depths, depths[1:]):
        assert results[deep] <= results[shallow] + 1e-9
    print()
    print("queue-depth sweep (dhrystone, IRQ):",
          {d: round(v) for d, v in results.items()})


@pytest.mark.table("ablation")
def test_latency_sweep(benchmark):
    """Slowdown vs check latency: where the saturation knee sits."""
    entry = catalog_benchmark("picojpeg")
    arrivals = uniform_trace(entry.cycles, entry.cf_count)

    def sweep():
        return {
            latency: simulate_trace(arrivals, entry.cycles, latency, queue_depth=8)
            .slowdown_percent
            for latency in (16, 32, 64, 128, 232, 267, 320)
        }

    results = benchmark(sweep)
    # The mean CF gap of picojpeg is ~232 cycles: below it, ~zero overhead;
    # above it, overhead appears.
    assert results[128] < 1
    assert results[320] > 5
    print()
    print("latency sweep (picojpeg):", {l: round(v, 1) for l, v in results.items()})


@pytest.mark.table("ablation")
@pytest.mark.parametrize("variant,fabric", [
    ("irq", "standard"),
    ("polling", "standard"),
    ("polling", "optimized"),
])
def test_end_to_end_cosimulation(benchmark, variant, fabric):
    """Full-system co-simulation cost per firmware configuration."""
    def run():
        soc = build_soc(cfi_config=TitanCfiConfig(queue_depth=8), fabric=fabric)
        firmware = shadow_stack_firmware(
            "irq" if variant == "irq" else "polling",
            FirmwareLayout(soc.addresses),
        )
        soc.load_firmware(firmware.data)
        soc.load_host_program(benign_program(soc.addresses))
        return SystemSimulator(soc).run()

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not report.detected
    assert report.cfi["checks_completed"] == report.cfi["selected"]

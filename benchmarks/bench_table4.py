"""Regenerates Table IV: hardware utilisation vs DExIE."""

import pytest

from repro.eval import table4


@pytest.mark.table("IV")
def test_table4_regeneration(benchmark):
    data = benchmark(table4.compute)
    host = data["host"]
    soc = data["soc"]
    # Paper headlines: <1% SoC overhead, <6% host overhead, less than DExIE.
    assert soc["overhead_percent"]["lut"] < 1.0
    assert host["overhead_percent"]["lut"] < 6.0
    dexie_delta = data["dexie"]["lut_with_cfi"] - data["dexie"]["lut_base"]
    assert host["delta"].luts < dexie_delta
    print()
    print(table4.render())


@pytest.mark.table("IV")
def test_queue_depth_area_ablation(benchmark):
    """Ablation: how the queue depth drives the register bill."""
    def sweep():
        return {
            depth: table4.compute(queue_depth=depth)["host"]["delta"].registers
            for depth in (1, 2, 4, 8, 16, 32)
        }

    registers = benchmark(sweep)
    depths = sorted(registers)
    for shallow, deep in zip(depths, depths[1:]):
        assert registers[deep] > registers[shallow]
    print()
    print("queue-depth register ablation:", {d: round(r) for d, r in registers.items()})

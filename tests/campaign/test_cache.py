"""Shard-level build cache: memoisation must never change a result.

The runner memoises assembled victim programs (keyed on victim × seed)
and firmware images (keyed on variant) per worker process.  These tests
assert the cache is purely an amortisation: cold (cleared) and warm
runs produce identical artifacts and per-scenario seeds, and serial vs
sharded campaigns still agree.  They also pin the batched
``capture_commit_logs`` against a plain per-step reference loop.
"""

import random

import pytest

from repro.campaign import runner as runner_mod
from repro.campaign.runner import (
    SHARD_CACHE,
    capture_commit_logs,
    run_campaign,
    run_scenario,
)
from repro.campaign.spec import VICTIMS, Scenario, expand_grid
from repro.core.filter import CfiFilter
from repro.errors import SimulationError
from repro.hart.core import Hart
from repro.hart.ports import MapPort
from repro.hart.timing import Cva6Timing
from repro.mem.map import MemoryMap
from repro.mem.memory import Ram
from repro.system.addresses import AddressMap


@pytest.fixture(autouse=True)
def fresh_cache():
    """Every test starts cold and leaves the cache cleared."""
    SHARD_CACHE.clear()
    yield
    SHARD_CACHE.clear()


MIXED = [
    Scenario(victim="deep-recursion", policy="shadow-stack"),
    Scenario(victim="rop", policy="composite"),
    Scenario(victim="benign", backend="cosim"),
    Scenario(victim="rop", backend="cosim"),
]


class TestColdWarmEquivalence:
    def test_cold_equals_warm(self):
        cold = [run_scenario(s, campaign_seed=7) for s in MIXED]
        assert SHARD_CACHE.misses > 0
        warm = [run_scenario(s, campaign_seed=7) for s in MIXED]
        assert SHARD_CACHE.hits > 0
        assert cold == warm

    def test_per_scenario_seeds_unchanged_by_cache_state(self):
        seeds_cold = [run_scenario(s)["seed"] for s in MIXED]
        seeds_warm = [run_scenario(s)["seed"] for s in MIXED]
        assert SHARD_CACHE.hits > 0
        assert seeds_cold == seeds_warm


class TestCacheMechanics:
    def test_program_cache_is_seed_keyed(self):
        a = SHARD_CACHE.program("deep-recursion", 1)
        b = SHARD_CACHE.program("deep-recursion", 2)
        again = SHARD_CACHE.program("deep-recursion", 1)
        assert a is again, "warm hit must reuse the assembled image"
        assert a.data != b.data, "seeded victims vary with the seed"

    def test_cached_program_matches_fresh_build(self):
        cached = SHARD_CACHE.program("rop", 42)
        fresh = VICTIMS["rop"].builder(AddressMap(), random.Random(42))
        assert cached.data == fresh.data
        assert cached.symbols == fresh.symbols

    def test_firmware_cache_matches_fresh_build(self):
        from repro.firmware.shadow_stack import FirmwareLayout, shadow_stack_firmware

        for variant in ("irq", "polling"):
            cached = SHARD_CACHE.firmware(variant)
            fresh = shadow_stack_firmware(
                variant, FirmwareLayout(AddressMap())
            ).data
            assert cached == fresh, variant

    def test_clear_resets_counters_and_entries(self):
        SHARD_CACHE.program("benign", 5)
        SHARD_CACHE.program("benign", 5)
        assert SHARD_CACHE.hits == 1 and SHARD_CACHE.misses == 1
        SHARD_CACHE.clear()
        assert SHARD_CACHE.hits == SHARD_CACHE.misses == 0
        SHARD_CACHE.program("benign", 5)
        assert SHARD_CACHE.misses == 1


class TestShardedDeterminismWithCache:
    def test_serial_equals_parallel_with_warm_shards(self):
        # Duplicate victims across the matrix so worker-local caches hit.
        matrix = expand_grid(
            victim=["benign", "rop", "deep-recursion"],
            policy=["shadow-stack", "coarse"],
        ) + expand_grid(victim=["benign", "rop"], backend="cosim")
        serial = run_campaign(matrix, jobs=1, campaign_seed=3)
        parallel = run_campaign(matrix, jobs=2, campaign_seed=3)
        for payload in (serial, parallel):
            payload.pop("timing")
            payload.pop("jobs")
        assert serial == parallel

    def test_sim_mode_does_not_change_results(self):
        matrix = expand_grid(victim=["benign", "rop"], backend="cosim")
        default = run_campaign(matrix, jobs=1)
        busy = run_campaign(matrix, jobs=1, sim_mode="busy")
        assert default["scenarios"] == busy["scenarios"]


class TestBatchedCaptureEquivalence:
    """capture_commit_logs free-runs through run_n windows; it must
    match a plain per-step loop bit for bit."""

    def _reference_capture(self, program, addresses, max_steps=400_000):
        bus = MemoryMap("host")
        bus.add(addresses.dram_base, Ram(addresses.dram_size), name="dram")
        bus.write_bytes(program.base, program.data)
        hart = Hart(MapPort(bus), Cva6Timing(), xlen=64, reset_pc=program.base)
        cfi_filter = CfiFilter()
        logs = []

        def observe(result) -> bool:
            log = cfi_filter.examine(result)
            if log is not None:
                logs.append(log)
            return False

        hart.run(max_steps=max_steps, until=observe)
        return logs, hart

    @pytest.mark.parametrize("victim", sorted(VICTIMS))
    def test_matches_per_step_reference(self, victim):
        addresses = AddressMap()
        program = VICTIMS[victim].builder(addresses, random.Random(99))
        fast_logs, fast_hart = capture_commit_logs(program, addresses)
        ref_logs, ref_hart = self._reference_capture(program, addresses)
        assert fast_logs == ref_logs
        assert (fast_hart.cycle, fast_hart.instret, fast_hart.pc) == (
            ref_hart.cycle, ref_hart.instret, ref_hart.pc
        )
        assert fast_hart.regs.snapshot() == ref_hart.regs.snapshot()

    def test_runaway_program_still_raises(self):
        from repro.isa.asm import Assembler

        addresses = AddressMap()
        spin = Assembler(xlen=64).assemble(
            "main:\n    j main\n", base=addresses.dram_base
        )
        with pytest.raises(SimulationError):
            capture_commit_logs(spin, addresses, max_steps=1000)

"""Trace-model tests: closed forms, queue semantics, hypothesis invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench_catalog.catalog import benchmark
from repro.errors import ConfigError
from repro.trace.analytic import (
    blocking_slowdown_percent,
    is_saturated,
    mean_cf_gap,
    saturation_slowdown_percent,
)
from repro.trace.generator import burst_trace, uniform_trace
from repro.trace.model import simulate_trace


class TestAnalyticForms:
    def test_blocking_matches_paper_dhrystone(self):
        """Table II dhrystone IRQ: 2.25e4 * 267 / 4.57e5 = 1315%."""
        value = blocking_slowdown_percent(4.57e5, 2.25e4, 267)
        assert value == pytest.approx(1314.66, abs=0.5)

    def test_blocking_matches_paper_ud(self):
        assert blocking_slowdown_percent(1.87e6, 2.98e3, 267) == pytest.approx(42.5, abs=0.5)

    def test_saturation_matches_paper_mm(self):
        """Table III mm IRQ: 2.33e5*267/1.41e6 - 1 = 43.1x."""
        value = saturation_slowdown_percent(1.41e6, 2.33e5, 267)
        assert value == pytest.approx(4312, abs=2)

    def test_saturation_zero_when_checker_keeps_up(self):
        assert saturation_slowdown_percent(1e6, 100, 100) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            blocking_slowdown_percent(0, 1, 1)
        with pytest.raises(ConfigError):
            saturation_slowdown_percent(1, -1, 1)

    def test_gap_helpers(self):
        assert mean_cf_gap(1000, 10) == 100
        assert mean_cf_gap(1000, 0) == float("inf")
        assert is_saturated(1000, 100, 50)
        assert not is_saturated(1000, 10, 50)


class TestDiscreteEventModel:
    def test_no_events_no_slowdown(self):
        result = simulate_trace([], 1000, 267)
        assert result.slowdown_percent == 0.0

    def test_sparse_events_absorbed_by_queue(self):
        arrivals = uniform_trace(100_000, 10)  # gap 10k >> L
        result = simulate_trace(arrivals, 100_000, 267, queue_depth=8)
        assert result.stall_cycles == 0

    def test_blocking_equals_closed_form(self):
        """The DES in blocking mode must reproduce the analytic form."""
        cycles, count, latency = 100_000, 50, 267
        arrivals = uniform_trace(cycles, count)
        result = simulate_trace(arrivals, cycles, latency, queue_depth=1, blocking=True)
        expected = blocking_slowdown_percent(cycles, count, latency)
        assert result.slowdown_percent == pytest.approx(expected, rel=0.01)

    def test_saturated_uniform_approaches_closed_form(self):
        cycles, count, latency = 100_000, 5_000, 267  # gap 20 << 267
        arrivals = uniform_trace(cycles, count)
        result = simulate_trace(arrivals, cycles, latency, queue_depth=8)
        expected = saturation_slowdown_percent(cycles, count, latency)
        assert result.slowdown_percent == pytest.approx(expected, rel=0.02)

    @pytest.mark.parametrize("trace", ["burst", "dhrystone"])
    def test_deeper_queue_never_slower(self, trace):
        if trace == "burst":
            cycles = 100_000
            arrivals = burst_trace(cycles, 2_000, 0.8, 16)
        else:
            entry = benchmark("dhrystone")
            cycles = entry.cycles
            arrivals = uniform_trace(cycles, entry.cf_count)
        protected = [simulate_trace(arrivals, cycles, 267, queue_depth=depth)
                     .protected_cycles for depth in (1, 2, 4, 8, 16, 32, 64)]
        assert protected == sorted(protected, reverse=True)

    def test_lower_latency_never_slower(self):
        arrivals = burst_trace(100_000, 2_000, 0.8, 16)
        slow = simulate_trace(arrivals, 100_000, 267, queue_depth=8)
        fast = simulate_trace(arrivals, 100_000, 73, queue_depth=8)
        assert fast.protected_cycles <= slow.protected_cycles

    def test_picojpeg_latency_knee(self):
        """picojpeg's mean CF gap is ~232 cycles: a checker well under
        it costs next to nothing, one over it costs real time."""
        entry = benchmark("picojpeg")
        arrivals = uniform_trace(entry.cycles, entry.cf_count)
        slowdown = {
            latency: simulate_trace(arrivals, entry.cycles, latency,
                                    queue_depth=8).slowdown_percent
            for latency in (128, 320)
        }
        assert slowdown[128] < 1
        assert slowdown[320] > 5

    def test_outstanding_bounded_by_depth(self):
        arrivals = burst_trace(50_000, 3_000, 1.0, 4)
        result = simulate_trace(arrivals, 50_000, 100, queue_depth=4)
        assert result.max_outstanding <= 4

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            simulate_trace([], 100, 10, queue_depth=0)

    @given(
        count=st.integers(min_value=1, max_value=300),
        latency=st.integers(min_value=1, max_value=400),
        depth=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_protected_never_faster(self, count, latency, depth):
        cycles = 50_000
        arrivals = uniform_trace(cycles, count)
        result = simulate_trace(arrivals, cycles, latency, queue_depth=depth)
        assert result.protected_cycles >= cycles
        assert result.stall_cycles >= 0

    @given(
        fraction=st.floats(min_value=0.0, max_value=1.0),
        gap=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_blocking_upper_bounds_queued(self, fraction, gap):
        """Depth-1 blocking is the worst case for any arrival process."""
        arrivals = burst_trace(50_000, 500, fraction, gap)
        blocking = simulate_trace(arrivals, 50_000, 150, queue_depth=1, blocking=True)
        queued = simulate_trace(arrivals, 50_000, 150, queue_depth=8)
        assert queued.protected_cycles <= blocking.protected_cycles


class TestGenerators:
    def test_uniform_count(self):
        assert len(uniform_trace(1000, 10)) == 10

    def test_uniform_sorted_within_range(self):
        arrivals = uniform_trace(10_000, 100)
        assert arrivals == sorted(arrivals)
        assert 0 <= arrivals[0] and arrivals[-1] < 10_000

    def test_uniform_zero_events(self):
        assert uniform_trace(1000, 0) == []

    def test_burst_count_exact(self):
        arrivals = burst_trace(100_000, 777, 0.5, 16)
        assert len(arrivals) == 777

    def test_burst_deterministic(self):
        a = burst_trace(100_000, 500, 0.7, 8, seed=1)
        b = burst_trace(100_000, 500, 0.7, 8, seed=1)
        assert a == b

    def test_burst_seed_changes_layout(self):
        a = burst_trace(100_000, 500, 0.7, 8, seed=1)
        b = burst_trace(100_000, 500, 0.7, 8, seed=2)
        assert a != b

    def test_burst_fraction_zero_is_uniform(self):
        assert burst_trace(1000, 10, 0.0, 8) == uniform_trace(1000, 10)

    def test_burst_validation(self):
        with pytest.raises(ConfigError):
            burst_trace(1000, 10, 1.5, 8)
        with pytest.raises(ConfigError):
            burst_trace(1000, 10, 0.5, 0)

    @given(
        count=st.integers(min_value=1, max_value=500),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=30)
    def test_property_burst_count_preserved(self, count, fraction):
        arrivals = burst_trace(100_000, count, fraction, 16)
        assert len(arrivals) == count
        assert arrivals == sorted(arrivals)

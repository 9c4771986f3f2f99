"""Burst-parameter calibration for the synthetic traces.

We cannot have the authors' RTL commit traces.  The substitution is
synthetic traces reproducing the published first-order
statistics exactly, with a two-parameter burst structure fitted against
the published **IRQ** slowdown only (queue depth 8, IRQ latency).  The
Polling and Optimized columns are then *predictions* of the fitted
trace — the harness reports them next to the paper's values, which is
the validation that the fitted arrival process, not per-column tuning,
explains the measurements.

Benchmarks whose published IRQ slowdown already agrees with the uniform
trace (the saturated and idle regimes) are not fitted at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bench_catalog.catalog import ALL_BENCHMARKS, Benchmark
from repro.trace.generator import burst_trace, uniform_trace
from repro.trace.model import simulate_trace

#: Search grids for the two burst parameters.
_FRACTION_GRID = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
_GAP_GRID = [4, 8, 16, 24, 32, 48, 64, 96, 128]

#: A fit is attempted only when the uniform trace misses the published
#: IRQ value by more than this (percentage points).
_FIT_TOLERANCE = 1.5


@dataclass(frozen=True)
class CalibratedTrace:
    """Result of calibrating one benchmark.

    Attributes:
        benchmark: the catalog entry.
        burst_fraction / in_burst_gap: fitted parameters (0 / n/a for
            uniform traces).
        fitted: whether a burst fit was needed.
        irq_error: |model − paper| on the calibration column, in
            percentage points (``None`` if the paper shows "−").
    """

    benchmark: Benchmark
    burst_fraction: float
    in_burst_gap: int
    fitted: bool
    irq_error: Optional[float]

    def arrivals(self) -> List[int]:
        """Generate the calibrated arrival trace."""
        if self.burst_fraction == 0.0:
            return uniform_trace(self.benchmark.cycles, self.benchmark.cf_count)
        return burst_trace(
            self.benchmark.cycles,
            self.benchmark.cf_count,
            self.burst_fraction,
            self.in_burst_gap,
        )


def _model_slowdown(
    arrivals: Sequence[int], bench: Benchmark, latency: int, queue_depth: int
) -> float:
    return simulate_trace(
        arrivals, bench.cycles, latency, queue_depth=queue_depth
    ).slowdown_percent


def calibrate(
    bench: Benchmark,
    irq_latency: int = 267,
    queue_depth: int = 8,
) -> CalibratedTrace:
    """Fit burst parameters for one benchmark against its IRQ target."""
    target = bench.paper_irq if bench.paper_irq is not None else 0.0

    uniform = uniform_trace(bench.cycles, bench.cf_count)
    uniform_value = _model_slowdown(uniform, bench, irq_latency, queue_depth)
    uniform_error = abs(uniform_value - target)
    if uniform_error <= _FIT_TOLERANCE:
        return CalibratedTrace(bench, 0.0, 1, fitted=False, irq_error=uniform_error)

    best = (uniform_error, 0.0, 1)
    for fraction in _FRACTION_GRID:
        if fraction == 0.0:
            continue
        for gap in _GAP_GRID:
            arrivals = burst_trace(bench.cycles, bench.cf_count, fraction, gap)
            value = _model_slowdown(arrivals, bench, irq_latency, queue_depth)
            error = abs(value - target)
            if error < best[0]:
                best = (error, fraction, gap)
    error, fraction, gap = best
    return CalibratedTrace(
        bench,
        burst_fraction=fraction,
        in_burst_gap=gap,
        fitted=fraction > 0.0,
        irq_error=error,
    )


def calibrate_all(
    irq_latency: int = 267,
    queue_depth: int = 8,
    benchmarks: Optional[Sequence[Benchmark]] = None,
) -> Dict[str, CalibratedTrace]:
    """Calibrate every catalog benchmark; keyed by name."""
    chosen = benchmarks if benchmarks is not None else ALL_BENCHMARKS
    return {
        bench.name: calibrate(bench, irq_latency=irq_latency, queue_depth=queue_depth)
        for bench in chosen
    }

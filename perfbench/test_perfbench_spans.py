"""Self-tests for the benchmark's span accounting and metric registry.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import collections
import os
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def leaf(seconds):
        clock.advance(seconds)

    leaf = tracer.wrap(leaf, "leaf")

    def outer():
        clock.advance(1.0)
        leaf(2.0)
        clock.advance(3.0)
        leaf(0.5)

    tracer.wrap(outer, "outer")()
    assert tracer.total("outer") == 6.5
    assert tracer.self_time("outer") == 4.0
    assert tracer.calls("leaf") == 2
    assert tracer.total("leaf") == tracer.self_time("leaf") == 2.5
    assert tracer.edges[("outer", "leaf")] == 2.5
    assert tracer.edges[("", "outer")] == 6.5


def test_self_times_sum_to_at_most_traced_wall():
    tracer = spans.Tracer()

    def work(depth):
        sum(range(2000))
        if depth:
            child(depth - 1)
        sum(range(2000))

    child = tracer.wrap(work, lambda args: f"level{args[0]}")
    started = time.perf_counter()
    for _ in range(20):
        child(3)
    wall = time.perf_counter() - started
    self_sum = sum(agg[2] for agg in tracer.spans.values())
    assert all(agg[2] >= 0 for agg in tracer.spans.values())
    assert abs(self_sum - tracer.total("level3")) < 1e-9
    assert self_sum <= wall
    assert [tracer.calls(f"level{n}") for n in range(4)] == [20, 20, 20, 20]


def test_nested_wrappers_are_not_double_counted():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def fact(n):
        clock.advance(1.0)
        return 1 if n <= 1 else n * traced(n - 1)

    traced = tracer.wrap(fact, "fact")
    # Wrapping the same function, or a wrapper, again adds no layer.
    assert tracer.wrap(fact, "fact") is traced
    assert tracer.wrap(traced, "other") is traced
    assert traced(4) == 24
    assert tracer.calls("fact") == 1
    assert tracer.total("fact") == tracer.self_time("fact") == 4.0


def test_patch_covers_aliases():
    tracer = spans.Tracer()
    home = types.ModuleType("repro._perfbench_home")
    alias = types.ModuleType("repro._perfbench_alias")

    def entry():
        return 7

    home.entry = alias.imported_entry = entry
    sys.modules[home.__name__] = home
    sys.modules[alias.__name__] = alias
    try:
        tracer.patch(home, "entry", "entry")
        tracer.patch(home, "entry", "entry")   # idempotent
        assert home.entry is alias.imported_entry is not entry
        assert home.entry() + alias.imported_entry() == 14
        assert tracer.calls("entry") == 2
    finally:
        del sys.modules[home.__name__], sys.modules[alias.__name__]


def test_disabled_tracer_records_nothing_and_observers_see_results():
    tracer = spans.Tracer()
    seen = []
    double = tracer.wrap(lambda x: 2 * x, "double",
                         lambda t, span, args, result: seen.append((span, result)))
    assert double(3) == 6
    tracer.disable()
    assert double(4) == 8
    assert tracer.calls("double") == 1
    assert seen == [("double", 6)]


def test_fork_guard_disables_the_child():
    tracer = spans.Tracer()
    tracer.install_fork_guard()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read)
        os.write(write, b"1" if not tracer.enabled else b"0")
        os._exit(0)
    os.close(write)
    try:
        assert os.read(read, 1) == b"1"
    finally:
        os.close(read)
        os.waitpid(pid, 0)
    assert tracer.enabled


def test_percentile_is_nearest_rank():
    histogram = collections.Counter({1: 5, 2: 4, 40: 1})
    assert spans.percentile(histogram, 0.9) == 2.0
    assert spans.percentile(histogram, 1.0) == 40.0
    assert spans.percentile(collections.Counter(), 0.9) == 0.0


def test_pool_side_metrics_are_declared_per_layer():
    assert metrics.POOL_SIDE <= {m.name for m in metrics.PER_LAYER}


def test_bad_rows_counts_failures_and_missing_cells():
    ok = {"status": "ok", "expectation_met": True}
    rows = [ok, ok, {"status": "crashed", "expectation_met": None},
            {"status": "ok", "expectation_met": False}]
    assert workloads.bad_rows(rows, 4) == 2
    assert workloads.bad_rows(rows, 6) == 4
    assert workloads.bad_rows([ok, ok], 2) == 0


def test_plans_run_work_before_resubmit(tmp_path):
    for name in workloads.WORKLOADS:
        phases = [step.phase for step in workloads.plan(name, 3, 2, tmp_path)]
        assert phases[0] == workloads.SETUP
        assert phases.index(workloads.WORK) < phases.index(workloads.RESUBMIT)
        assert phases[-1] == workloads.RESUBMIT

"""Outside-in span tracing for the campaign benchmark.

The benchmark measures layers of ``repro`` without editing it: it
replaces the public entry points of each layer with wrappers that
record a span per call.  Spans live in memory as per-name aggregates
(calls, total time, self time) plus parent->child edge times, and are
written out once, when the benchmark ends.

Accounting rules, pinned by ``test_perfbench_spans.py``:

* self time of a span = its duration minus the durations of its direct
  child spans (children on one thread nest, so they never overlap);
* a call entering a span whose name is already open folds into the open
  span: it is neither counted again nor timed twice.  This is what keeps
  recursion, and two wrappers around one function, from double counting;
* one wrapper per wrapped object, so a function reached through several
  module aliases (``from x import f``) is counted through all of them.

Spans are recorded on the thread that installed the tracer.  A forked
child process turns its copy of the tracer off, so pool workers run the
original code paths at near-zero cost and nothing they do is attributed
to the parent.
"""

from __future__ import annotations

import collections
import functools
import importlib
import math
import os
import pkgutil
import sys
import time
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

SpanName = Union[str, Callable[[tuple], str]]


class Tracer:
    """In-memory span recorder (see the module docstring for the rules).

    Args:
        clock: monotonic clock in seconds (tests inject a fake one).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.enabled = True
        self._stack: List[list] = []          # [name, start, child_seconds]
        self._open: Set[str] = set()
        #: name -> [calls, total_seconds, self_seconds]
        self.spans: Dict[str, List[float]] = {}
        #: (parent name or "", child name) -> seconds
        self.edges: Dict[Tuple[str, str], float] = collections.defaultdict(float)
        #: free-form counters filled by observers
        self.counters: Dict[str, float] = collections.defaultdict(float)
        #: name -> Counter of observed values (window lengths)
        self.histograms: Dict[str, collections.Counter] = (
            collections.defaultdict(collections.Counter))
        self._wrappers: Dict[int, Callable] = {}

    # -- span bookkeeping ----------------------------------------------------

    def disable(self) -> None:
        self.enabled = False

    def _push(self, name: str) -> list:
        self._open.add(name)
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list) -> None:
        end = self.clock()
        name, start, children = frame
        self._stack.pop()
        self._open.discard(name)
        duration = end - start
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - children
        parent_name = ""
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_name = parent[0]
        self.edges[(parent_name, name)] += duration

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn: Callable, name: SpanName,
             observe: Optional[Callable[["Tracer", str, tuple, object], None]] = None,
             ) -> Callable:
        """A wrapper recording one span per outermost call of ``fn``.

        ``name`` is a span name, or a function of the call's positional
        arguments returning one.  ``observe(tracer, span, args, result)``
        runs after the span closes, for counters read off the result.
        Wrapping the same object twice returns the first wrapper.
        """
        if getattr(fn, "__perfbench_span__", False):
            return fn
        existing = self._wrappers.get(id(fn))
        if existing is not None:
            return existing
        tracer = self
        namer = name if callable(name) else None

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = namer(args) if namer is not None else name
            if span in tracer._open:
                return fn(*args, **kwargs)
            frame = tracer._push(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame)
            if observe is not None:
                observe(tracer, span, args, result)
            return result

        functools.update_wrapper(wrapper, fn)
        wrapper.__perfbench_span__ = True
        self._wrappers[id(fn)] = wrapper
        return wrapper

    def patch(self, owner: object, attr: str, name: SpanName,
              observe=None) -> None:
        """Replace ``owner.attr`` with a span wrapper.

        Every loaded ``repro`` module attribute bound to the same object
        is replaced too, so ``from x import f`` copies are traced.
        Methods are patched on their class, which covers every instance
        and every from-import of the class.
        """
        original = getattr(owner, attr)
        wrapper = self.wrap(original, name, observe)
        if wrapper is original:
            return
        setattr(owner, attr, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if module is None or module is owner or not (
                    mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def install_fork_guard(self) -> None:
        """Turn this tracer off in every process forked from here on."""
        os.register_at_fork(after_in_child=self.disable)


# --------------------------------------------------------------------------
# The repro layer probes
# --------------------------------------------------------------------------

def _run_n_span(args: tuple) -> str:
    # The CVA6 application harts are RV64, Ibex is RV32.
    return "hart.run_n.host" if args[0].xlen == 64 else "hart.run_n.ibex"


def _observe_window(tracer: Tracer, span: str, args: tuple, result) -> None:
    retired = result[0]
    tracer.counters[span + ".insns"] += retired
    tracer.histograms[span][retired] += 1


def _observe_report(tracer: Tracer, span: str, args: tuple, report) -> None:
    tracer.counters["system.sim_cycles"] += report.cycles
    tracer.counters["core.full_stalls"] += report.cfi.get("full_stalls", 0)


def import_all_repro() -> None:
    """Import every ``repro`` module (except CLI ``__main__`` shims), so
    probes can rebind from-import aliases before any code runs."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        importlib.import_module(info.name)


def install_repro_probes(tracer: Tracer) -> None:
    """Wrap the public entry point of every ``repro`` layer the benchmark
    reports on.  Call after :func:`import_all_repro`."""
    import multiprocessing.process

    import repro.synth
    from repro.campaign import runner
    from repro.coverage import shape
    from repro.hart.core import Hart
    from repro.isa.asm import Assembler
    from repro.policyhost.calibration import ResponseModel
    from repro.service.store import ResultStore
    from repro.system.sim import SystemSimulator

    tracer.patch(Hart, "run_n", _run_n_span, _observe_window)
    tracer.patch(Hart, "step", "hart.step")
    tracer.patch(SystemSimulator, "run", "system.run", _observe_report)
    tracer.patch(ResponseModel, "__init__", "policyhost.calibrate")
    tracer.patch(runner, "run_scenario", "campaign.scenario")
    tracer.patch(runner, "capture_commit_logs", "campaign.capture")
    tracer.patch(Assembler, "assemble", "isa.assemble")
    tracer.patch(repro.synth, "bundle", "synth.bundle")
    tracer.patch(shape, "shape_vector", "coverage.shape")
    tracer.patch(ResultStore, "put", "service.store.put")
    tracer.patch(ResultStore, "get", "service.store.get")
    tracer.patch(os, "fsync", "durable.fsync")
    tracer.patch(multiprocessing.process.BaseProcess, "start",
                 "campaign.pool.spawn")
    tracer.install_fork_guard()


def percentile(histogram: collections.Counter, share: float) -> float:
    """Nearest-rank percentile of a value histogram (0 when empty)."""
    total = sum(histogram.values())
    if not total:
        return 0.0
    rank = max(1, math.ceil(round(share * total, 9)))
    seen = 0
    for value in sorted(histogram):
        seen += histogram[value]
        if seen >= rank:
            return float(value)
    return float(max(histogram))

"""Trace-driven CFI overhead modelling (the paper's §V-C methodology).

The paper extracts cycle-accurate commit traces from RTL simulation and
feeds them to "a trace-driven model which emulates the latency required
for CFI enforcement".  This package is that model:

* :mod:`repro.trace.analytic` — closed forms for the two regimes the
  paper's numbers expose (blocking depth-1, saturated deep-queue);
* :mod:`repro.trace.model` — the discrete-event queue/stall simulation
  for everything in between;
* :mod:`repro.trace.generator` — synthetic commit-trace generators
  (uniform and burst arrival processes) substituting for the authors'
  RTL traces (fitted in :mod:`repro.bench_catalog.calibration`).
"""

from repro.trace.analytic import blocking_slowdown_percent, saturation_slowdown_percent
from repro.trace.model import TraceModelResult, simulate_trace
from repro.trace.generator import burst_trace, uniform_trace

__all__ = [
    "blocking_slowdown_percent",
    "saturation_slowdown_percent",
    "TraceModelResult",
    "simulate_trace",
    "burst_trace",
    "uniform_trace",
]

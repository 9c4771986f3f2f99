"""Coverage-guided scenario synthesis: the generate→measure→steer loop.

PR 5 built the synthesis generator and its static oracle; seeds were
still drawn blind, so campaign CPU time kept re-exercising the same
control-flow shapes.  This package closes the loop AFL-style:

* :mod:`repro.coverage.shape` — deterministic coverage vectors per
  scenario (call-depth profile, indirect fan-out, loop nesting,
  attack-placement context, event n-grams, recursion/tail-call axes)
  and the global :class:`~repro.coverage.shape.CoverageMap`;
* :mod:`repro.coverage.corpus` — a persistent content-addressed corpus
  of coverage-novel programs with deterministic eviction;
* :mod:`repro.coverage.mutate` — seeded IR-level mutators that stay
  inside the oracle's ``plan_events`` contract;
* :mod:`repro.coverage.loop` — the crash-safe steering loop, folding
  verdicts into standard campaign artifacts.

``python -m repro.coverage run --iters 40`` drives it from the shell.
"""

from repro.coverage.corpus import CoverageCorpus, model_digest
from repro.coverage.loop import FuzzConfig, fuzz, uniform_baseline
from repro.coverage.mutate import MUTATORS, mutate
from repro.coverage.shape import (
    AXES,
    CoverageMap,
    ShapeVector,
    shape_vector,
)

__all__ = [
    "AXES",
    "CoverageCorpus",
    "CoverageMap",
    "FuzzConfig",
    "MUTATORS",
    "ShapeVector",
    "fuzz",
    "model_digest",
    "mutate",
    "shape_vector",
    "uniform_baseline",
]

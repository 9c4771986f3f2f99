"""The three benchmark workloads: CLI steps, output checks, row metrics.

A workload is a fixed sequence of ``repro`` CLI invocations.  The
untraced benchmark runs each as a cold subprocess; the traced harness
calls the same CLI ``main`` in-process.  Both inspect the same
artifacts afterwards, so the checks and the simulated numbers are
shared code.

Why each workload exists (see README.md for the layer mapping):

* ``full-sweep`` -- the everyday sweep: 401 short cells over the
  reference ISS, the RV32-firmware cosim and the policy-host cosim,
  sharded over ``nproc`` workers, every row fsync'd.  Dominated by the
  hart retire loop, assembly and per-scenario pool round-trips.
* ``monitor-contention`` -- 49 long many-hart cells (``multihart`` then
  ``xhart``, serial) where 2-8 harts share one monitor.  Dominated by
  the ``SystemSimulator`` scheduler; host windows are ~1.4 instructions,
  so it is the control for any retire-loop change.
* ``service-resubmit`` -- the sweep service on generated programs: a
  cold ``serve`` that executes and stores every cell, then a warm
  re-submit that must hit the store for all of them.  Drives synth
  generation, the static oracle, coverage shape, per-batch pool spawns
  and the content-addressed store from both sides.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Matrices each workload sweeps, in execution order.
MATRICES = {
    "full-sweep": ("full",),
    "monitor-contention": ("multihart", "xhart"),
    "service-resubmit": ("synth",),
}
WORKLOADS = tuple(MATRICES)

SETUP, PREP, WORK, RESUBMIT = "setup", "prep", "work", "resubmit"

#: The warm re-run is short (0.1-0.3 s) and noisy, so each repetition
#: runs it this many times and keeps the median.
RESUBMIT_ROUNDS = 3


@dataclass(frozen=True)
class Step:
    """One CLI invocation: ``python -m <module> <argv...>``."""

    phase: str
    module: str
    argv: Tuple[str, ...]
    round: int = 0


def expected_cells(workload: str) -> int:
    """Scenarios the workload's matrices hold (needs ``src`` importable)."""
    from repro.campaign.spec import resolve_matrix

    return sum(len(resolve_matrix(matrix)) for matrix in MATRICES[workload])


def workload_jobs(workload: str, nproc: int) -> int:
    """Worker processes the workload runs with (its own ``--jobs``)."""
    return 1 if workload == "monitor-contention" else max(1, nproc)


def plan(workload: str, seed: int, jobs: int, out: Path) -> List[Step]:
    """The workload's CLI steps, writing everything under ``out``."""
    seed_s, jobs_s = str(seed), str(jobs)
    if workload == "service-resubmit":
        root = ("--root", str(out / "service"))
        submit = root + ("submit", "--matrix", "synth", "--seed", seed_s,
                         "--workers", jobs_s)
        serve = root + ("serve",)
        steps = [Step(SETUP, "repro.service", root + ("status",)),
                 Step(PREP, "repro.service", submit),
                 Step(WORK, "repro.service", serve)]
        for r in range(RESUBMIT_ROUNDS):
            steps += [Step(PREP, "repro.service", submit, r),
                      Step(RESUBMIT, "repro.service", serve, r)]
        return steps
    if workload not in MATRICES:
        raise ValueError(f"unknown workload {workload!r}")
    matrices = MATRICES[workload]
    steps = [Step(SETUP, "repro.campaign", ("list", "--matrix", matrix))
             for matrix in matrices]
    run = ("run", "--jobs", jobs_s, "--seed", seed_s, "--matrix")
    steps += [Step(WORK, "repro.campaign", run + (matrix, "--out", str(out / matrix)))
              for matrix in matrices]
    steps += [Step(RESUBMIT, "repro.campaign",
                   run + (matrix, "--resume", str(out / matrix)), r)
              for r in range(RESUBMIT_ROUNDS) for matrix in matrices]
    return steps


def _rows_digest(rows: Sequence[Dict[str, object]]) -> str:
    return hashlib.sha256(json.dumps(list(rows), sort_keys=True).encode()).hexdigest()


def _job_dir(out: Path, number: int) -> Path:
    return out / "service" / "jobs" / f"job-{number:04d}"


def _load(path: Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


@dataclass
class WorkOutput:
    """What the ``work`` phase produced: the rows and their identity."""

    rows: List[Dict[str, object]]
    digest: str
    problems: List[str]


def inspect_work(workload: str, out: Path) -> WorkOutput:
    """Read the work phase's artifacts.

    The digest covers every simulated field of every row (cycles,
    verdicts, detection latencies, per-hart detail), so two runs of one
    workload and seed must produce the same digest, traced or not.
    """
    problems: List[str] = []
    rows: List[Dict[str, object]] = []
    if workload == "service-resubmit":
        sources = [_job_dir(out, 1) / "campaign.json"]
    else:
        sources = [out / matrix / "campaign.json" for matrix in MATRICES[workload]]
    for path in sources:
        payload = _load(path)
        if payload is None:
            problems.append(f"missing or unreadable {path.name} in {path.parent.name}")
            continue
        rows.extend(payload["scenarios"])
    if workload == "service-resubmit":
        sweep = _load(_job_dir(out, 1) / "sweep.json") or {}
        if sweep.get("state") != "done" or sweep.get("hits") != 0 \
                or sweep.get("executed") != sweep.get("cells"):
            problems.append(f"cold serve sweep not a clean full execution: {sweep}")
    return WorkOutput(rows, _rows_digest(rows), problems)


def inspect_resubmit(workload: str, out: Path, work: WorkOutput) -> List[str]:
    """Check the warm re-run against the work phase's output."""
    problems: List[str] = []
    if workload == "service-resubmit":
        cold = _job_dir(out, 1) / "campaign.json"
        for job in range(2, RESUBMIT_ROUNDS + 2):
            sweep = _load(_job_dir(out, job) / "sweep.json") or {}
            if sweep.get("state") != "done" or sweep.get("executed") != 0 \
                    or sweep.get("hits") != sweep.get("cells"):
                problems.append(f"warm serve was not 100% store hits: {sweep}")
            warm = _job_dir(out, job) / "campaign.json"
            if not warm.exists() or warm.read_bytes() != cold.read_bytes():
                problems.append(f"warm campaign.json of job {job} differs "
                                "from the cold one")
        return problems
    again = inspect_work(workload, out)
    problems.extend(again.problems)
    if again.digest != work.digest:
        problems.append("resumed campaign rows differ from the first run")
    return problems


def bad_rows(rows: Sequence[Dict[str, object]], expected: int) -> int:
    """Scenarios that failed: a row not ``ok``, a missed expectation, or
    a cell with no row at all."""
    good = sum(1 for row in rows
               if row.get("status") == "ok" and row.get("expectation_met") is True)
    return max(expected - good, 0)


def model_metrics(rows: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """The modelled design's numbers: simulated, hence exact."""
    co = [row for row in rows if row.get("backend") == "cosim"]
    latencies = [row["detection_latency"] for row in co
                 if row.get("detection_latency") is not None]
    return {
        "sim_cycles": float(sum(int(row["cycles"]) for row in rows)),
        "overhead_pct_mean": (
            statistics.fmean(float(row["overhead_percent"]) for row in co)
            if co else 0.0),
        "detection_latency_p50_cycles": (
            float(statistics.median(latencies)) if latencies else 0.0),
        "core.cfi_events": float(sum(int(row["cf_events"]) for row in co)),
        "core.checks_completed": float(sum(int(row["events_checked"]) for row in co)),
        "core.stall_cycles": float(sum(int(row["stall_cycles"]) for row in co)),
    }

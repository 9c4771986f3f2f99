"""The sweep service: persistent job queue draining into the store.

:class:`SweepService` turns the campaign engine from a batch script
into a backend: sweep requests are durable :class:`~repro.service.jobs.Job`
records, and a foreground drain loop (:meth:`serve_once` /
:meth:`serve_forever`) executes them *incrementally* — each job first
resolves its matrix against the content-addressed
:class:`~repro.service.store.ResultStore` and only executes the
missing or invalidated cells, through one call of the existing
hardened :func:`~repro.campaign.runner.run_campaign` worker pool
(crash quarantine, timeouts, retries all apply).

A job uses one pool: its ``workers`` processes live for the whole job,
so they keep their memos (assembled programs, synth bundles, policy-host
calibration) from one cell to the next.  The journal records only job
submissions and state changes; a running job re-reads it for a
``cancel`` every :data:`CANCEL_EVERY` finished cells, so a cancel takes
effect within that many cells.

Crash safety: every completed cell is stored atomically the moment it
arrives, so a ``kill -9`` anywhere loses at most in-flight cells.  On
restart, jobs found ``running`` are resumed:
their store hits are exactly the cells the dead server finished, the
rest re-execute, and the final artifacts are byte-identical to an
uninterrupted run — artifacts are always assembled from the store, and
neither the store nor the artifacts carry wall-clock fields.

Service directory layout::

    <root>/
      journal.jsonl            # job events (write-ahead, fsync'd)
      store/                   # content-addressed results (store.py)
      jobs/<job_id>/           # per-job artifacts
        campaign.json          # canonical payload (byte-stable)
        campaign.csv
        sweep.json             # hit/miss/invalidation accounting
      dashboard.html           # rendered by ``dashboard``
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.campaign.aggregate import finalize, write_artifacts
from repro.campaign.runner import RESULT_SCHEMA, run_campaign
from repro.campaign.spec import MATRICES, Scenario, resolve_matrix
from repro.errors import ConfigError, JobStateError, check_int
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNABLE,
    RUNNING,
    Job,
    JobJournal,
)
from repro.service.store import ResultStore
from repro.system.sim import check_mode

#: Per-job artifact describing what the sweep reused vs executed.
SWEEP_NAME = "sweep.json"

#: A running job checks the journal for a ``cancel`` after every this
#: many finished cells (each check replays the whole journal).
CANCEL_EVERY = 16


class _Cancelled(Exception):
    """A job was cancelled: raised from the result stream to stop its pool."""


class SweepService:
    """Campaign-as-a-service facade over journal + store + runner.

    Args:
        root: service directory (created lazily).
        code_version: store fingerprint override (tests only).
    """

    def __init__(self, root, code_version: Optional[str] = None):
        self.root = Path(root)
        self.journal = JobJournal(self.root / "journal.jsonl")
        self.store = ResultStore(self.root / "store",
                                 code_version=code_version)

    # -- submission / introspection ---------------------------------------

    def job_dir(self, job_id: str) -> Path:
        return self.root / "jobs" / job_id

    def jobs(self) -> Dict[str, Job]:
        """The current job table (journal replay; submission order)."""
        return self.journal.replay()

    def submit(self, matrix: str, campaign_seed: int = 0,
               sim_mode: Optional[str] = None, workers: int = 1) -> Job:
        """Enqueue a sweep request durably; returns the queued job."""
        if matrix not in MATRICES:
            raise ConfigError(
                f"unknown matrix {matrix!r} (choose from "
                f"{sorted(MATRICES)})"
            )
        check_int("workers", workers, 1)
        check_mode(sim_mode)
        job = Job(
            job_id=f"job-{self.journal.submit_count() + 1:04d}",
            matrix=matrix,
            campaign_seed=campaign_seed,
            sim_mode=sim_mode,
            workers=workers,
        )
        self.journal.submit(job)
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued/running job (terminal jobs refuse)."""
        jobs = self.jobs()
        job = jobs.get(job_id)
        if job is None:
            raise JobStateError(job_id)
        if job.state not in RUNNABLE:
            raise JobStateError(job_id, state=job.state,
                                requested=CANCELLED)
        self.journal.transition(job_id, CANCELLED)
        job.state = CANCELLED
        return job

    def gc(self) -> Dict[str, object]:
        """Drop store objects cached under superseded code versions."""
        return self.store.gc()

    # -- the drain loop ----------------------------------------------------

    def serve_once(self) -> List[Dict[str, object]]:
        """Drain every runnable job once; returns per-job sweep stats.

        Jobs found ``running`` were orphaned by a dead server and are
        resumed (their completed cells hit the store); ``queued`` jobs
        start fresh.  Cancellation is re-checked from the journal every
        :data:`CANCEL_EVERY` finished cells, so a concurrent ``cancel``
        takes effect within that many cells.
        """
        processed: List[Dict[str, object]] = []
        for job_id, job in self.jobs().items():
            if job.state not in RUNNABLE:
                continue
            processed.append(self._process(job))
        return processed

    def serve_forever(self, poll: float = 1.0,
                      max_idle_polls: Optional[int] = None) -> None:
        """Watch mode: drain, sleep ``poll`` seconds, repeat.

        ``max_idle_polls`` bounds consecutive empty polls (tests and
        bounded CI watches); ``None`` watches until interrupted.
        """
        idle = 0
        while True:
            drained = self.serve_once()
            idle = 0 if drained else idle + 1
            if max_idle_polls is not None and idle >= max_idle_polls:
                return
            time.sleep(poll)

    def _cancelled(self, job_id: str) -> bool:
        job = self.jobs().get(job_id)
        return job is not None and job.state == CANCELLED

    def _process(self, job: Job) -> Dict[str, object]:
        scenarios = resolve_matrix(job.matrix)
        if job.state == QUEUED:
            self.journal.transition(job.job_id, RUNNING)

        by_name = {scenario.name: scenario for scenario in scenarios}
        _hits, missing, stats = self.store.resolve(scenarios,
                                                   job.campaign_seed)
        failures: Dict[str, Dict[str, object]] = {}
        executed = 0
        finished = 0

        def keep(result: Dict[str, object]) -> None:
            nonlocal executed, finished
            if result.get("status") == "ok":
                self.store.put(by_name[str(result["name"])],
                               job.campaign_seed, result)
                executed += 1
            else:
                failures[str(result["name"])] = result
            finished += 1
            if (finished % CANCEL_EVERY == 0 and finished < len(missing)
                    and self._cancelled(job.job_id)):
                raise _Cancelled()

        try:
            if missing and self._cancelled(job.job_id):
                raise _Cancelled()
            run_campaign(
                missing,
                jobs=job.workers,
                campaign_seed=job.campaign_seed,
                stream=keep,
                sim_mode=job.sim_mode,
                retries=1,
                backoff=0.1,
            )
        except _Cancelled:
            return self._sweep_stats(job, stats, executed, len(failures),
                                     state=CANCELLED)

        payload = self._assemble(job, scenarios, failures)
        out_dir = self.job_dir(job.job_id)
        write_artifacts(payload, out_dir)
        state = FAILED if failures else DONE
        sweep = self._sweep_stats(job, stats, executed, len(failures),
                                  state=state)
        (out_dir / SWEEP_NAME).write_text(
            json.dumps(sweep, indent=2, sort_keys=True) + "\n"
        )
        self.journal.transition(
            job.job_id, state,
            cells=sweep["cells"], hits=sweep["hits"],
            executed=sweep["executed"], failed=sweep["failed"],
            invalidated=sweep["invalidated"],
        )
        return sweep

    def _sweep_stats(self, job: Job, stats: Dict[str, int], executed: int,
                     failed: int, state: str) -> Dict[str, object]:
        return {
            "job_id": job.job_id,
            "matrix": job.matrix,
            "campaign_seed": job.campaign_seed,
            "code_version": self.store.code_version,
            "state": state,
            "cells": stats["cells"],
            "hits": stats["hits"],
            "executed": executed,
            "failed": failed,
            "invalidated": stats["invalidated"],
        }

    def _assemble(self, job: Job, scenarios: Sequence[Scenario],
                  failures: Dict[str, Dict[str, object]],
                  ) -> Dict[str, object]:
        """The job's campaign payload, re-read entirely from the store.

        Cold and warm runs, interrupted and uninterrupted runs, all
        funnel through this one path: every ``ok`` row comes back out
        of the store (canonical bytes), rows are sorted by name, and
        nothing run-specific — wall-clock timing, worker count, hit
        counts — enters the payload.  That is what makes re-submitting
        an unchanged matrix produce a byte-identical ``campaign.json``.
        """
        rows: List[Dict[str, object]] = []
        for scenario in scenarios:
            record = self.store.get(self.store.key(scenario,
                                                   job.campaign_seed))
            if record is not None:
                rows.append(dict(record["result"]))
            elif scenario.name in failures:
                rows.append(failures[scenario.name])
        rows.sort(key=lambda row: str(row["name"]))
        payload: Dict[str, object] = {
            "schema": RESULT_SCHEMA,
            "campaign_seed": job.campaign_seed,
            "scenario_count": len(rows),
            "scenarios": rows,
            "matrix": job.matrix,
        }
        return finalize(payload)

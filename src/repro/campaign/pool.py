"""The campaign driver: a scenario list in, one run payload out.

:func:`run_campaign` fans a scenario list out over a hardened
``multiprocessing`` worker pool — scenarios are self-describing data,
so each worker rebuilds programs and policies from the registries by
name — with a serial in-process fallback (``jobs=1``) for debugging and
determinism checks.  It is the only code that builds a run's payload.

Each cell runs through :func:`repro.campaign.runner.run_scenario`.  The
runner, and with it the co-simulator, is imported only when a cell must
run, in the parent and before any worker forks: a command that runs no
cell (``campaign run --resume`` on finished output, a warm ``service
serve``) never loads it, and forked workers start with it loaded.

Determinism: every scenario derives its seed from the campaign seed and
its own identity (:func:`~repro.campaign.spec.derive_seed`), and results
carry no wall-clock fields, so a parallel run and a serial run of the
same matrix aggregate to identical artifacts.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign.spec import BACKEND_COSIM, VICTIMS, Scenario, derive_seed
from repro.errors import ConfigError, ScenarioTimeout, WorkerCrash, check_int

#: Result-dict schema version (bumped on breaking field changes).
RESULT_SCHEMA = "repro.campaign/v1"


def _identity_columns(scenario: Scenario, seed: int) -> Dict[str, object]:
    """The columns naming a cell, shared by every row shape (knobs the
    backend ignores are ``None``), plus the fault-grading and per-hart
    placeholders that a run fills in place."""
    cosim = scenario.backend == BACKEND_COSIM
    multihart = scenario.multihart
    return {
        "fault_plan": scenario.fault_plan,
        "fault_hart": scenario.fault_hart,
        "lossy": scenario.lossy if cosim else None,
        "defense": scenario.defense if multihart else None,
        "degradation": None,
        "contract_ok": None,
        "baseline_detected": None,
        "baseline_detection_latency": None,
        "name": scenario.name,
        "backend": scenario.backend,
        "victim": scenario.victim,
        "attack": scenario.attack,
        "policy": scenario.policy,
        "policy_backend": scenario.resolved_policy_backend,
        "firmware": scenario.firmware if cosim else None,
        "queue_depth": scenario.queue_depth if cosim else None,
        "blocking": scenario.blocking if cosim else None,
        "fabric": scenario.fabric if cosim else None,
        "max_cycles": scenario.max_cycles,
        "seed": seed,
        # Marks results whose victim actually varies with the seed, so
        # artifact consumers know which rows a seed sweep perturbs.
        "seeded": VICTIMS[scenario.victim].seeded,
        "n_harts": scenario.n_harts,
        "attack_hart": scenario.attack_hart if multihart else None,
        "hart_victims": (
            list(scenario.resolved_hart_victims) if multihart else None
        ),
        "stagger": scenario.stagger if multihart else None,
        "per_hart": None,
    }


def _failure_result(scenario: Scenario, campaign_seed: int, status: str,
                    detail: str) -> Dict[str, object]:
    """Placeholder result for a scenario that produced no verdict.

    Shaped like a normal result (same identity columns, zeroed counters,
    ``None`` verdict fields) so checkpoints, aggregation and CSV export
    handle it uniformly; ``status`` records why it is not ``"ok"``.
    """
    return {
        "status": status,
        "error": detail,
        "coverage_points": None,
        "coverage_digest": None,
        "coverage": None,
        **_identity_columns(scenario, derive_seed(campaign_seed, scenario)),
        "expected_detected": None,
        "expected_source": None,
        "expectation_met": None,
        "cycles": 0,
        "host_instructions": 0,
        "cf_events": 0,
        "events_checked": 0,
        "detected": None,
        "violation_kind": None,
        "detection_latency": None,
        "stall_cycles": 0,
        "overhead_percent": 0.0,
        "gadget_executed": None,
    }


def _shard_main(conn, campaign_seed: int, sim_mode: Optional[str]) -> None:
    """Worker process loop: scenarios in over ``conn``, one reply each out.

    Replies go back over the worker's own pipe in task order, written
    synchronously (no feeder thread): once ``send`` returns, the row is
    in the pipe even if the process dies on its next scenario, so the
    parent can drain every reply before it blames anyone.  ``None``
    exits.

    ``run_scenario`` is looked up through the runner module's global,
    so a patch on it before the pool forks (the fault-injection tests,
    the benchmark's span probes) reaches every worker.
    """
    from repro.campaign import runner

    for scenario in iter(conn.recv, None):
        try:
            reply = ("done", runner.run_scenario(scenario, campaign_seed,
                                                 sim_mode=sim_mode))
        except Exception as exc:  # noqa: BLE001 - shard boundary
            reply = ("error", f"{type(exc).__name__}: {exc}")
        conn.send(reply)


def _run_serial(
    scenarios: Sequence[Scenario],
    campaign_seed: int,
    stream: Optional[Callable[[Dict[str, object]], None]],
    sim_mode: Optional[str],
    retries: int,
    backoff: float,
) -> List[Dict[str, object]]:
    """In-process execution with the same retry contract as the pool."""
    from repro.campaign import runner

    results: List[Dict[str, object]] = []
    for scenario in scenarios:
        attempt = 0
        while True:
            try:
                result = runner.run_scenario(scenario, campaign_seed,
                                             sim_mode=sim_mode)
                break
            except Exception as exc:  # noqa: BLE001 - sweep must survive
                attempt += 1
                if attempt > retries:
                    result = _failure_result(
                        scenario, campaign_seed, "error",
                        f"{type(exc).__name__}: {exc}")
                    break
                if backoff > 0:
                    time.sleep(backoff * (2 ** (attempt - 1)))
        if stream is not None:
            stream(result)
        results.append(result)
    return results


def _run_pool(
    scenarios: Sequence[Scenario],
    jobs: int,
    campaign_seed: int,
    stream: Optional[Callable[[Dict[str, object]], None]],
    sim_mode: Optional[str],
    timeout: Optional[float],
    retries: int,
    backoff: float,
) -> List[Dict[str, object]]:
    """Hardened process pool: a pipe per worker, one scenario queued ahead.

    Each worker runs one scenario and, while more are pending than there
    are workers, holds the next one queued behind it, so it does not
    idle while the parent streams (and fsyncs) the row it just sent.
    Rows come back over the worker's own pipe in task order; one
    ``multiprocessing.connection.wait`` over every pipe and process
    sentinel drives the loop.  Failure modes:

    - worker death → its pipe is drained first, then the first scenario
      still unreported (the one it died on) is recorded as ``status:
      "crashed"`` (:class:`~repro.errors.WorkerCrash`) and quarantined;
    - wall-clock ``timeout`` on a running scenario → the worker is
      killed and drained the same way; that scenario, if still
      unreported, is recorded as ``status: "timeout"``
      (:class:`~repro.errors.ScenarioTimeout`);
    - in-shard exceptions → retried up to ``retries`` times with
      exponential ``backoff``, then recorded as ``status: "error"``.

    Scenarios queued behind a culprit go back to the front of the
    pending list with no attempt counted, and the worker is respawned.
    An exception raised by ``stream`` aborts the run; busy workers are
    killed on the way out.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context()
    total = len(scenarios)
    pending = deque(enumerate(scenarios))
    delayed: List[Tuple[float, int, Scenario]] = []  # (ready_at, idx, s)
    attempts: Dict[int, int] = {}
    results: List[Dict[str, object]] = []
    # Per worker: process, pipe, unreported (idx, scenario) tasks in
    # dispatch order, and when the head task started.
    workers: List[Dict[str, object]] = []

    def spawn() -> None:
        conn, child = ctx.Pipe()
        proc = ctx.Process(target=_shard_main, daemon=True,
                           args=(child, campaign_seed, sim_mode))
        proc.start()
        child.close()
        workers.append({"proc": proc, "conn": conn, "tasks": deque(), "since": 0.0})

    def record(result: Dict[str, object]) -> None:
        if stream is not None:
            stream(result)
        results.append(result)

    def reschedule(idx: int, scenario: Scenario, detail: str) -> None:
        attempts[idx] = attempts.get(idx, 0) + 1
        if attempts[idx] > retries:
            record(_failure_result(scenario, campaign_seed, "error", detail))
        else:
            ready = time.monotonic() + backoff * (2 ** (attempts[idx] - 1))
            delayed.append((ready, idx, scenario))

    def dispatch() -> None:
        depth = 2 if len(pending) > len(workers) else 1
        for worker in workers:
            tasks = worker["tasks"]
            while pending and len(tasks) < depth:
                try:
                    worker["conn"].send(pending[0][1])
                except OSError:  # died since the last wait; retire() reaps it
                    break
                if not tasks:
                    worker["since"] = time.monotonic()
                tasks.append(pending.popleft())

    def drain(worker) -> bool:
        """Take every row waiting in the worker's pipe; False at EOF."""
        while worker["conn"].poll():
            try:
                kind, payload = worker["conn"].recv()
            except (EOFError, OSError):  # exited (OSError: killed mid-send)
                return False
            idx, scenario = worker["tasks"].popleft()
            worker["since"] = time.monotonic()  # its queued task is running
            if kind == "done":
                record(payload)
            else:
                reschedule(idx, scenario, payload)
        return True

    def retire(worker, status: str) -> None:
        """Reap a dead or hung worker: drain, blame, requeue, respawn."""
        proc, tasks = worker["proc"], worker["tasks"]
        stuck = tasks[0] if tasks else None
        if status == "timeout":
            proc.kill()
        proc.join()
        drain(worker)
        worker["conn"].close()
        workers.remove(worker)
        # A row drained after a timeout means the slow scenario finished
        # after all; the queued one the kill interrupted is innocent.
        if tasks and (status == "crashed" or tasks[0] is stuck):
            _idx, scenario = tasks.popleft()
            error = (WorkerCrash(scenario.name, exitcode=proc.exitcode)
                     if status == "crashed"
                     else ScenarioTimeout(scenario.name, float(timeout)))
            record(_failure_result(scenario, campaign_seed, status, str(error)))
        pending.extendleft(reversed(tasks))
        if len(results) < total:
            spawn()

    for _ in range(min(jobs, total)):
        spawn()
    try:
        while len(results) < total:
            now = time.monotonic()
            due = sorted((e for e in delayed if e[0] <= now), key=lambda e: e[1])
            delayed[:] = [e for e in delayed if e[0] > now]
            pending.extend((idx, scenario) for _ready, idx, scenario in due)
            dispatch()
            wakeups = [e[0] for e in delayed] + [
                w["since"] + timeout for w in workers if timeout and w["tasks"]]
            ready = wait(
                [w["conn"] for w in workers] + [w["proc"].sentinel for w in workers],
                timeout=max(0.0, min(wakeups) - now) if wakeups else None)
            for worker in list(workers):
                if worker["proc"].sentinel in ready or (
                        worker["conn"] in ready and not drain(worker)):
                    retire(worker, "crashed")
                elif timeout and worker["tasks"] and (
                        time.monotonic() - worker["since"] > timeout):
                    retire(worker, "timeout")
    finally:
        for worker in workers:
            if worker["tasks"]:
                worker["proc"].kill()  # its scenarios in flight are abandoned
            else:
                try:
                    worker["conn"].send(None)
                except OSError:  # already gone
                    pass
        for worker in workers:
            worker["proc"].join()
            worker["conn"].close()
    return results


def run_campaign(
    scenarios: Sequence[Scenario],
    jobs: int = 1,
    campaign_seed: int = 0,
    stream: Optional[Callable[[Dict[str, object]], None]] = None,
    sim_mode: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.0,
) -> Dict[str, object]:
    """Run a scenario list, optionally sharded over worker processes.

    Args:
        scenarios: the matrix to execute.
        jobs: worker processes; 1 runs serially in-process (the
            debugging fallback — same results, same order).
        campaign_seed: root seed for per-scenario seed derivation.
        stream: optional callback invoked with each result as it
            completes (arrival order; use it to stream JSONL artifacts).
        sim_mode: co-simulator engine override for cosim scenarios
            (results are engine-independent; see
            :func:`~repro.campaign.runner.run_scenario`).
        timeout: per-scenario wall-clock bound in seconds (``jobs > 1``
            only — a serial run has no second process to do the
            killing); over-budget scenarios record ``status: "timeout"``.
        retries: re-attempts for scenarios that raise inside the shard
            before they are recorded as ``status: "error"``.
        backoff: base delay in seconds before a retry, doubled per
            attempt.

    Returns:
        the campaign payload: sorted scenario results plus run metadata
        (wall-clock timing lives only here, never in per-scenario
        results, so serial and parallel aggregates compare equal).
        A sweep never dies with a worker: crashed / hung / failing
        scenarios are recorded with a non-``"ok"`` ``status`` and the
        rest of the matrix completes.
    """
    check_int("jobs", jobs, 1)
    if retries < 0:
        raise ConfigError("retries must be >= 0")
    if backoff < 0:
        raise ConfigError("backoff must be >= 0")
    scenarios = list(scenarios)
    names = [scenario.name for scenario in scenarios]
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"duplicate scenario names in the matrix: {duplicates}")
    if scenarios:
        # The co-simulator loads only when a cell must run: here, before
        # the clock starts and before any worker forks, so that forked
        # workers start with it loaded instead of importing it each.
        from repro.campaign import runner  # noqa: F401
    started = time.perf_counter()

    if not scenarios:
        results = []
    elif jobs == 1:
        results = _run_serial(scenarios, campaign_seed, stream, sim_mode,
                              retries, backoff)
    else:
        results = _run_pool(scenarios, jobs, campaign_seed, stream,
                            sim_mode, timeout, retries, backoff)
    wall = time.perf_counter() - started

    results.sort(key=lambda r: r["name"])
    return {
        "schema": RESULT_SCHEMA,
        "campaign_seed": campaign_seed,
        "jobs": jobs,
        "scenario_count": len(results),
        "scenarios": results,
        "timing": {
            "wall_seconds": round(wall, 6),
            "scenarios_per_sec": round(len(results) / wall, 3) if wall else 0.0,
            "simulated_cycles": sum(r["cycles"] for r in results),
            "simulated_cycles_per_sec": (
                round(sum(r["cycles"] for r in results) / wall) if wall else 0
            ),
        },
    }

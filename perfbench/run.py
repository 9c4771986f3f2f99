"""Campaign benchmark of record.

Usage (from the repository root)::

    python3 perfbench/run.py --workload full-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload's real CLIs (``python -m repro.campaign``
/ ``python -m repro.service``) as cold subprocesses, one at a time,
repeating the whole workload until ``--seconds`` have passed, and
reports the end-to-end metrics as medians over the repetitions.  Host
times are scaled by a fixed reference job (``hostref.py``) timed in each
repetition, so that the host's own drift in speed cancels out.

``--trace 1`` instead runs in-process harness passes (``harness.py``)
with and without the span wrappers and reports the per-layer metrics,
plus the tracer's own overhead.

Every repetition checks its outputs; a repetition that fails a check
counts all its scenarios as failed and is left out of the timings.  The
environment, every metric's median, quartiles and sample count, and the
span tree are written to ``.perfbench_work/results/``; the last line of
standard output is the JSON summary::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

#: A single CLI process or harness pass taking longer than this is killed
#: (with its whole process group) and the repetition counts as failed.
STEP_TIMEOUT_S = 120.0

#: Host times are reported as on a host that runs hostref.py in this many
#: seconds: each repetition's times are scaled by this over the
#: reference's own wall time in that repetition.  0.35 s is typical of a
#: 2-vCPU x86-64 VM.
HOSTREF_NOMINAL_S = 0.35


@dataclass
class Measured:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    log: Path


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def measure(argv: Sequence[str], env: Dict[str, str], log: Path) -> Measured:
    """Run one process to completion: wall time from spawn to exit, and
    CPU time and peak RSS of its whole reaped process tree (``wait4``)."""
    with open(log, "wb") as sink:
        started = time.perf_counter()
        proc = subprocess.Popen(list(argv), cwd=ROOT, env=env, stdout=sink,
                                stderr=subprocess.STDOUT, start_new_session=True)
        watchdog = threading.Timer(STEP_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Anything the process left behind in its group goes with it.
    _kill_group(proc.pid)
    return Measured(wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, proc.returncode, log)


def _tail(path: Path, lines: int = 5) -> str:
    try:
        return " | ".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


# --------------------------------------------------------------------------
# One repetition
# --------------------------------------------------------------------------

@dataclass
class Rep:
    values: Dict[str, float]
    digest: str
    problems: List[str]
    bad_rows: int
    #: The reference's wall time and the unscaled host times, kept for
    #: the record.
    raw: Dict[str, float] = field(default_factory=dict)


def host_ref(env: Dict[str, str], out: Path, problems: List[str]) -> float:
    """Wall time of one cold run of the fixed reference job (hostref.py)."""
    got = measure([sys.executable, str(HERE / "hostref.py")], env, out / "hostref.log")
    if got.code != 0:
        problems.append(f"hostref.py: exit {got.code}: {_tail(got.log)}")
    return got.wall_s


def e2e_rep(workload: str, seed: int, jobs: int, out: Path,
            env: Dict[str, str], expected: int) -> Rep:
    """Run the workload's CLIs once as cold subprocesses, with the host
    reference timed just before the first and just after the last work
    step."""
    steps = workloads.plan(workload, seed, jobs, out)
    work_steps = [step for step in steps if step.phase == workloads.WORK]
    out.mkdir(parents=True)
    walls: Dict[Tuple[str, int], float] = {}
    refs: List[float] = []
    work_cpu = 0.0
    rss = 0.0
    problems: List[str] = []
    for index, step in enumerate(steps):
        if step is work_steps[0]:
            refs.append(host_ref(env, out, problems))
        got = measure([sys.executable, "-m", step.module, *step.argv], env,
                      out / f"step{index}.log")
        key = (step.phase, step.round)
        walls[key] = walls.get(key, 0.0) + got.wall_s
        rss = max(rss, got.rss_mb)
        if step.phase == workloads.WORK:
            work_cpu += got.cpu_s
        if got.code != 0:
            problems.append(f"{step.module} {' '.join(step.argv)}: "
                            f"exit {got.code}: {_tail(got.log)}")
        if step is work_steps[-1]:
            work = workloads.inspect_work(workload, out)
            refs.append(host_ref(env, out, problems))
    problems.extend(work.problems)
    problems.extend(workloads.inspect_resubmit(workload, out, work))
    model = workloads.model_metrics(work.rows)
    # Host seconds, as they would read on a host running the reference
    # job in HOSTREF_NOMINAL_S.
    raw = {"host_ref_s": statistics.fmean(refs),
           "work_wall_s": walls[(workloads.WORK, 0)], "work_cpu_s": work_cpu,
           "setup_s": walls[(workloads.SETUP, 0)],
           "resubmit_s": statistics.median(
               walls[(workloads.RESUBMIT, r)] for r in range(workloads.RESUBMIT_ROUNDS))}
    scale = HOSTREF_NOMINAL_S / raw["host_ref_s"]
    values = {
        "scenarios_per_s": len(work.rows) / (raw["work_wall_s"] * scale),
        "cpu_s_per_scenario": raw["work_cpu_s"] * scale / max(len(work.rows), 1),
        "sim_mcycles_per_cpu_s": (model["sim_cycles"] / 1e6
                                  / max(raw["work_cpu_s"] * scale, 1e-9)),
        "setup_s": raw["setup_s"] * scale,
        "resubmit_s": raw["resubmit_s"] * scale,
        "peak_rss_mb": rss,
        "detection_latency_p50_cycles": model["detection_latency_p50_cycles"],
    }
    return Rep(values, work.digest, problems,
               workloads.bad_rows(work.rows, expected), raw)


def _harness(workload: str, seed: int, jobs: int, trace: bool, out: Path,
             env: Dict[str, str]) -> dict:
    log = out.with_suffix(".log")
    got = measure([sys.executable, str(HERE / "harness.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--jobs", str(jobs), "--trace", str(int(trace)),
                   "--out", str(out)], env, log)
    lines = log.read_text(errors="replace").splitlines() if log.exists() else []
    if got.code != 0 or not lines:
        return {"problems": [f"harness exit {got.code}: {_tail(log)}"],
                "digest": "", "bad_rows": 0, "wall_s": got.wall_s}
    return json.loads(lines[-1])


def traced_rep(workload: str, seed: int, jobs: int, out: Path,
               env: Dict[str, str], index: int) -> Tuple[Rep, dict]:
    """Traced and untraced harness passes: serially in-process for the
    simulator layers, and at the workload's own ``--jobs`` for the
    parent-side pool, durable and service layers."""
    out.mkdir(parents=True)
    pass_jobs = [1] if jobs == 1 else [1, jobs]
    traced: Dict[int, dict] = {}
    walls = {True: 0.0, False: 0.0}
    problems: List[str] = []
    digests = set()
    bad = 0
    for pass_index, pass_j in enumerate(pass_jobs):
        # Alternate which side runs first, so drift does not bias the ratio.
        order = (True, False) if (index + pass_index) % 2 == 0 else (False, True)
        for trace in order:
            name = f"j{pass_j}-{'traced' if trace else 'plain'}"
            result = _harness(workload, seed, pass_j, trace, out / name, env)
            walls[trace] += result["wall_s"]
            problems.extend(f"{name}: {p}" for p in result["problems"])
            digests.add(result["digest"])
            bad = max(bad, result["bad_rows"])
            if trace:
                traced[pass_j] = result
    if len(digests) != 1:
        problems.append("traced and untraced passes produced different rows")
    values: Dict[str, float] = {}
    if not problems:
        for metric in metrics.PER_LAYER:
            if metric.name == "trace.overhead_share":
                continue
            source = jobs if metric.name in metrics.POOL_SIDE else 1
            values[metric.name] = traced[source]["metrics"][metric.name]
    values["trace.overhead_share"] = walls[True] / walls[False] - 1.0
    detail = traced.get(1, {})
    return Rep(values, digests.pop() if len(digests) == 1 else "", problems, bad), {
        "spans": detail.get("spans"), "edges": detail.get("edges")}


# --------------------------------------------------------------------------
# Cross-run identity checks
# --------------------------------------------------------------------------

def code_digest() -> str:
    """sha256 over the program and the benchmark: every file under
    ``src/repro`` and this directory (bytecode caches aside), by path."""
    digest = hashlib.sha256()
    for base in (SRC / "repro", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def check_identity(key: str, record: Dict[str, object]) -> List[str]:
    """Compare ``record`` with what earlier runs stored under ``key``,
    then store the union.  Simulated outputs and layer counts of one
    workload and seed must never change between runs of the same code
    (``key`` holds :func:`code_digest`), traced or not."""
    path = WORK_DIR / "identity" / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    stored = json.loads(path.read_text()) if path.exists() else {}
    problems = [f"{name} changed since an earlier run: {stored[name]!r} -> {value!r}"
                for name, value in record.items()
                if name in stored and stored[name] != value]
    if not problems:
        stored.update(record)
        path.write_text(json.dumps(stored, sort_keys=True, indent=1) + "\n")
    return problems


# --------------------------------------------------------------------------
# Summary
# --------------------------------------------------------------------------

def summarize(samples: Sequence[float]) -> Dict[str, float]:
    values = sorted(samples)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": list(samples)}


def environment(seed: int, jobs: int) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "campaign_seed": seed,
        "jobs": jobs,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    scratch = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    (scratch / "tmp").mkdir(parents=True)
    env["TMPDIR"] = str(scratch / "tmp")

    nproc = len(os.sched_getaffinity(0))
    jobs = workloads.workload_jobs(workload, nproc)
    expected = workloads.expected_cells(workload)
    # Byte-compile once, untimed, so no repetition pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "repro"),
                    str(HERE)], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)

    reps: List[Rep] = []
    trace_detail: Optional[dict] = None
    started = time.perf_counter()
    try:
        # Whole repetitions: start another only while half an average
        # repetition still fits before the deadline.
        while not reps or (time.perf_counter() - started) * (1 + 0.5 / len(reps)) < seconds:
            out = scratch / f"rep{len(reps)}"
            if trace:
                rep, trace_detail = traced_rep(workload, seed, jobs, out, env,
                                               len(reps))
            else:
                rep = e2e_rep(workload, seed, jobs, out, env, expected)
            shutil.rmtree(out, ignore_errors=True)
            reps.append(rep)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    first = reps[0]
    counts = {} if first.problems or not trace else {
        name: value for name, value in first.values.items()
        if metrics.is_count(name)}
    for rep in reps[1:]:
        if rep.digest != first.digest:
            rep.problems.append("rows differ from the first repetition")
        changed = [name for name, value in counts.items()
                   if not rep.problems and rep.values.get(name) != value]
        if changed:
            rep.problems.append(f"counts did not repeat exactly: {changed}")
    problems = [] if first.problems else check_identity(
        f"{workload}-seed{seed}-jobs{jobs}-{code_digest()[:16]}",
        {"rows_digest": first.digest, **counts})

    attempted = expected * len(reps)
    failed = sum(expected if rep.problems else rep.bad_rows for rep in reps)
    if problems:
        failed = attempted
    good = [rep for rep in reps if not rep.problems] or reps
    names = [m.name for m in (metrics.PER_LAYER if trace else metrics.END_TO_END)]
    stats = {}
    for name in names:
        samples = [rep.values[name] for rep in good if name in rep.values]
        stats[name] = summarize(samples if samples else [0.0])
        stats[name]["unit"] = metrics.UNITS[name]
    return {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "env": environment(seed, jobs),
        "repetitions": len(reps),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "problems": problems + [p for rep in reps for p in rep.problems],
        "metrics": stats,
        "unscaled": {name: summarize([rep.raw[name] for rep in good])
                     for name in good[0].raw},
        "trace_detail": trace_detail,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Campaign benchmark of record")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="campaign seed the workload's inputs derive from")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long (whole repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced per-layer run instead of end-to-end")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))

    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = results_dir / (f"{args.workload}-seed{args.seed}"
                            f"-trace{args.trace}.json")
    record.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    print(f"env: {json.dumps(result['env'], sort_keys=True)}")
    print(f"workload {args.workload}: {result['repetitions']} repetition(s), "
          f"failed_share {result['failed_share']:.6g} "
          f"({result['failed']}/{result['attempted']} scenarios)")
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}")
    for name, stat in result["metrics"].items():
        print(f"{name:<36} {stat['median']:>14.6g} {stat['unit']:<10} "
              f"q1 {stat['q1']:.6g}  q3 {stat['q3']:.6g}  n {stat['n']}")
    for name, stat in result["unscaled"].items():
        print(f"unscaled {name:<27} {stat['median']:>14.6g} s")
    print(f"details: {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": stat["median"], "unit": stat["unit"]}
                    for name, stat in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

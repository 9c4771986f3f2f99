"""Kill-and-restart convergence: the acceptance criterion, for real.

A serving process is killed mid-job: a launcher patches
``ResultStore.put`` so the server calls ``os._exit`` right after its
5th store write returns (the closest deterministic stand-in for
``kill -9`` — no atexit handlers, no flushes), then runs the real CLI.
A fresh ``serve --once`` resumes from the journal + store.  The
converged service tree must be *bit-identical* to an uninterrupted
run: every store object, ``campaign.json`` and ``campaign.csv``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

#: Runs ``python -m repro.service`` with the server dying right after
#: the ``puts``-th store write.
CRASHING_SERVICE = """
import os, sys
from repro.service.cli import main
from repro.service.store import ResultStore

puts, argv = int(sys.argv[1]), sys.argv[2:]
put = ResultStore.put

def put_then_die(self, *args, **kwargs):
    global puts
    path = put(self, *args, **kwargs)
    puts -= 1
    if puts == 0:
        os._exit(13)
    return path

ResultStore.put = put_then_die
sys.exit(main(argv))
"""


def _run_service(root, *argv, crash_after_puts=None, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    if crash_after_puts is None:
        command = [sys.executable, "-m", "repro.service"]
    else:
        command = [sys.executable, "-c", CRASHING_SERVICE,
                   str(crash_after_puts)]
    proc = subprocess.run(
        [*command, "--root", str(root), *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"service {argv} exited {proc.returncode}:\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return proc


def _store_snapshot(root):
    objects = Path(root) / "store" / "objects"
    return {
        path.relative_to(objects).as_posix(): path.read_bytes()
        for path in sorted(objects.rglob("*.json"))
    }


def test_kill_mid_job_then_restart_converges(tmp_path):
    interrupted = tmp_path / "interrupted"
    reference = tmp_path / "reference"

    # Reference: one uninterrupted cold run of the smoke matrix.
    _run_service(reference, "submit", "--matrix", "smoke")
    _run_service(reference, "serve", "--once")

    # Interrupted: the server dies after 5 stored cells.
    _run_service(interrupted, "submit", "--matrix", "smoke")
    crash = _run_service(interrupted, "serve", "--once",
                         crash_after_puts=5, check=False)
    assert crash.returncode == 13, crash.stdout + crash.stderr

    # The journal must say 'running' (orphaned), and the store must
    # hold exactly the cells that were durably written before death.
    status = _run_service(interrupted, "status", "--json")
    (job,) = json.loads(status.stdout)
    assert job["state"] == "running"
    partial = _store_snapshot(interrupted)
    assert len(partial) == 5

    # Restart: the orphaned job resumes and completes.
    _run_service(interrupted, "serve", "--once")
    status = _run_service(interrupted, "status", "--json")
    (job,) = json.loads(status.stdout)
    assert job["state"] == "done"
    # Resumed accounting: the 5 stored cells hit, the rest executed.
    assert job["stats"]["hits"] == 5
    assert job["stats"]["executed"] == job["stats"]["cells"] - 5

    # Bit-identical convergence: store objects and campaign artifacts.
    assert _store_snapshot(interrupted) == _store_snapshot(reference)
    for name in ("campaign.json", "campaign.csv"):
        a = (interrupted / "jobs" / "job-0001" / name).read_bytes()
        b = (reference / "jobs" / "job-0001" / name).read_bytes()
        assert a == b, name

    # The partially-written cells were never rewritten differently.
    converged = _store_snapshot(interrupted)
    for key, blob in partial.items():
        assert converged[key] == blob

"""Commands that run no cell load no co-simulator.

``campaign list``, ``service status``, a warm ``service serve`` and
``campaign run --resume`` on finished output each run in a fresh
interpreter, which reports every module it loaded.  None may load the
co-simulator, the campaign runner or ``multiprocessing``: those load
only when a cell must run (:func:`repro.campaign.pool.run_campaign`).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign.cli import main as campaign_main
from repro.service.queue import SweepService

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages none of whose modules may load: the co-simulator, what
#: only runs beside it, and the worker pool's process machinery.
FORBIDDEN_PACKAGES = (
    "repro.hart", "repro.core", "repro.cva6", "repro.soc", "repro.mem",
    "repro.opentitan", "repro.firmware", "repro.policyhost", "repro.synth",
    "repro.coverage", "multiprocessing",
)
#: Single modules that may not load.
FORBIDDEN_MODULES = (
    "repro.system.sim", "repro.system.soc", "repro.campaign.runner",
)

#: Runs ``python -m <argv...>`` and prints, as its last stdout line,
#: the exit code and every module loaded.
PROBE = """
import json, runpy, sys
sys.argv = sys.argv[1:]
code = None
try:
    runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _list(tmp_path, capsys):
    return (["repro.campaign", "list", "--matrix", "full"],
            "401 scenarios in matrix 'full'")


def _status(tmp_path, capsys):
    root = tmp_path / "service"
    SweepService(root).submit("smoke")
    return (["repro.service", "--root", str(root), "status"],
            "job-0001  queued     matrix=smoke seed=0")


def _warm_serve(tmp_path, capsys):
    root = tmp_path / "service"
    service = SweepService(root)
    service.submit("smoke")
    service.serve_once()
    service.submit("smoke")
    return (["repro.service", "--root", str(root), "serve"],
            "job-0002 [done] matrix=smoke cells=21 hits=21 executed=0"
            " invalidated=0 failed=0")


def _finished_resume(tmp_path, capsys):
    out = tmp_path / "campaign"
    assert campaign_main(["run", "--matrix", "smoke", "--jobs", "1",
                          "--out", str(out)]) == 0
    capsys.readouterr()
    return (["repro.campaign", "run", "--matrix", "smoke", "--resume",
             str(out)],
            "resuming: 21 scenario(s) checkpointed, 0 to run")


#: Each command's setup: it prepares ``tmp_path`` and returns the
#: command's ``python -m`` argv and a line it must print.
COMMANDS = {
    "campaign-list": _list,
    "service-status": _status,
    "service-warm-serve": _warm_serve,
    "campaign-resume-finished": _finished_resume,
}


def _forbidden(name: str) -> bool:
    return name in FORBIDDEN_MODULES or any(
        name == package or name.startswith(package + ".")
        for package in FORBIDDEN_PACKAGES)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_that_runs_no_cell_loads_no_cosimulator(command, tmp_path,
                                                        capsys):
    argv, expected = COMMANDS[command](tmp_path, capsys)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=False)
    *printed, last = proc.stdout.splitlines()
    report = json.loads(last)
    assert report["code"] == 0, proc.stderr
    assert expected in printed
    assert [name for name in report["modules"] if _forbidden(name)] == []

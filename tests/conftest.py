"""Fault injection for the campaign pool's crash, hang and retry tests.

The injectors patch :func:`repro.campaign.runner.run_scenario`, which
the pool's workers and the serial path look up through the module
global.  Workers are forked, so they inherit the patch: a named
scenario then kills, hangs or fails the very process that runs it,
exactly as a segfaulting, wedged or flaky scenario would.
"""

import multiprocessing
import os
import time

import pytest

from repro.campaign import runner
from repro.errors import SimulationError


class ScenarioFaults:
    """Make named scenarios misbehave wherever they run."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self._original = runner.run_scenario

    def _before(self, name, action):
        run_scenario = runner.run_scenario

        def faulty(scenario, *args, **kwargs):
            if scenario.name == name:
                action()
            return run_scenario(scenario, *args, **kwargs)

        self._monkeypatch.setattr(runner, "run_scenario", faulty)

    def crash(self, name):
        """The worker dies (``os._exit(3)``) before running ``name``."""
        self._before(name, lambda: os._exit(3))

    def hang(self, name):
        """The worker hangs before running ``name``."""
        self._before(name, lambda: time.sleep(3600))

    def flaky(self, name, marker_dir):
        """``name`` fails its first attempt only.  Attempts are counted
        as marker files in ``marker_dir``, so the count holds across
        worker processes."""

        def fail_first_attempt():
            attempts = sum(entry.startswith("attempt-")
                           for entry in os.listdir(marker_dir))
            open(os.path.join(marker_dir, f"attempt-{attempts}"), "w").close()
            if attempts < 1:
                raise SimulationError(f"flaky failure for {name}")

        self._before(name, fail_first_attempt)

    def clear(self):
        """Every scenario runs normally again."""
        self._monkeypatch.setattr(runner, "run_scenario", self._original)


@pytest.fixture
def faults(monkeypatch):
    # A spawned worker would re-import the runner and lose the patch.
    assert multiprocessing.get_context().get_start_method() == "fork", (
        "fault injection needs forked campaign workers")
    return ScenarioFaults(monkeypatch)

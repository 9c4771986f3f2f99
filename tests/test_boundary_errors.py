"""Typed errors at library boundaries.

A bad argument at a public entry point raises :class:`ConfigError`,
never a bare ``TypeError`` or ``ValueError`` from deep inside, and a
``bool`` is not a count (:func:`repro.errors.check_int`).  A job the
service cannot run is refused before it is journaled.
"""

import pytest

from repro.campaign.runner import run_campaign
from repro.errors import ConfigError
from repro.hart.core import Hart
from repro.hart.ports import MapPort
from repro.hart.timing import IbexTiming
from repro.mem.map import MemoryMap
from repro.service.queue import SweepService
from repro.soc.mailbox import DoorbellArbiter
from repro.system.sim import SystemSimulator
from repro.system.soc import build_soc
from repro.trace.model import simulate_trace

CASES = {
    "run_campaign-jobs-str": lambda root: run_campaign([], jobs="2"),
    "run_campaign-jobs-bool": lambda root: run_campaign([], jobs=True),
    "submit-workers-str": lambda root: SweepService(root).submit(
        "smoke", workers="2"),
    "submit-unknown-sim-mode": lambda root: SweepService(root).submit(
        "smoke", sim_mode="warp"),
    "simulate_trace-queue-depth-str": lambda root: simulate_trace(
        [], 100, 10, queue_depth="8"),
    "simulate_trace-queue-depth-bool": lambda root: simulate_trace(
        [], 100, 10, queue_depth=True),
    "simulator-start-delays-int": lambda root: SystemSimulator(
        build_soc(), start_delays=5),
    "hart-xlen-16": lambda root: Hart(MapPort(MemoryMap("bus")), IbexTiming(),
                                      xlen=16),
    "arbiter-ports-bool": lambda root: DoorbellArbiter(True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_argument_raises_config_error(case, tmp_path):
    with pytest.raises(ConfigError):
        CASES[case](tmp_path)
    assert not (tmp_path / "journal.jsonl").exists()

"""Typed errors at library boundaries.

A bad argument at a public entry point raises :class:`ConfigError`,
never a bare ``TypeError`` or ``ValueError`` from deep inside, and a
``bool`` is not a count (:func:`repro.errors.check_int`).  A job the
service cannot run is refused before it is journaled.
"""

import pytest

from repro.campaign.pool import run_campaign
from repro.coverage.loop import FuzzConfig, fuzz
from repro.errors import ConfigError
from repro.firmware.policies import ShadowStackPolicy
from repro.firmware.shadow_stack import FirmwareLayout
from repro.hart.core import Hart
from repro.hart.ports import MapPort
from repro.hart.timing import IbexTiming
from repro.mem.map import MemoryMap
from repro.service.queue import SweepService
from repro.soc.mailbox import DoorbellArbiter
from repro.system.addresses import AddressMap
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
    "fuzz-jobs-str": lambda root: fuzz(root, FuzzConfig(10, jobs="2")),
    "fuzz-jobs-bool": lambda root: fuzz(root, FuzzConfig(10, jobs=True)),
    "fuzz-seeds-per-family-str": lambda root: fuzz(
        root, FuzzConfig(10, seeds_per_family="1")),
    "shadow-stack-capacity-str": lambda root: ShadowStackPolicy(capacity="4"),
    "shadow-stack-capacity-float": lambda root: ShadowStackPolicy(
        capacity=4.5),
    "shadow-stack-spill-entries-str": lambda root: ShadowStackPolicy(
        capacity=4, spill_entries="2"),
    "layout-ss-capacity-str": lambda root: FirmwareLayout(
        AddressMap(), ss_capacity="8"),
    "layout-ss-capacity-float": lambda root: FirmwareLayout(
        AddressMap(), ss_capacity=8.0, spill_entries=4),
    "layout-spill-slots-str": lambda root: FirmwareLayout(
        AddressMap(), spill_slots="x"),
    "layout-spill-slots-negative": lambda root: FirmwareLayout(
        AddressMap(), spill_slots=-1),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_argument_raises_config_error(case, tmp_path):
    with pytest.raises(ConfigError):
        CASES[case](tmp_path)
    assert not (tmp_path / "journal.jsonl").exists()

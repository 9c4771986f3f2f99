"""Shipped calibration tables against a fresh measurement.

:class:`~repro.policyhost.calibration.ResponseModel` is built from
``src/repro/policyhost/calibration_tables.json`` whenever the entry's
key and firmware digest match, so no other suite measures the firmware
for the four shipped configurations: the ``irq`` and ``polling``
firmware on the ``standard`` and ``optimized`` fabrics at the default
45-cycle wake.  This suite re-measures each of them with
:func:`~repro.policyhost.calibration.measure_tables`, the function that
generates the file, and compares every value (the busy curve of each
firmware state, the offsets that lead to the head state, the boot tail,
the boot head, every service delta, ``bad_bias`` and the firmware
digest).
It also checks that a digest mismatch falls back to measuring.

A change that alters the measured firmware timing on purpose
regenerates the file and says so in CHANGES.md::

    PYTHONPATH=src python tests/policyhost/test_calibration_tables.py
"""

import json

import pytest

from repro.policyhost import calibration
from repro.policyhost.calibration import (
    TABLES,
    ResponseModel,
    measure_tables,
    table_key,
)

REGENERATE = "PYTHONPATH=src python tests/policyhost/test_calibration_tables.py"

CONFIGS = [(variant, fabric) for variant in ("irq", "polling")
           for fabric in ("standard", "optimized")]
WAKE = 45


def _fields(model: ResponseModel):
    """Every table a model was built from, deltas in probe order."""
    return (model._busy, model._heads, model.boot_tail, model.boot_head,
            list(model._deltas.items()), model.bad_bias)


@pytest.fixture
def rig_builds(monkeypatch):
    """Count the firmware rigs calibration constructs."""
    built = []

    class CountingRig(calibration.FirmwareRig):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(calibration, "FirmwareRig", CountingRig)
    return built


@pytest.mark.parametrize("variant,fabric", CONFIGS)
def test_tables_match_committed(variant, fabric):
    shipped = json.loads(TABLES.read_text())[table_key(variant, fabric, WAKE)]
    assert measure_tables(variant, fabric, WAKE) == shipped, (
        f"calibration tables are stale; regenerate with: {REGENERATE}")


def test_every_shipped_entry_is_re_measured():
    assert list(json.loads(TABLES.read_text())) == [
        table_key(variant, fabric, WAKE) for variant, fabric in CONFIGS]


def test_matching_digest_builds_no_rig(rig_builds):
    ResponseModel("irq", "standard", WAKE)
    assert rig_builds == []


def test_digest_mismatch_measures_the_same_tables(rig_builds, monkeypatch):
    shipped = ResponseModel("irq", "standard", WAKE)
    monkeypatch.setattr(calibration, "firmware_digest",
                        lambda variant: "0" * 64)
    measured = ResponseModel("irq", "standard", WAKE)
    assert len(rig_builds) > 0
    assert _fields(measured) == _fields(shipped)


if __name__ == "__main__":
    TABLES.write_text(json.dumps(
        {table_key(variant, fabric, WAKE): measure_tables(variant, fabric, WAKE)
         for variant, fabric in CONFIGS},
        indent=1,
    ) + "\n")
    print(f"wrote {TABLES}")

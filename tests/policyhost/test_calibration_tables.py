"""Committed calibration tables: every number the response model measures.

The other policy-host suites check properties of the tables (an IRQ
busy curve's period is 1, every probed path has a delta) and compare
host-backed runs against firmware-backed ones, so a drift in a table
value shows up only indirectly.  This suite pins the values themselves
in ``calibration_tables.json``: for the ``irq`` and ``polling``
firmware on the ``standard`` and ``optimized`` fabrics at the default
45-cycle wake, both busy curves (``ok`` and the lazily measured
``bad``), the boot tail, every service delta and ``bad_bias``.

A change that alters the measured firmware timing on purpose
regenerates the file and says so in CHANGES.md::

    PYTHONPATH=src python tests/policyhost/test_calibration_tables.py
"""

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.policyhost.calibration import ResponseCurve, calibrate

TABLES = Path(__file__).with_name("calibration_tables.json")

CONFIGS = [(variant, fabric) for variant in ("irq", "polling")
           for fabric in ("standard", "optimized")]


def _curve(curve: ResponseCurve) -> Dict[str, object]:
    return {"start": curve.start, "values": list(curve.values),
            "period": curve.period}


def tables(variant: str, fabric: str) -> Dict[str, object]:
    """Every measured table of one firmware configuration, as JSON."""
    model = calibrate(variant, fabric, 45)
    return {
        "busy": {outcome: _curve(model.busy_curve(outcome))
                 for outcome in ("ok", "bad")},
        "boot_tail": _curve(model.boot_tail),
        "deltas": {f"{name}/{outcome}": model.service_delta((name, outcome))
                   for name, outcome in model._deltas},
        "bad_bias": model.bad_bias,
    }


@pytest.mark.parametrize("variant,fabric", CONFIGS)
def test_tables_match_committed(variant, fabric):
    committed = json.loads(TABLES.read_text())[f"{variant}/{fabric}"]
    assert tables(variant, fabric) == committed


if __name__ == "__main__":
    TABLES.write_text(json.dumps(
        {f"{v}/{f}": tables(v, f) for v, f in CONFIGS}, indent=1
    ) + "\n")

"""Metric registry: the metrics ``BENCHMARK.json`` at the repository root
declares, with their units and directions.

README.md explains each metric and the layer it belongs to.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: Optional[float] = None


_spec = json.loads(SPEC.read_text())
END_TO_END: Tuple[Metric, ...] = tuple(Metric(**m) for m in _spec["end_to_end"])
PER_LAYER: Tuple[Metric, ...] = tuple(Metric(**m) for m in _spec["per_layer"])

#: Per-layer metrics taken from the pass at the workload's own ``--jobs``
#: (parent side); every other per-layer metric comes from the serial pass.
POOL_SIDE = frozenset({
    "campaign.pool.workers_spawned",
    "durable.fsync.calls", "durable.fsync.s",
    "service.store.put.calls", "service.store.put.s",
    "service.store.get.calls", "service.store.get.s",
    "service.store.hit_share",
})

UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}


def is_count(name: str) -> bool:
    """Count-type metrics repeat exactly from run to run."""
    unit = UNITS[name]
    return unit in ("count", "insns", "cycles") or name in (
        "overhead_pct_mean", "campaign.shard_cache.hit_share",
        "service.store.hit_share")

#!/usr/bin/env python3
"""Campaign as a service: submit → serve → re-submit → dashboard.

Walks the full sweep-service loop in a temporary directory, removed
when the demo ends:

1. submit the ``smoke`` matrix as a durable job and drain it — every
   cell executes and lands in the content-addressed result store;
2. re-submit the identical matrix — the second sweep resolves entirely
   from the store (0 cells executed, 100 % hits) and its
   ``campaign.json`` is byte-identical to the cold run;
3. pretend the code changed (a different code-version fingerprint) —
   every cached cell is invalidated and re-executes;
4. render the static HTML dashboard from the store + job artifacts.

Run:  python examples/service_demo.py
"""

import tempfile
from pathlib import Path

from repro.service.dashboard import write_dashboard
from repro.service.queue import SweepService


def serve(service: SweepService, matrix: str = "smoke") -> dict:
    job = service.submit(matrix, workers=2)
    (sweep,) = service.serve_once()
    print(f"  {job.job_id}: cells={sweep['cells']} hits={sweep['hits']} "
          f"executed={sweep['executed']} invalidated={sweep['invalidated']}"
          f" -> {sweep['state']}")
    return sweep


def demo(root: Path) -> None:
    # 1. Cold sweep: nothing cached, everything executes.
    print("cold sweep (empty store):")
    service = SweepService(root, code_version="v-demo-1")
    cold = serve(service)
    assert cold["executed"] == cold["cells"]

    # 2. Warm sweep: the store serves every cell; artifacts match
    #    byte for byte.
    print("warm sweep (same matrix, same code):")
    warm = serve(service)
    assert warm["executed"] == 0 and warm["hits"] == warm["cells"]
    a = (service.job_dir("job-0001") / "campaign.json").read_bytes()
    b = (service.job_dir("job-0002") / "campaign.json").read_bytes()
    assert a == b
    print("  campaign.json byte-identical to the cold run")

    # 3. A code change invalidates the cache wholesale: results are a
    #    function of code x spec, and the fingerprint covers the code.
    print("sweep after a (simulated) code change:")
    changed = SweepService(root, code_version="v-demo-2")
    invalidated = serve(changed)
    assert invalidated["invalidated"] == invalidated["cells"]

    # 4. Dashboard: jobs, hit accounting, per-matrix detection tables
    #    and per-policy trends across the two code versions.
    size = write_dashboard(changed).stat().st_size
    print(f"dashboard: {size} bytes of HTML")
    print(f"store: {changed.store.count('v-demo-1')} cells under v-demo-1, "
          f"{changed.store.count()} under v-demo-2")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="titancfi-service-") as root:
        demo(Path(root))


if __name__ == "__main__":
    main()

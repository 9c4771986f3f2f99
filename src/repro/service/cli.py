"""Command-line interface: ``python -m repro.service``.

Subcommands:

* ``submit`` — enqueue a sweep of a named matrix as a durable job.
* ``serve`` — drain the queue: ``--once`` (default) processes every
  runnable job and exits; ``--watch`` keeps polling.  Jobs found in
  state ``running`` (a previous server was killed mid-job) are
  resumed from the journal + store.
* ``status`` — print the job table (``--json`` for tooling).
* ``cancel`` — cancel a queued/running job.
* ``gc`` — drop store objects cached under superseded code versions.
* ``dashboard`` — render the static HTML dashboard.

Everything operates on a service directory (``--root``, default
``artifacts/service``) that holds the job journal, the
content-addressed result store and per-job artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.campaign.spec import MATRICES
from repro.errors import ConfigError, ServiceError
from repro.service.queue import SweepService
from repro.system.modes import MODES

DEFAULT_ROOT = Path("artifacts/service")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="TitanCFI campaign-as-a-service sweep backend",
    )
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                        help=f"service directory (default: {DEFAULT_ROOT})")
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser("submit", help="enqueue a sweep job")
    submit.add_argument("--matrix", default="smoke",
                        choices=sorted(MATRICES))
    submit.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default: 0)")
    submit.add_argument("--sim-mode", default=None, choices=MODES)
    submit.add_argument("--workers", type=int, default=1,
                        help="worker processes for the job (default: 1)")

    serve = sub.add_parser("serve", help="drain the job queue")
    mode = serve.add_mutually_exclusive_group()
    mode.add_argument("--once", action="store_true", default=True,
                      help="process runnable jobs once and exit (default)")
    mode.add_argument("--watch", action="store_true",
                      help="keep polling for new jobs")
    serve.add_argument("--poll", type=float, default=1.0,
                       help="watch-mode poll interval in seconds")

    status = sub.add_parser("status", help="print the job table")
    status.add_argument("--json", action="store_true", dest="as_json")
    status.add_argument("job_id", nargs="?", default=None)

    cancel = sub.add_parser("cancel", help="cancel a queued/running job")
    cancel.add_argument("job_id")

    sub.add_parser("gc", help="drop results from superseded code versions")

    dashboard = sub.add_parser("dashboard", help="render dashboard.html")
    dashboard.add_argument("--out", type=Path, default=None,
                           help="output path (default: <root>/dashboard.html)")
    return parser


def _cmd_submit(service: SweepService, args: argparse.Namespace) -> int:
    job = service.submit(args.matrix, campaign_seed=args.seed,
                         sim_mode=args.sim_mode, workers=args.workers)
    print(f"queued {job.job_id}: matrix={job.matrix} "
          f"seed={job.campaign_seed}")
    return 0


def _cmd_serve(service: SweepService, args: argparse.Namespace) -> int:
    if args.watch:
        try:
            service.serve_forever(poll=args.poll)
        except KeyboardInterrupt:
            pass
        return 0
    processed = service.serve_once()
    if not processed:
        print("no runnable jobs")
        return 0
    failed = 0
    for sweep in processed:
        failed += int(sweep["state"] == "failed")
        print(
            f"{sweep['job_id']} [{sweep['state']}] matrix={sweep['matrix']}"
            f" cells={sweep['cells']} hits={sweep['hits']}"
            f" executed={sweep['executed']}"
            f" invalidated={sweep['invalidated']}"
            f" failed={sweep['failed']}"
        )
    return 1 if failed else 0


def _cmd_status(service: SweepService, args: argparse.Namespace) -> int:
    jobs = service.jobs()
    if args.job_id is not None:
        jobs = {k: v for k, v in jobs.items() if k == args.job_id}
    if args.as_json:
        print(json.dumps([job.describe() for job in jobs.values()],
                         indent=2))
        return 0
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs.values():
        stats = job.stats
        suffix = ""
        if stats:
            suffix = (f"  cells={stats.get('cells')}"
                      f" hits={stats.get('hits')}"
                      f" executed={stats.get('executed')}")
        print(f"{job.job_id}  {job.state:<9}  matrix={job.matrix}"
              f" seed={job.campaign_seed}{suffix}")
    return 0


def _cmd_cancel(service: SweepService, args: argparse.Namespace) -> int:
    job = service.cancel(args.job_id)
    print(f"cancelled {job.job_id}")
    return 0


def _cmd_gc(service: SweepService, args: argparse.Namespace) -> int:
    report = service.gc()
    print(f"gc: removed {report['removed_objects']} object(s) across "
          f"{len(report['removed_versions'])} superseded code version(s)")
    return 0


def _cmd_dashboard(service: SweepService, args: argparse.Namespace) -> int:
    from repro.service.dashboard import write_dashboard

    path = write_dashboard(service, args.out)
    print(f"dashboard: {path}")
    return 0


_COMMANDS = {
    "submit": _cmd_submit,
    "serve": _cmd_serve,
    "status": _cmd_status,
    "cancel": _cmd_cancel,
    "gc": _cmd_gc,
    "dashboard": _cmd_dashboard,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    service = SweepService(args.root)
    try:
        return _COMMANDS[args.command](service, args)
    except (ConfigError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""CLI: ``python -m repro.coverage`` — drive the coverage-guided loop.

Subcommands:

* ``run --iters 60 --out artifacts/fuzz [--jobs 4] [--resume]`` — run
  (or resume) a bounded fuzz loop; prints the run summary.
* ``show --out artifacts/fuzz [--json]`` — summarize a finished (or
  in-flight) run's coverage map and corpus.
* ``baseline --iters 60`` — the blind uniform-generation baseline over
  the same measurement pipeline, for side-by-side comparison.

Everything is deterministic in ``(--seed, --iters)``; ``--jobs`` only
changes wall-clock, never a single artifact byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.coverage.corpus import CoverageCorpus
from repro.coverage.fuzz import (
    CORPUS_DIR,
    MAP_NAME,
    FuzzConfig,
    fuzz,
    uniform_baseline,
)
from repro.coverage.shape import CoverageMap
from repro.errors import CampaignError, ConfigError, ServiceError
from repro.synth.generator import FAMILIES


def _print_summary(summary: dict) -> None:
    print(f"iterations:        {summary['iterations']}")
    for status, count in summary["statuses"].items():
        print(f"  {status:<16} {count}")
    print(f"distinct points:   {summary['distinct_points']}")
    print(f"observations:      {summary['observations']}")
    print("points by axis:")
    for axis, count in summary["by_axis"].items():
        print(f"  {axis:<16} {count}")
    print(f"corpus size:       {summary['corpus_size']}")
    print(f"oracle disagreements: {summary['oracle_disagreements']}")


def _cmd_run(args: argparse.Namespace) -> int:
    config = FuzzConfig(
        iterations=args.iters,
        seed=args.seed,
        families=tuple(args.family) if args.family else FAMILIES,
        seeds_per_family=args.seeds_per_family,
        corpus_max=args.corpus_max,
        jobs=args.jobs,
    )
    summary = fuzz(args.out, config, resume=args.resume)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        _print_summary(summary)
    return 1 if summary["oracle_disagreements"] else 0


def _cmd_show(args: argparse.Namespace) -> int:
    out = Path(args.out)
    map_path = out / MAP_NAME
    if not map_path.exists():
        print(f"no coverage map at {map_path}", file=sys.stderr)
        return 2
    coverage = CoverageMap.from_json(json.loads(map_path.read_text()))
    corpus = CoverageCorpus(out / CORPUS_DIR)
    if args.json:
        print(json.dumps({
            "distinct_points": len(coverage),
            "observations": coverage.observations,
            "by_axis": coverage.by_axis(),
            "corpus": [
                {"digest": record["digest"], "family": record["family"],
                 "iteration": record["iteration"],
                 "new_points": record["new_points"]}
                for record in corpus.entries()
            ],
        }, indent=2, sort_keys=True))
        return 0
    print(f"coverage map: {len(coverage)} distinct points, "
          f"{coverage.observations} observations")
    for axis, count in coverage.by_axis().items():
        print(f"  {axis:<16} {count}")
    print(f"corpus: {len(corpus)} entries")
    for record in corpus.entries():
        print(f"  {record['digest']}  {record['family']:<14} "
              f"iter={record['iteration']:<5} "
              f"+{len(record['new_points'])} points")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    summary = uniform_baseline(args.iters, seed=args.seed)
    summary.pop("coverage")
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"iterations:        {summary['iterations']}")
        print(f"distinct points:   {summary['distinct_points']}")
        print("points by axis:")
        for axis, count in summary["by_axis"].items():
            print(f"  {axis:<16} {count}")
        print(f"oracle disagreements: {summary['oracle_disagreements']}")
    return 1 if summary["oracle_disagreements"] else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.coverage",
        description="coverage-guided scenario synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run or resume a bounded fuzz loop")
    run.add_argument("--iters", type=int, default=60,
                     help="total candidate budget (including seeds)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default="artifacts/fuzz",
                     help="output directory (journal, corpus, artifacts)")
    run.add_argument("--jobs", type=int, default=1,
                     help="worker processes (never changes results)")
    run.add_argument("--family", action="append", choices=FAMILIES,
                     help="restrict to these families (repeatable)")
    run.add_argument("--seeds-per-family", type=int, default=2)
    run.add_argument("--corpus-max", type=int, default=256)
    run.add_argument("--resume", action="store_true",
                     help="continue from an existing journal")
    run.add_argument("--json", action="store_true")

    show = sub.add_parser("show", help="summarize a fuzz output directory")
    show.add_argument("--out", default="artifacts/fuzz")
    show.add_argument("--json", action="store_true")

    base = sub.add_parser("baseline",
                          help="uniform-generation coverage baseline")
    base.add_argument("--iters", type=int, default=60)
    base.add_argument("--seed", type=int, default=0)
    base.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)
    commands = {"run": _cmd_run, "show": _cmd_show, "baseline": _cmd_baseline}
    try:
        return commands[args.command](args)
    except (CampaignError, ConfigError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

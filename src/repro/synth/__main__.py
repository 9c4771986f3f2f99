"""CLI: ``python -m repro.synth`` — inspect and verify generated victims.

Subcommands:

* ``show --family jop --seed 3`` — print a generated program's
  assembly, its planned event stream and the oracle's verdicts.
* ``verify --seeds 8 [--cosim] [--out DIR]`` — sweep every family over
  a seed range on its ``synth-<family>`` reference (or cosim) cell,
  compare the oracle against the simulators for every policy, and
  minimize any disagreement into a reproducer JSON.

The campaign CLI (``python -m repro.campaign run --matrix synth``) is
the production entry point; this one is for poking at single programs
and for standalone oracle hunts.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional

from repro.campaign.cli import positive_int
from repro.campaign.spec import Scenario
from repro.synth import FAMILIES, FEATURES, bundle
from repro.synth.ir import emit_source
from repro.synth.triage import shrink_and_save
from repro.synth.verify import verify_model
from repro.system.addresses import AddressMap

#: Load address of every program this CLI builds (the host DRAM base).
BASE = AddressMap().dram_base


def _cmd_show(args: argparse.Namespace) -> int:
    features = tuple(args.feature or ())
    found = bundle(args.family, args.seed, BASE, features=features)
    if args.coverage:
        from repro.coverage.shape import shape_vector

        vector = shape_vector(found.model, program=found.program)
        if args.json:
            import json

            print(json.dumps(vector.to_json(), indent=2, sort_keys=True))
            return 0
        print(f"# coverage shape ({args.family}, seed {args.seed}): "
              f"{vector.digest}, {len(vector.points)} points")
        for axis, points in vector.axes().items():
            print(f"#   {axis}:")
            for point in points:
                print(f"#     {point}")
        return 0
    print(emit_source(found.model, BASE))
    print(f"# planned events ({args.family}, seed {args.seed}):")
    from repro.synth import plan_events

    for event in plan_events(found.model):
        extra = f" next={event.next}" if event.next else ""
        print(f"#   {event.kind:<6} @{event.site} -> {event.target}{extra}")
    print("# oracle verdicts:")
    for policy, verdict in found.expected.items():
        print(f"#   {policy:<14} {'DETECT' if verdict else 'pass'}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    backend = "cosim" if args.cosim else "reference"
    failures = 0
    for family in FAMILIES:
        cell = Scenario(victim=f"synth-{family}", backend=backend)
        for seed in range(args.seeds):
            found = bundle(family, seed, BASE)
            results = verify_model(found.model, cell)
            bad = {p: r for p, r in results.items() if r[0] != r[1]}
            if not bad:
                continue
            failures += len(bad)
            for policy, (oracle, simulated) in bad.items():
                print(f"DISAGREEMENT {family} seed={seed} policy={policy}: "
                      f"oracle={oracle} simulated={simulated}")
                path = shrink_and_save(
                    dataclasses.replace(cell, policy=policy), found.model,
                    (seed, "`python -m repro.synth verify`"),
                    Path(args.out), args.max_evals,
                )
                print(f"  reproducer: {path}")
    total = len(FAMILIES) * args.seeds
    print(f"verified {total} programs x all policies on {backend}: "
          f"{failures} disagreement(s)")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.synth",
        description="scenario synthesis: generate, inspect, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="print one generated program")
    show.add_argument("--family", default="benign", choices=FAMILIES)
    show.add_argument("--seed", type=int, default=0)
    show.add_argument("--feature", action="append", choices=FEATURES,
                      help="grow the program with a generator feature "
                           "(repeatable; e.g. recursion, tailcall)")
    show.add_argument("--coverage", action="store_true",
                      help="print the program's coverage shape vector "
                           "instead of its assembly")
    show.add_argument("--json", action="store_true",
                      help="with --coverage: machine-readable vector")

    verify = sub.add_parser("verify", help="oracle-vs-simulation sweep")
    verify.add_argument("--seeds", type=positive_int, default=8,
                        help="seeds per family (0..N-1)")
    verify.add_argument("--cosim", action="store_true",
                        help="verify on the cosim backend (slower)")
    verify.add_argument("--out", default="artifacts/synth",
                        help="reproducer output directory")
    verify.add_argument("--max-evals", type=positive_int, default=200,
                        help="shrink budget per disagreement")

    args = parser.parse_args(argv)
    if args.command == "show":
        return _cmd_show(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())

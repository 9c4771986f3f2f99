"""Command-line interface: ``python -m repro.campaign``.

Three subcommands:

* ``list`` — print the scenario matrix (name, expected verdict);
  ``--json`` emits one object per scenario with its canonical resolved
  spec, derived seed and stable spec hash, so the sweep service and
  external tooling can enumerate cells without importing internals.
* ``run`` — execute a matrix (sharded by ``--jobs``), write artifacts
  (``campaign.json``, ``campaign.csv``, streamed ``results.jsonl``) and
  print the detection-matrix report.  On a synthesized scenario whose
  simulated verdict contradicts the static oracle, the run fails *and*
  the disagreement is auto-minimized into a reproducer JSON under
  ``<out>/reproducers/`` (see :mod:`repro.synth.triage`).
* ``report`` — re-render the text report from a saved campaign.json,
  or diff two artifacts: ``report --compare old.json new.json`` prints
  detection-rate/latency deltas and per-scenario verdict flips (the
  cross-PR regression-tracking hook; both artifacts must carry the
  same ``schema_version`` stamp).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.campaign.aggregate import (
    compare_payloads,
    finalize,
    render_comparison,
    render_report,
    write_artifacts,
)
from repro.campaign.checkpoint import (
    MANIFEST_NAME,
    RESULTS_NAME,
    ResultLog,
    check_manifest,
    load_results,
    manifest_payload,
    write_manifest,
)
from repro.campaign.runner import run_campaign
from repro.campaign.spec import (
    VICTIMS,
    derive_seed,
    resolve_matrix,
    spec_key,
)
from repro.errors import ConfigError
from repro.system.sim import MODES

DEFAULT_OUT = Path("artifacts/campaign")

#: ``--jobs`` default bounds: at least MIN_JOBS so the default exercises
#: the sharded path, at most MAX_JOBS so a big CI box doesn't fork a
#: worker per core for a small matrix.  An explicit ``--jobs N`` is
#: taken literally (N >= 1; validated at parse time, never clamped).
MIN_DEFAULT_JOBS = 2
MAX_DEFAULT_JOBS = 8


def _default_jobs() -> int:
    return max(MIN_DEFAULT_JOBS, min(MAX_DEFAULT_JOBS, os.cpu_count() or 1))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _non_negative(kind):
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a {kind.__name__}")
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="TitanCFI attack/policy campaign engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="print the scenario matrix")
    # No argparse ``choices``: an unknown name must reach resolve_matrix,
    # whose typed ConfigError lists the registry (exit code 2, one line)
    # instead of argparse's unstructured usage dump.
    list_cmd.add_argument("--matrix", default="default")
    list_cmd.add_argument("--json", action="store_true", dest="as_json",
                          help="machine-readable listing: one object per "
                               "scenario with its canonical resolved spec, "
                               "derived seed and stable spec hash")
    list_cmd.add_argument("--seed", type=int, default=0,
                          help="campaign seed the derived per-scenario "
                               "seeds and spec hashes are computed for "
                               "(default: 0; --json only)")

    run_cmd = sub.add_parser("run", help="execute a scenario matrix")
    run_cmd.add_argument("--matrix", default="default")
    run_cmd.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="worker processes, >= 1 (1 = serial in-process fallback). "
             f"Default: CPU count clamped to "
             f"{MIN_DEFAULT_JOBS}..{MAX_DEFAULT_JOBS}; an explicit value "
             "is used as given, never clamped")
    run_cmd.add_argument("--seed", type=int, default=0,
                         help="campaign seed (per-scenario seeds derive from it)")
    run_cmd.add_argument("--sim-mode", default=None, choices=MODES,
                         help="co-simulator engine for cosim scenarios "
                              "(both are cycle-exact; default: batched)")
    run_cmd.add_argument("--out", type=Path, default=DEFAULT_OUT,
                         help=f"artifact directory (default: {DEFAULT_OUT})")
    run_cmd.add_argument("--no-artifacts", action="store_true",
                         help="skip writing artifacts (report only)")
    run_cmd.add_argument("--timeout", type=_non_negative(float), default=None,
                         help="per-scenario wall-clock bound in seconds "
                              "(jobs > 1): over-budget scenarios are "
                              "killed and recorded as status=timeout")
    run_cmd.add_argument("--retries", type=_non_negative(int), default=1,
                         help="re-attempts for scenarios that raise in a "
                              "shard before recording status=error "
                              "(default: 1)")
    run_cmd.add_argument("--backoff", type=_non_negative(float), default=0.5,
                         help="base retry delay in seconds, doubled per "
                              "attempt (default: 0.5)")
    run_cmd.add_argument("--resume", type=Path, default=None, metavar="OUT",
                         help="resume a killed campaign from OUT: completed "
                              "scenarios in its results.jsonl checkpoint "
                              "are kept, the remainder re-runs (the merged "
                              "artifacts equal an uninterrupted run)")

    report_cmd = sub.add_parser(
        "report", help="render a saved campaign.json (or diff two)"
    )
    report_cmd.add_argument("--artifact", type=Path,
                            default=DEFAULT_OUT / "campaign.json")
    report_cmd.add_argument("--compare", type=Path, nargs=2,
                            metavar=("OLD", "NEW"),
                            help="diff two campaign.json artifacts: "
                                 "detection-rate/latency deltas and "
                                 "verdict flips")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    scenarios = resolve_matrix(args.matrix)
    if args.as_json:
        listing = [
            {
                "name": scenario.name,
                "matrix": args.matrix,
                "expected_detected": scenario.expected_detected,
                "seed": derive_seed(args.seed, scenario),
                "spec_hash": spec_key(scenario, args.seed),
                "spec": scenario.canonical(),
            }
            for scenario in scenarios
        ]
        print(json.dumps(listing, indent=2))
        return 0
    width = max(len(s.name) for s in scenarios)
    for scenario in scenarios:
        verdict = "DETECT" if scenario.expected_detected else "pass"
        print(f"{scenario.name:<{width}}  expected={verdict}")
    print(f"\n{len(scenarios)} scenarios in matrix {args.matrix!r}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.resume is not None:
        if args.no_artifacts:
            raise ConfigError(
                "--resume needs the artifact checkpoint; it cannot be "
                "combined with --no-artifacts"
            )
        args.out = args.resume
    scenarios = resolve_matrix(args.matrix)
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    manifest = manifest_payload(args.matrix, args.seed, args.sim_mode,
                                len(scenarios))

    # Resume: keep the checkpoint's completed verdicts, re-run the rest.
    kept = []
    if args.resume is not None:
        check_manifest(str(args.out / MANIFEST_NAME), manifest)
        names = {scenario.name for scenario in scenarios}
        kept = [result for result in load_results(str(args.out / RESULTS_NAME))
                if result.get("status") == "ok" and result.get("name") in names]
        done = {result["name"] for result in kept}
        scenarios = [s for s in scenarios if s.name not in done]
        print(f"resuming: {len(done)} scenario(s) checkpointed, "
              f"{len(scenarios)} to run")

    stream = None
    result_log = None
    if not args.no_artifacts:
        args.out.mkdir(parents=True, exist_ok=True)
        write_manifest(str(args.out / MANIFEST_NAME), manifest)
        result_log = ResultLog(str(args.out / RESULTS_NAME))
        # Compact the checkpoint: kept rows first (dropping any non-ok
        # or torn tail rows), synced once, then the fresh results stream
        # in behind them, fsync'd each — killing *this* run keeps it
        # resumable (a kill mid-compaction leaves a torn prefix, and the
        # rows it lost simply re-run).
        for result in kept:
            result_log.append(result, sync=False)
        if kept:
            result_log.sync()
        stream = result_log.append

    try:
        payload = run_campaign(scenarios, jobs=jobs,
                               campaign_seed=args.seed, stream=stream,
                               sim_mode=args.sim_mode,
                               timeout=args.timeout, retries=args.retries,
                               backoff=args.backoff)
    finally:
        if result_log is not None:
            result_log.close()

    if kept:
        merged = sorted(payload["scenarios"] + kept, key=lambda r: r["name"])
        payload["scenarios"] = merged
        payload["scenario_count"] = len(merged)

    payload["matrix"] = args.matrix
    finalize(payload)
    if not args.no_artifacts:
        paths = write_artifacts(payload, args.out)
        print(f"artifacts: {paths['json']}  {paths['csv']}\n")
    print(render_report(payload))

    missed = payload["summary"]["counts"]["expectations_missed"]
    incomplete = sum(payload["summary"]["incomplete"].values())
    _triage_synth_disagreements(payload, args.out,
                                write=not args.no_artifacts)
    return 1 if missed or incomplete else 0


def _triage_synth_disagreements(payload, out: Path, write: bool) -> None:
    """Oracle-vs-simulation disagreements on synthesized scenarios are
    never dropped: shrink each to a minimal reproducer on disk (with
    ``--no-artifacts`` nothing is written — the disagreeing scenarios
    are named instead, honouring the flag's report-only contract)."""
    disagreements = [
        result for result in payload["scenarios"]
        if result.get("status", "ok") == "ok"
        and not result["expectation_met"]
        and VICTIMS[result["victim"]].synthetic
    ]
    if not disagreements:
        return
    print(f"\n{len(disagreements)} synth scenario(s) disagreed with the "
          "static oracle:")
    for result in disagreements:
        print(f"  {result['name']}")
    if not write:
        print("re-run without --no-artifacts to minimize each into a "
              "reproducer JSON")
        return
    from repro.synth.triage import triage_results
    from repro.system.addresses import AddressMap

    family_of = {
        name: spec.synth_family for name, spec in VICTIMS.items()
        if spec.synthetic
    }
    paths = triage_results(
        disagreements, out / "reproducers", family_of,
        AddressMap().dram_base,
    )
    print("minimized reproducers written to:")
    for path in paths:
        print(f"  {path}")
    print("commit the reproducer(s) under tests/synth/corpus/ alongside "
          "the fix so the tier-1 suite guards the regression")


def _cmd_report(args: argparse.Namespace) -> int:
    if args.compare:
        old, new = (json.loads(path.read_text()) for path in args.compare)
        print(render_comparison(compare_payloads(old, new)))
        return 0
    payload = json.loads(args.artifact.read_text())
    print(render_report(payload))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_report(args)
    except ConfigError as exc:
        # Typed configuration mistakes (unknown matrix name, bad spec)
        # come out as one actionable line, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Coverage-guided scenario synthesis: generate → measure → steer.

Walks the ``repro.coverage`` loop in a temporary directory, removed
when the demo ends:

1. run a bounded guided fuzz loop — uniform seeds first, then mutants
   of frontier (rare-point) corpus entries, every candidate simulated
   under every policy and checked against the static oracle;
2. inspect what the loop learned: the coverage map by axis and the
   content-addressed corpus of coverage-novel programs;
3. re-run the identical configuration into a second directory — every
   artifact must match byte for byte (the loop is a pure function of
   its config);
4. run the blind uniform-generation baseline at DOUBLE the iteration
   budget and watch the guided loop still win on distinct coverage.

Run:  python examples/coverage_demo.py
"""

import tempfile
from pathlib import Path

from repro.coverage import CoverageCorpus, FuzzConfig, fuzz, uniform_baseline
from repro.coverage.loop import CORPUS_DIR

ITERS = 60
SEED = 3


def artifact_bytes(root: Path) -> dict:
    return {
        name: (root / name).read_bytes()
        for name in ("fuzz.jsonl", "coverage.json", "campaign.json",
                     "campaign.csv", "corpus/index.json")
    }


def demo(root: Path) -> None:
    config = FuzzConfig(iterations=ITERS, seed=SEED)

    # 1. The guided loop: seed phase, then frontier-steered mutation.
    print(f"guided fuzz loop ({ITERS} candidates, seed {SEED}):")
    root_a = root / "a"
    summary = fuzz(root_a, config)
    print(f"  statuses: {summary['statuses']}")
    print(f"  distinct coverage points: {summary['distinct_points']} "
          f"({summary['observations']} observations)")
    print(f"  oracle disagreements: {summary['oracle_disagreements']}")
    assert summary["oracle_disagreements"] == 0

    # 2. What it learned, by axis, and what it kept.
    print("coverage by axis:")
    for axis, count in sorted(summary["by_axis"].items()):
        print(f"  {axis:<15} {count}")
    corpus = CoverageCorpus(root_a / CORPUS_DIR)
    print(f"corpus: {len(corpus)} coverage-novel programs "
          f"(content-addressed under {CORPUS_DIR}/objects/)")

    # 3. Determinism: same config, fresh directory, identical bytes.
    root_b = root / "b"
    fuzz(root_b, config)
    assert artifact_bytes(root_a) == artifact_bytes(root_b)
    print("re-run: every artifact byte-identical (journal, coverage map, "
          "campaign.json/csv, corpus index)")

    # 4. Blind generation with twice the budget still covers less.
    baseline = uniform_baseline(ITERS * 2, seed=SEED)
    print(f"uniform baseline at 2x budget ({ITERS * 2} candidates): "
          f"{baseline['distinct_points']} distinct points")
    assert summary["distinct_points"] > baseline["distinct_points"]
    print(f"guided loop wins: {summary['distinct_points']} > "
          f"{baseline['distinct_points']} distinct points at half the "
          "iteration budget")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="titancfi-coverage-") as root:
        demo(Path(root))


if __name__ == "__main__":
    main()

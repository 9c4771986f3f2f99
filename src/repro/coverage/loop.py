"""The coverage-guided steering loop: generate → measure → steer.

One fuzz **candidate** is either a uniform seed (the first
``len(families) × seeds_per_family`` iterations re-create exactly what
blind seed generation would draw) or a mutant: a parent is drawn from
the corpus frontier (rarest coverage shapes first), mutated through
:mod:`repro.coverage.mutate`, and kept only when its
:func:`~repro.coverage.shape.shape_vector` contributes a coverage point
the global :class:`~repro.coverage.shape.CoverageMap` has never seen.
Accepted candidates are oracle-checked and executed on the reference
backend under every oracle policy through the campaign runner's own
:func:`~repro.campaign.runner.reference_outcomes` (one capture, every
policy checked against it), and the verdict rows fold into a standard
``campaign.json``/``campaign.csv`` artifact pair.  A mutant is a model
like any other: :func:`repro.campaign.runner.simulate` runs it on any
single-hart cell.

Crash safety is write-ahead: each candidate's full record (model,
vector, verdict rows) is fsync'd into ``fuzz.jsonl`` (a
:class:`~repro.durable.AppendLog`) *before* its side effects
(coverage-map merge, corpus insert/evict) apply, and every side effect
is a deterministic, idempotent function of the journal prefix.
``kill -9`` at any instruction therefore loses at most one in-flight
candidate: resume replays the journal, reconverges the corpus tree
byte-for-byte, and continues — the finished run is identical to an
uninterrupted one (asserted by ``tests/coverage/test_fuzz.py``).

Everything is a pure function of ``(seed, iteration budget)``: per-
candidate RNGs derive from SHA-256 of ``(seed, index)`` (the campaign's
``derive_seed`` convention), no wall-clock enters any artifact, and
sharded evaluation (``jobs > 1``) folds worker results in submission
order.  A worker that dies mid-batch raises
:class:`~repro.errors.WorkerCrash` naming the batch's candidates; the
batch never reached the journal, so ``resume`` re-runs it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from repro.coverage.corpus import CoverageCorpus, model_digest
from repro.coverage.mutate import mutate
from repro.coverage.shape import CoverageMap, ShapeVector, shape_vector
from repro.durable import (
    AppendLog,
    atomic_write,
    check_manifest,
    read_log,
    write_manifest,
)
from repro.errors import ConfigError, SynthError, WorkerCrash
from repro.synth.generator import FAMILIES, generate
from repro.synth.ir import label_sets
from repro.synth.oracle import ORACLE_POLICIES, expected_verdicts

#: Loop-state file names inside a fuzz output directory.
JOURNAL_NAME = "fuzz.jsonl"
MANIFEST_NAME = "manifest.json"
MAP_NAME = "coverage.json"
CORPUS_DIR = "corpus"

#: Manifest identity stamp.
FUZZ_KIND = "repro.coverage/fuzz/v1"

#: Frontier draws sample among this many rarest corpus entries, so the
#: loop keeps breadth without losing its rarity bias.
FRONTIER_WIDTH = 4

#: Candidates per steering round.  Fixed — independent of ``jobs`` —
#: so the record stream, corpus and artifacts are identical whether a
#: round is evaluated serially or across shards (the campaign engine's
#: serial == sharded convention); ``jobs`` only sets worker count.
BATCH_WIDTH = 4

#: In the steering phase, every Nth candidate is a *fresh* uniform
#: seed rather than a mutant (AFL's havoc/import split): mutation
#: exploits the frontier, fresh seeds keep importing the generator's
#: cross-family diversity, and the guided stream therefore explores a
#: strict superset of what blind generation would.
FRESH_EVERY = 4


@dataclass(frozen=True)
class FuzzConfig:
    """A bounded fuzz run's identity (pinned by the manifest)."""

    iterations: int
    seed: int = 0
    families: Tuple[str, ...] = FAMILIES
    policies: Tuple[str, ...] = ORACLE_POLICIES
    seeds_per_family: int = 2
    corpus_max: int = 256
    jobs: int = 1
    max_steps: int = 400_000

    def manifest(self) -> Dict[str, object]:
        """The identity a resumable journal must match (the iteration
        budget is deliberately absent: a resume may extend it)."""
        return {
            "kind": FUZZ_KIND,
            "seed": self.seed,
            "families": list(self.families),
            "policies": list(self.policies),
            "seeds_per_family": self.seeds_per_family,
            "corpus_max": self.corpus_max,
        }

    @property
    def seed_count(self) -> int:
        return len(self.families) * self.seeds_per_family


def candidate_seed(campaign_seed: int, index: int,
                   salt: str = "cov") -> int:
    """Per-candidate RNG seed (the ``derive_seed`` hashing convention).

    ``salt`` separates independent draw streams of the same candidate
    (the parent draw must not correlate with the mutation draws).
    """
    digest = hashlib.sha256(
        f"{campaign_seed}:{salt}:{index}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "little")


# --------------------------------------------------------------------------
# Candidate evaluation (runs inside shard workers)
# --------------------------------------------------------------------------

def _result_rows(index: int, digest: str, family: str, model: dict,
                 program, vector: ShapeVector, config: FuzzConfig,
                 derived_seed: int) -> Tuple[List[dict], bool]:
    """Campaign-shaped verdict rows for an accepted candidate.

    Returns ``(rows, oracle_agreed)``; the identity columns (those of
    the ``cov-<family>`` reference cell) and the verdict columns both
    come from the campaign runner, so :mod:`repro.campaign.aggregate`
    folds them untouched.
    """
    from repro.campaign.runner import _identity_columns, reference_outcomes
    from repro.campaign.spec import Scenario

    # SynthError here if the image and the model's plan disagree.
    expected = expected_verdicts(model, program)
    outcomes = reference_outcomes(program, *label_sets(model),
                                  config.policies, config.max_steps)
    coverage = {
        "digest": vector.digest,
        "points": list(vector.points),
    }
    rows: List[dict] = []
    agreed = True
    for policy in config.policies:
        outcome = outcomes[policy]
        detected = bool(outcome["detected"])
        want = bool(expected[policy])
        agreed = agreed and detected == want
        scenario = Scenario(victim=f"cov-{family}", policy=policy,
                            max_cycles=config.max_steps, seed=derived_seed)
        rows.append({
            "status": "ok",
            **_identity_columns(scenario, derived_seed),
            "name": f"cov-{index:05d}-{digest}-{policy}",
            "expected_detected": want,
            "expected_source": "oracle",
            "expectation_met": detected == want,
            "coverage_points": len(vector.points),
            "coverage_digest": vector.digest,
            "coverage": coverage,
            **outcome,
        })
    return rows, agreed


def _evaluate_candidate(payload: dict) -> dict:
    """Shard worker: one candidate in, one journal record out.

    Pure function of its payload (parent model + index + config), so
    sharded runs fold identically to serial ones.
    """
    config = FuzzConfig(**payload["config"])
    index = payload["index"]
    rng_seed = candidate_seed(config.seed, index)
    import random

    rng = random.Random(rng_seed)
    record: Dict[str, object] = {
        "iteration": index,
        "parent": payload.get("parent_digest"),
        "mutator": None,
    }

    if payload.get("parent_model") is None:
        family = config.families[index % len(config.families)]
        model = generate(family, rng_seed)
    else:
        family = payload["family"]
        step = mutate(payload["parent_model"], rng)
        if step is None:
            record.update({"status": "no-mutation", "family": family})
            return record
        record["mutator"], model = step

    digest = model_digest(model)
    record.update({"digest": digest, "family": family})
    if digest in payload["known_digests"]:
        record["status"] = "duplicate"
        return record

    try:
        from repro.synth.verify import assemble_model

        program = assemble_model(model)
        vector = shape_vector(model, program=program)
    except SynthError as exc:
        record.update({"status": "invalid", "error": str(exc)})
        return record

    record["vector"] = vector.to_json()
    if not payload["novel_probe"](vector):
        record["status"] = "non-novel"
        return record

    rows, agreed = _result_rows(index, digest, family, model, program,
                                vector, config, rng_seed)
    record.update({
        "status": "accepted",
        "model": model,
        "oracle_agreed": agreed,
        "results": rows,
    })
    return record


def _worker(payload: dict) -> dict:
    """Process-pool entry point (novelty re-probed against the shipped
    point set, since the live map stays in the parent)."""
    known_points = set(payload.pop("known_points"))
    payload["novel_probe"] = lambda vector: any(
        point not in known_points for point in vector.points
    )
    return _evaluate_candidate(payload)


# --------------------------------------------------------------------------
# Journal replay (the single source of truth)
# --------------------------------------------------------------------------

def _apply(record: dict, coverage: CoverageMap,
           corpus: CoverageCorpus) -> None:
    """Apply one journal record's side effects (idempotent)."""
    vector_json = record.get("vector")
    if vector_json is None:
        return
    vector = ShapeVector.from_json(vector_json)
    if record["status"] == "accepted":
        new_points = coverage.novelty(vector)
        coverage.merge(vector)
        corpus.add(
            record["model"], vector, family=record["family"],
            iteration=record["iteration"],
            lineage=[record["parent"]] if record.get("parent") else [],
            new_points=new_points,
        )
    else:
        coverage.merge(vector)


def _load_state(out: Path, config: FuzzConfig,
                resume: bool) -> Tuple[List[dict], CoverageMap, CoverageCorpus]:
    """Rebuild (journal, map, corpus) from disk; fresh when empty.

    A resume restarts from the last *aligned* batch boundary: every
    candidate in a :data:`BATCH_WIDTH` batch is evaluated against the
    novelty/frontier snapshot taken at the batch's start, so records
    past the boundary were produced from a state a mid-batch resume
    could not reconstruct.  They are deterministic re-computations
    anyway — the journal is truncated back to the boundary (same
    serialization, so surviving bytes are untouched) and at most
    ``BATCH_WIDTH - 1`` candidates re-run.
    """
    journal_path = out / JOURNAL_NAME
    manifest_path = out / MANIFEST_NAME
    if resume:
        check_manifest(manifest_path, config.manifest())
    records = read_log(journal_path) if resume else []
    for index, record in enumerate(records):
        if record.get("iteration") != index:
            raise ConfigError(
                f"{journal_path}: journal iteration {record.get('iteration')}"
                f" at line {index + 1} — not a fuzz journal we wrote"
            )
    aligned = (len(records) // BATCH_WIDTH) * BATCH_WIDTH
    dropped = records[aligned:]
    records = records[:aligned]
    if dropped:
        atomic_write(journal_path, "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        ))
    coverage = CoverageMap()
    corpus = CoverageCorpus(out / CORPUS_DIR, max_entries=config.corpus_max)
    kept = {r["digest"] for r in records if r.get("status") == "accepted"}
    # Entries past the truncation point (or orphaned by an earlier
    # crash between truncate and cleanup) are recomputed identically
    # when their batch re-runs; drop them so replay reconverges.  A
    # genuinely foreign directory is caught by the manifest check.
    stale = set(corpus.digests()) - kept
    for digest in stale:
        (corpus.root / "objects" / f"{digest}.json").unlink(missing_ok=True)
    corpus.begin_replay()
    for record in records:
        _apply(record, coverage, corpus)
    return records, coverage, corpus


# --------------------------------------------------------------------------
# The loop
# --------------------------------------------------------------------------

def _draw_parent(rng_seed: int, coverage: CoverageMap,
                 corpus: CoverageCorpus) -> dict:
    """Deterministic frontier draw: one of the rarest corpus entries."""
    import random

    frontier = coverage.frontier(corpus.vectors(), k=FRONTIER_WIDTH)
    choice = random.Random(rng_seed).randrange(len(frontier))
    return corpus.get(frontier[choice])


def _campaign_payload(records: List[dict], config: FuzzConfig) -> dict:
    """Fold journal verdict rows into a campaign artifact payload."""
    from repro.campaign.aggregate import finalize
    from repro.campaign.runner import RESULT_SCHEMA

    rows: List[dict] = []
    for record in records:
        # Canonical key order: journal round-trips store rows with
        # sorted keys, fresh records carry construction order — the
        # artifact must not depend on which path a row took.
        rows.extend(
            {key: row[key] for key in sorted(row)}
            for row in record.get("results") or []
        )
    payload = {
        "schema": RESULT_SCHEMA,
        "matrix": "coverage-fuzz",
        "campaign_seed": config.seed,
        # Worker count is an execution knob, not part of the run's
        # identity — the artifact must not depend on it.
        "jobs": None,
        "sim_mode": None,
        "scenario_count": len(rows),
        "scenarios": sorted(rows, key=lambda row: row["name"]),
    }
    finalize(payload)
    return payload


def _summary(records: List[dict], coverage: CoverageMap,
             corpus: CoverageCorpus) -> dict:
    statuses: Dict[str, int] = {}
    for record in records:
        statuses[record["status"]] = statuses.get(record["status"], 0) + 1
    return {
        "iterations": len(records),
        "statuses": dict(sorted(statuses.items())),
        "accepted": statuses.get("accepted", 0),
        "distinct_points": len(coverage),
        "observations": coverage.observations,
        "by_axis": coverage.by_axis(),
        "corpus_size": len(corpus),
        "oracle_disagreements": sum(
            1 for record in records
            if record.get("status") == "accepted"
            and not record.get("oracle_agreed", True)
        ),
    }


def fuzz(out, config: FuzzConfig, resume: bool = False) -> dict:
    """Run (or resume) a bounded coverage-guided fuzz loop.

    Returns the run summary; on disk, ``out`` holds the journal, the
    coverage map, the content-addressed corpus and the folded
    ``campaign.json``/``campaign.csv`` artifacts.
    """
    if config.jobs < 1:
        raise ConfigError("jobs must be >= 1")
    if config.seeds_per_family < 0:
        raise ConfigError("seeds_per_family must be >= 0")
    if config.iterations < config.seed_count:
        raise ConfigError(
            f"iteration budget {config.iterations} cannot cover the "
            f"{config.seed_count} uniform seed candidates"
        )
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    records, coverage, corpus = _load_state(out, config, resume)
    write_manifest(out / MANIFEST_NAME, config.manifest())

    pool = None
    if config.jobs > 1:
        import multiprocessing
        from concurrent.futures.process import (
            BrokenProcessPool,
            ProcessPoolExecutor,
        )

        # Not multiprocessing.Pool: its map waits forever on a dead
        # worker, where this executor breaks and raises.
        pool = ProcessPoolExecutor(
            config.jobs, mp_context=multiprocessing.get_context("fork"))
    journal = AppendLog(out / JOURNAL_NAME, append=True)
    try:
        while len(records) < config.iterations:
            batch_lo = len(records)
            batch = range(
                batch_lo, min(batch_lo + BATCH_WIDTH, config.iterations),
            )
            known_digests = list(corpus.digests())
            known_points = sorted(coverage.to_json()["points"])
            payloads = []
            for index in batch:
                payload: Dict[str, object] = {
                    "index": index,
                    "config": dict(config.__dict__),
                    "known_digests": known_digests,
                    "known_points": known_points,
                }
                steering = index >= config.seed_count
                fresh = steering and \
                    (index - config.seed_count) % FRESH_EVERY == FRESH_EVERY - 1
                if steering and not fresh and len(corpus):
                    parent = _draw_parent(
                        candidate_seed(config.seed, index, salt="parent"),
                        coverage, corpus,
                    )
                    payload.update({
                        "parent_model": parent["model"],
                        "parent_digest": parent["digest"],
                        "family": parent["family"],
                    })
                else:
                    payload.update({"parent_model": None})
                payloads.append(payload)

            if pool is not None:
                try:
                    batch_records = list(pool.map(_worker, payloads))
                except BrokenProcessPool:
                    raise WorkerCrash(
                        f"fuzz candidates {batch.start}..{batch.stop - 1}"
                    ) from None
            else:
                batch_records = [_worker(payload) for payload in payloads]

            # WAL discipline, amortized: every record of the round is
            # durable (single fsync) before any side effect applies.
            for record in batch_records:
                journal.append(record, sync=False)
            journal.sync()
            for record in batch_records:
                _apply(record, coverage, corpus)
                records.append(record)
            atomic_write(
                out / MAP_NAME,
                json.dumps(coverage.to_json(), indent=2, sort_keys=True)
                + "\n",
            )
    finally:
        journal.close()
        if pool is not None:
            pool.shutdown()

    from repro.campaign.aggregate import write_artifacts

    payload = _campaign_payload(records, config)
    write_artifacts(payload, out)
    atomic_write(
        out / MAP_NAME,
        json.dumps(coverage.to_json(), indent=2, sort_keys=True) + "\n",
    )
    return _summary(records, coverage, corpus)


# --------------------------------------------------------------------------
# The uniform-generation baseline (what PR 5 sweeps do today)
# --------------------------------------------------------------------------

def uniform_baseline(iterations: int, seed: int = 0,
                     families: Tuple[str, ...] = FAMILIES,
                     policies: Tuple[str, ...] = ORACLE_POLICIES,
                     max_steps: int = 400_000) -> dict:
    """Blind seed sweep with the same measurement pipeline.

    Generates ``iterations`` programs uniformly (family round-robin,
    hashed per-candidate seeds — exactly the guided loop's seeding
    phase continued forever), simulates every one under every policy
    (what a seed-sweep campaign pays today), and accumulates the same
    coverage map.  The committed comparison test
    (``tests/coverage/test_fuzz.py``) measures the guided loop against
    this.
    """
    from repro.campaign.runner import reference_outcomes
    from repro.synth.verify import assemble_model

    coverage = CoverageMap()
    disagreements = 0
    for index in range(iterations):
        family = families[index % len(families)]
        model = generate(family, candidate_seed(seed, index))
        program = assemble_model(model)
        vector = shape_vector(model, program=program)
        coverage.merge(vector)
        expected = expected_verdicts(model, program)
        outcomes = reference_outcomes(program, *label_sets(model), policies,
                                      max_steps)
        disagreements += sum(
            1 for policy in policies
            if bool(outcomes[policy]["detected"]) != bool(expected[policy])
        )
    return {
        "iterations": iterations,
        "distinct_points": len(coverage),
        "observations": coverage.observations,
        "by_axis": coverage.by_axis(),
        "oracle_disagreements": disagreements,
        "coverage": coverage,
    }

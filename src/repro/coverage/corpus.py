"""Persistent content-addressed corpus of coverage-novel programs.

The fuzz loop's seed pool: every accepted mutant lands here as one JSON
record addressed by the SHA-256 of its canonical model text (the same
hashing convention :mod:`repro.service.store` applies to sweep specs).
Layout::

    <root>/index.json            # schema stamp + digests, insertion order
    <root>/objects/<digest>.json # {model, vector, lineage, ...}

All writes are durable-atomic (temp + fsync + rename, through
:func:`repro.durable.atomic_write`), so a ``kill -9`` mid-write leaves
either the old corpus or the new one — never a torn record — and the
resume path replays cleanly.

Eviction is deterministic: past ``max_entries``, the oldest entry whose
every coverage point is still held by some other resident entry is
dropped first (it is redundant feedback); if every entry holds a unique
point, plain FIFO applies.  Two runs that add the same sequence of
models therefore hold bit-identical corpora, regardless of crashes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.coverage.shape import ShapeVector
from repro.durable import atomic_write
from repro.errors import ConfigError, StoreCorruptError

#: Corpus record/index schema stamp.
CORPUS_SCHEMA_VERSION = 1

#: Hex digits of the model content address (mirrors the sweep store).
DIGEST_LEN = 16


def model_digest(model: dict) -> str:
    """Content address of a model: SHA-256 of its canonical JSON."""
    text = json.dumps(model, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_LEN]


class CoverageCorpus:
    """Content-addressed on-disk pool of coverage-novel models."""

    def __init__(self, root, max_entries: int = 256):
        if max_entries < 1:
            raise ConfigError("corpus max_entries must be >= 1")
        self.root = Path(root)
        self.max_entries = max_entries
        self._objects = self.root / "objects"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._index = self.root / "index.json"
        self._digests: List[str] = self._load_index()
        # Read-through record cache: frontier ranking walks the whole
        # corpus every steering round, which must not mean re-parsing
        # every object file from disk each time.
        self._cache: Dict[str, dict] = {}

    # -- persistence -------------------------------------------------------

    def _load_index(self) -> List[str]:
        if not self._index.exists():
            return []
        try:
            payload = json.loads(self._index.read_text())
        except json.JSONDecodeError as exc:
            raise StoreCorruptError(str(self._index),
                                    f"index unreadable: {exc}")
        if payload.get("schema_version") != CORPUS_SCHEMA_VERSION:
            raise StoreCorruptError(
                str(self._index),
                f"corpus schema {payload.get('schema_version')!r} "
                f"!= {CORPUS_SCHEMA_VERSION}",
            )
        return list(payload["entries"])

    def _write_index(self) -> None:
        payload = {
            "schema_version": CORPUS_SCHEMA_VERSION,
            "entries": self._digests,
        }
        atomic_write(self._index,
                     json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def _path(self, digest: str) -> Path:
        return self._objects / f"{digest}.json"

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._digests)

    def __contains__(self, digest: str) -> bool:
        return digest in self._digests

    def digests(self) -> Tuple[str, ...]:
        """Resident content addresses, insertion order."""
        return tuple(self._digests)

    def get(self, digest: str) -> dict:
        """Load one record; raises on unknown or torn entries."""
        if digest not in self._digests:
            raise ConfigError(f"unknown corpus entry {digest!r}")
        if digest in self._cache:
            return self._cache[digest]
        path = self._path(digest)
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreCorruptError(str(path), f"entry unreadable: {exc}")
        self._cache[digest] = record
        return record

    def entries(self) -> Iterator[dict]:
        """All resident records, insertion order."""
        for digest in self._digests:
            yield self.get(digest)

    def vectors(self) -> List[Tuple[str, ShapeVector]]:
        """(digest, vector) pairs for frontier ranking, insertion order."""
        return [
            (record["digest"], ShapeVector.from_json(record["vector"]))
            for record in self.entries()
        ]

    # -- mutation ----------------------------------------------------------

    def begin_replay(self) -> None:
        """Forget the in-memory index so a journal replay rebuilds it.

        Insertion order drives eviction, so a resume must reconstruct
        the corpus from the authoritative journal rather than trust the
        (possibly mid-eviction) on-disk index; replayed ``add`` calls
        rewrite every object and the index with identical bytes.
        """
        self._digests = []
        self._cache = {}
        self._write_index()

    def add(self, model: dict, vector: ShapeVector, *, family: str,
            iteration: int, lineage: Sequence[str] = (),
            new_points: Sequence[str] = ()) -> dict:
        """Insert a model (idempotent per content address) and evict.

        ``lineage`` names the parent digests the mutant derives from —
        the corpus doubles as a provenance log for triage.  Returns the
        stored record.
        """
        digest = model_digest(model)
        if digest in self._digests:
            return self.get(digest)
        record = {
            "schema_version": CORPUS_SCHEMA_VERSION,
            "digest": digest,
            "family": family,
            "iteration": iteration,
            "lineage": list(lineage),
            "new_points": sorted(new_points),
            "model": model,
            "vector": vector.to_json(),
        }
        atomic_write(self._path(digest),
                     json.dumps(record, indent=2, sort_keys=True) + "\n")
        self._digests.append(digest)
        self._cache[digest] = record
        self._evict()
        self._write_index()
        return record

    def _evict(self) -> None:
        """Deterministic eviction down to ``max_entries``."""
        while len(self._digests) > self.max_entries:
            held: Dict[str, List[str]] = {}
            for digest, vector in self.vectors():
                for point in vector.points:
                    held.setdefault(point, []).append(digest)
            victim: Optional[str] = None
            for digest, vector in self.vectors():
                if all(len(held[point]) > 1 for point in vector.points):
                    victim = digest
                    break
            if victim is None:
                victim = self._digests[0]
            self._digests.remove(victim)
            self._cache.pop(victim, None)
            self._path(victim).unlink(missing_ok=True)

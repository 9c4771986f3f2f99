"""Content-addressed result store for the sweep service.

Every executed campaign cell is stored once, under a composite key:

* the **spec hash** (:func:`repro.campaign.spec.spec_key`) — a SHA-256
  of the fully-resolved, canonicalised scenario spec plus the derived
  per-scenario seed, stable under dict ordering and equivalent-spec
  round-trips;
* the **code fingerprint** (:func:`code_fingerprint`) — a SHA-256 over
  the ``repro`` source tree and its calibration tables, so any code
  change invalidates every cached result at once (results are
  functions of code *and* spec).

Layout (all writes go through :func:`repro.durable.atomic_write`:
temp file + fsync + rename, with a deterministic temp name, so a
``kill -9`` can never leave a torn object and interrupted sweeps
converge to a store bit-identical to an uninterrupted run)::

    <root>/
      versions.json                      # code versions, first-seen order
      objects/<code_version>/<spec_hash>.json

Object payloads are ``schema_version: 1`` JSON written with sorted keys
and fixed indentation — the same cell stored by any run, in any order,
on any machine produces identical bytes.  Nothing in the store carries
wall-clock time.

:meth:`ResultStore.resolve` is the incremental-sweep primitive: it
splits a matrix into cached rows and missing scenarios, counting hits,
misses and *invalidations* (cells cached under a different code
version) so every sweep artifact can report exactly what it reused.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.campaign.spec import Scenario, spec_key
from repro.durable import atomic_write
from repro.errors import StoreCorruptError

#: Store object schema version (bumped on breaking layout changes).
STORE_SCHEMA_VERSION = 1

#: Hex digits of the code fingerprint used in paths/keys (a SHA-256
#: prefix; 16 hex digits = 64 bits, far beyond collision risk for the
#: handful of code versions a store ever holds).
FINGERPRINT_LEN = 16

#: Package data that results depend on, relative to the package root:
#: the policy host's committed calibration tables.
_DATA_FILES = ("policyhost/calibration_tables.json",)

_fingerprint_cache: Dict[str, str] = {}


def code_fingerprint(root: Optional[Path] = None) -> str:
    """Fingerprint of the ``repro`` source tree (memoised per path).

    SHA-256 over every ``*.py`` file and every ``_DATA_FILES`` entry
    under ``root`` (default: the installed :mod:`repro` package), hashed
    as sorted ``(relative path, content digest)`` pairs — so renames,
    deletions and edits all change the fingerprint, while mtimes and
    ``.pyc`` artifacts cannot.
    """
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    root = Path(root)
    cached = _fingerprint_cache.get(str(root))
    if cached is not None:
        return cached
    data = [root / name for name in _DATA_FILES if (root / name).is_file()]
    digest = hashlib.sha256()
    for path in sorted([*root.rglob("*.py"), *data]):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    fingerprint = digest.hexdigest()[:FINGERPRINT_LEN]
    _fingerprint_cache[str(root)] = fingerprint
    return fingerprint


class ResultStore:
    """Content-addressed store of campaign cell results.

    Args:
        root: store directory (created on first write).
        code_version: code fingerprint override — tests use it to
            simulate old code versions; production callers leave it to
            :func:`code_fingerprint`.
    """

    def __init__(self, root, code_version: Optional[str] = None):
        self.root = Path(root)
        self.code_version = code_version or code_fingerprint()

    # -- paths ------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def versions_path(self) -> Path:
        return self.root / "versions.json"

    def object_path(self, key: str,
                    code_version: Optional[str] = None) -> Path:
        return (self.objects_dir / (code_version or self.code_version)
                / f"{key}.json")

    # -- keys -------------------------------------------------------------

    def key(self, scenario: Scenario, campaign_seed: int = 0) -> str:
        """The scenario half of the store key (see :func:`spec_key`)."""
        return spec_key(scenario, campaign_seed)

    # -- code-version bookkeeping -----------------------------------------

    def versions(self) -> List[str]:
        """Code versions ever written, in first-seen order."""
        if not self.versions_path.exists():
            return []
        try:
            listed = json.loads(self.versions_path.read_text())
        except json.JSONDecodeError as exc:
            raise StoreCorruptError(str(self.versions_path), str(exc))
        if not isinstance(listed, list):
            raise StoreCorruptError(str(self.versions_path),
                                    "version index is not a list")
        return [str(version) for version in listed]

    def _register_version(self) -> None:
        versions = self.versions()
        if self.code_version not in versions:
            versions.append(self.code_version)
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write(self.versions_path,
                         json.dumps(versions, indent=2) + "\n")

    # -- object IO --------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored record for ``key`` under the current code version,
        or ``None``.  A present-but-unparsable object raises
        :class:`~repro.errors.StoreCorruptError` (the write path is
        atomic, so corruption is never ours)."""
        path = self.object_path(key)
        if not path.exists():
            return None
        return self.get_path(path)

    def get_path(self, path: Path) -> Dict[str, object]:
        """Load and validate a store object by path."""
        try:
            record = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise StoreCorruptError(str(path), str(exc))
        for field in ("schema_version", "spec_hash", "code_version",
                      "name", "spec", "result"):
            if field not in record:
                raise StoreCorruptError(str(path), f"missing {field!r}")
        if record["schema_version"] != STORE_SCHEMA_VERSION:
            raise StoreCorruptError(
                str(path),
                f"schema_version {record['schema_version']!r}, "
                f"this build reads {STORE_SCHEMA_VERSION}",
            )
        return record

    def put(self, scenario: Scenario, campaign_seed: int,
            result: Dict[str, object]) -> Path:
        """Store one ``status == "ok"`` result row durably; returns the
        object path.  Idempotent: re-storing the same cell writes
        identical bytes."""
        key = self.key(scenario, campaign_seed)
        record = {
            "schema_version": STORE_SCHEMA_VERSION,
            "spec_hash": key,
            "code_version": self.code_version,
            "name": scenario.name,
            "spec": scenario.canonical(),
            "result": result,
        }
        path = self.object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._register_version()
        atomic_write(path, json.dumps(record, indent=2, sort_keys=True) + "\n")
        return path

    def invalidated(self, key: str) -> bool:
        """True when ``key`` exists under some *other* code version —
        a cached result a code change just invalidated."""
        if not self.objects_dir.exists():
            return False
        for version_dir in self.objects_dir.iterdir():
            if version_dir.name == self.code_version:
                continue
            if (version_dir / f"{key}.json").exists():
                return True
        return False

    # -- sweep resolution -------------------------------------------------

    def resolve(
        self, scenarios: Sequence[Scenario], campaign_seed: int = 0,
    ) -> Tuple[Dict[str, Dict[str, object]], List[Scenario], Dict[str, int]]:
        """Split a matrix against the store.

        Returns ``(hits, missing, stats)``: cached result rows keyed by
        scenario name, the scenarios that must execute, and the
        hit/miss/invalidation accounting::

            {"cells": N, "hits": H, "misses": M, "invalidated": I}

        ``invalidated`` counts the subset of misses whose key exists
        under a different code version (``invalidated <= misses``).
        """
        hits: Dict[str, Dict[str, object]] = {}
        missing: List[Scenario] = []
        invalidated = 0
        for scenario in scenarios:
            key = self.key(scenario, campaign_seed)
            record = self.get(key)
            if record is not None:
                hits[scenario.name] = record["result"]
            else:
                if self.invalidated(key):
                    invalidated += 1
                missing.append(scenario)
        stats = {
            "cells": len(scenarios),
            "hits": len(hits),
            "misses": len(missing),
            "invalidated": invalidated,
        }
        return hits, missing, stats

    # -- maintenance ------------------------------------------------------

    def iter_records(self, code_version: Optional[str] = None,
                     ) -> Iterator[Dict[str, object]]:
        """Yield every stored record for ``code_version`` (default: the
        current one), in spec-hash order (deterministic)."""
        version_dir = self.objects_dir / (code_version or self.code_version)
        if not version_dir.exists():
            return
        for path in sorted(version_dir.glob("*.json")):
            record = self.get_path(path)
            yield record

    def count(self, code_version: Optional[str] = None) -> int:
        version_dir = self.objects_dir / (code_version or self.code_version)
        if not version_dir.exists():
            return 0
        return sum(1 for _ in version_dir.glob("*.json"))

    def gc(self) -> Dict[str, object]:
        """Drop every object cached under a non-current code version
        (they can never hit again) and compact the version index.

        Returns ``{"removed_objects": N, "removed_versions": [...]}``.
        """
        removed_objects = 0
        removed_versions: List[str] = []
        if self.objects_dir.exists():
            for version_dir in sorted(self.objects_dir.iterdir()):
                if version_dir.name == self.code_version:
                    continue
                for path in version_dir.glob("*.json"):
                    path.unlink()
                    removed_objects += 1
                for stray in version_dir.iterdir():
                    stray.unlink()
                version_dir.rmdir()
                removed_versions.append(version_dir.name)
        survivors = [version for version in self.versions()
                     if version not in removed_versions]
        if removed_versions and survivors:
            atomic_write(self.versions_path,
                         json.dumps(survivors, indent=2) + "\n")
        elif removed_versions and self.versions_path.exists():
            atomic_write(self.versions_path, json.dumps([], indent=2) + "\n")
        return {"removed_objects": removed_objects,
                "removed_versions": removed_versions}

"""Crash-safe files: atomic whole-file writes and fsync'd JSONL logs.

Every durable byte the package writes goes through this module: the
campaign checkpoint, the sweep service's journal and result store, and
the coverage fuzz loop's write-ahead log and corpus.

* :func:`atomic_write` writes a temp file with a deterministic name,
  fsyncs it and renames it over the target: a ``kill -9`` leaves the
  old bytes or the new, and a retry overwrites an interrupted temp.
* :class:`AppendLog` appends one sorted-key JSON object per line.
  :func:`read_log` drops an unterminated final line (a crash
  mid-append can damage nothing else) and raises
  :class:`~repro.errors.StoreCorruptError` on any other bad line.
  Lines are ASCII-escaped, so a torn tail never splits a character.

``os.fsync`` is called through the ``os`` module, so a probe patched
onto it sees every sync.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from repro.errors import ConfigError, StoreCorruptError


def atomic_write(path, text: str) -> None:
    """Durably replace ``path`` with ``text`` (temp + fsync + rename)."""
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class AppendLog:
    """Append-only JSONL log; a record is on disk once it is synced.

    ``append=False`` starts the log empty.  ``append=True`` continues
    it, first cutting off a torn final line (which :func:`read_log`
    ignores) so the next record starts a line of its own.
    """

    def __init__(self, path, append: bool = False):
        self.path = path
        self._fh = open(path, "ab+" if append else "wb")
        end = self._fh.seek(0, os.SEEK_END)
        if append and end:
            self._fh.seek(end - 1)
            if self._fh.read(1) != b"\n":
                self._fh.seek(0)
                self._fh.truncate(self._fh.read().rfind(b"\n") + 1)

    def append(self, record: Dict[str, object], sync: bool = True) -> None:
        self._fh.write(json.dumps(record, sort_keys=True).encode() + b"\n")
        if sync:
            self.sync()

    def sync(self) -> None:
        """Force every appended record to disk."""
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "AppendLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_log(path) -> List[Dict[str, object]]:
    """Every complete record of the log at ``path`` (none if absent)."""
    try:
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
    except FileNotFoundError:
        return []
    lines.pop()  # the unterminated tail: empty unless an append was torn
    records: List[Dict[str, object]] = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise StoreCorruptError(str(path), f"line {lineno}: {exc}") from None
    return records


def write_manifest(path, manifest: Dict[str, object]) -> None:
    """Write the identity a resumable directory is valid against."""
    atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def check_manifest(path, manifest: Dict[str, object]) -> None:
    """Refuse to resume a directory written for another identity."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            on_disk = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no manifest — not a resumable directory") from None
    except ValueError as exc:
        raise StoreCorruptError(str(path), str(exc)) from None
    mismatched = sorted(key for key in manifest if on_disk.get(key) != manifest[key])
    if mismatched:
        detail = ", ".join(
            f"{key}: checkpoint={on_disk.get(key)!r} run={manifest[key]!r}"
            for key in mismatched
        )
        raise ConfigError(f"resume mismatch ({detail})")

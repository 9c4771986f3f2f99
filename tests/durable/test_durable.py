"""Crash-point properties of ``repro.durable``.

A crash can stop a log append at any byte and an atomic write at any
step.  These tests cut logs at arbitrary offsets and fail renames, and
check that what readers and the next writer see is exactly the data
that was durable.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durable import (
    AppendLog,
    atomic_write,
    check_manifest,
    read_log,
    write_manifest,
)
from repro.errors import ConfigError, StoreCorruptError

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

scalars = st.one_of(st.integers(), st.text(max_size=8), st.booleans(),
                    st.none())
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3),
                      max_leaves=6)
records = st.dictionaries(st.text(max_size=6), values, max_size=4)
logs = st.lists(records, min_size=1, max_size=4)


def _write_log(path, rows):
    with AppendLog(path) as log:
        for row in rows:
            log.append(row, sync=False)  # durability is not under test
    return path.read_bytes()


def _complete(blob, rows, cut):
    """The records whose whole line, newline included, lies in
    ``blob[:cut]``."""
    return rows[:blob[:cut].count(b"\n")]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("durable")


class TestTornTail:
    @PROPERTY
    @given(rows=logs, data=st.data())
    def test_truncation_reads_back_the_complete_records(self, scratch, rows,
                                                        data):
        path = scratch / "torn.jsonl"
        blob = _write_log(path, rows)
        cut = data.draw(st.integers(0, len(blob)), label="cut")
        path.write_bytes(blob[:cut])
        assert read_log(path) == _complete(blob, rows, cut)

    @PROPERTY
    @given(rows=logs, extra=records, data=st.data())
    def test_append_after_truncation_continues_the_log(self, scratch, rows,
                                                       extra, data):
        """Reopening for append cuts the torn tail, so the next record
        is never glued onto it (and lost, or read as corruption)."""
        path = scratch / "resumed.jsonl"
        blob = _write_log(path, rows)
        cut = data.draw(st.integers(0, len(blob)), label="cut")
        path.write_bytes(blob[:cut])
        with AppendLog(path, append=True) as log:
            log.append(extra, sync=False)
        assert read_log(path) == _complete(blob, rows, cut) + [extra]

    @PROPERTY
    @given(rows=logs)
    def test_log_bytes_are_ascii(self, scratch, rows):
        """A torn tail can never split a UTF-8 sequence."""
        blob = _write_log(scratch / "ascii.jsonl", rows)
        assert blob.isascii()
        assert blob.count(b"\n") == len(rows)

    def test_round_trips(self, tmp_path):
        path = tmp_path / "results.jsonl"
        rows = [{"name": f"s{i}", "status": "ok", "detected": bool(i % 2)}
                for i in range(5)]
        _write_log(path, rows)
        assert read_log(path) == rows

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "results.jsonl"
        _write_log(path, [{"name": "a", "status": "ok"},
                          {"name": "b", "status": "ok"}])
        with open(path, "a") as fh:
            fh.write('{"name": "c", "stat')  # killed mid-write
        assert [r["name"] for r in read_log(path)] == ["a", "b"]

    def test_missing_file_is_empty(self, tmp_path):
        assert read_log(tmp_path / "absent.jsonl") == []

    def test_sync_false_defers_to_one_sync(self, tmp_path, monkeypatch):
        syncs = []
        fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: syncs.append(fsync(fd)))
        with AppendLog(tmp_path / "batch.jsonl") as log:
            for n in range(3):
                log.append({"n": n}, sync=False)
            log.sync()
        assert len(syncs) == 1
        assert read_log(tmp_path / "batch.jsonl") == [{"n": 0}, {"n": 1},
                                                       {"n": 2}]


class TestCorruption:
    @pytest.mark.parametrize("bad", [b"not json", b"{\"a\": \"\xff\"}"])
    def test_corrupt_interior_line_raises(self, tmp_path, bad):
        path = tmp_path / "results.jsonl"
        path.write_bytes(b'{"name": "a"}\n' + bad + b'\n{"name": "b"}\n')
        with pytest.raises(StoreCorruptError, match="line 2: ") as err:
            read_log(path)
        assert err.value.path == str(path)

    def test_bad_final_line_with_its_newline_is_corruption(self, tmp_path):
        """Only a missing newline marks a torn append."""
        path = tmp_path / "results.jsonl"
        path.write_bytes(b'{"name": "a"}\nnot json\n')
        with pytest.raises(StoreCorruptError, match="line 2: "):
            read_log(path)


class TestAtomicWrite:
    def test_failed_rename_keeps_old_bytes_and_retry_leaves_no_temp(
            self, tmp_path, monkeypatch):
        target = tmp_path / "versions.json"
        atomic_write(target, "old\n")
        replace = os.replace
        calls = []

        def fail_once(src, dst):
            calls.append(src)
            if len(calls) == 1:
                raise OSError("simulated crash before the rename")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_once)
        with pytest.raises(OSError):
            atomic_write(target, "new\n")
        assert target.read_text() == "old\n"
        atomic_write(target, "new\n")
        assert target.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["versions.json"]


class TestManifest:
    MANIFEST = {"matrix": "smoke", "campaign_seed": 0, "sim_mode": None,
                "scenario_count": 10}

    def test_manifest_mismatch_refused(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, self.MANIFEST)
        assert json.loads(path.read_text()) == self.MANIFEST
        check_manifest(path, self.MANIFEST)
        with pytest.raises(ConfigError, match="resume mismatch"):
            check_manifest(path, dict(self.MANIFEST, campaign_seed=1))
        with pytest.raises(ConfigError, match="resume mismatch"):
            check_manifest(path, dict(self.MANIFEST, matrix="faults"))

    def test_missing_manifest_refused(self, tmp_path):
        with pytest.raises(ConfigError, match="no manifest"):
            check_manifest(tmp_path / "manifest.json", self.MANIFEST)

    def test_corrupt_manifest_is_typed(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(StoreCorruptError) as err:
            check_manifest(path, self.MANIFEST)
        assert err.value.path == str(path)

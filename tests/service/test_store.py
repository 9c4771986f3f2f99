"""Content-addressed result store: keys, atomicity, invalidation, gc."""

import json
import shutil
from pathlib import Path

import pytest

import repro
from repro.campaign.spec import Scenario
from repro.errors import StoreCorruptError
from repro.service.store import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    code_fingerprint,
)


def _scenario(**overrides):
    defaults = {"victim": "rop", "backend": "cosim"}
    defaults.update(overrides)
    return Scenario(**defaults)


def _result(scenario, detected=True):
    return {"status": "ok", "name": scenario.name, "detected": detected,
            "policy": scenario.policy, "attack": "rop",
            "detection_latency": 42, "cycles": 1000}


class TestObjects:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path, code_version="v1")
        scenario = _scenario()
        store.put(scenario, 0, _result(scenario))
        record = store.get(store.key(scenario, 0))
        assert record["schema_version"] == STORE_SCHEMA_VERSION
        assert record["name"] == scenario.name
        assert record["spec"] == scenario.canonical()
        assert record["result"]["detected"] is True

    def test_get_is_scoped_to_campaign_seed(self, tmp_path):
        store = ResultStore(tmp_path, code_version="v1")
        scenario = _scenario()
        store.put(scenario, 0, _result(scenario))
        assert store.get(store.key(scenario, 1)) is None

    def test_put_is_byte_idempotent(self, tmp_path):
        store = ResultStore(tmp_path, code_version="v1")
        scenario = _scenario()
        path = store.put(scenario, 0, _result(scenario))
        first = path.read_bytes()
        store.put(scenario, 0, _result(scenario))
        assert path.read_bytes() == first

    def test_no_wall_clock_in_objects(self, tmp_path):
        store = ResultStore(tmp_path, code_version="v1")
        scenario = _scenario()
        path = store.put(scenario, 0, _result(scenario))
        text = path.read_text()
        for field in ("time", "timestamp", "wall"):
            assert f'"{field}"' not in text

    def test_corrupt_object_raises(self, tmp_path):
        store = ResultStore(tmp_path, code_version="v1")
        scenario = _scenario()
        path = store.put(scenario, 0, _result(scenario))
        path.write_text("{not json")
        with pytest.raises(StoreCorruptError):
            store.get(store.key(scenario, 0))

    def test_missing_field_raises(self, tmp_path):
        store = ResultStore(tmp_path, code_version="v1")
        scenario = _scenario()
        path = store.put(scenario, 0, _result(scenario))
        record = json.loads(path.read_text())
        del record["result"]
        path.write_text(json.dumps(record))
        with pytest.raises(StoreCorruptError):
            store.get(store.key(scenario, 0))


class TestResolve:
    def test_hit_miss_accounting(self, tmp_path):
        store = ResultStore(tmp_path, code_version="v1")
        cached = _scenario()
        fresh = _scenario(victim="jop")
        store.put(cached, 0, _result(cached))
        hits, missing, stats = store.resolve([cached, fresh], 0)
        assert set(hits) == {cached.name}
        assert [s.name for s in missing] == [fresh.name]
        assert stats == {"cells": 2, "hits": 1, "misses": 1,
                         "invalidated": 0}

    def test_code_version_invalidates(self, tmp_path):
        scenario = _scenario()
        old = ResultStore(tmp_path, code_version="v1")
        old.put(scenario, 0, _result(scenario))
        new = ResultStore(tmp_path, code_version="v2")
        hits, missing, stats = new.resolve([scenario], 0)
        assert not hits and len(missing) == 1
        assert stats["invalidated"] == 1

    def test_versions_in_first_seen_order(self, tmp_path):
        scenario = _scenario()
        for version in ("v1", "v2", "v3"):
            ResultStore(tmp_path, code_version=version).put(
                scenario, 0, _result(scenario))
        assert ResultStore(tmp_path, code_version="v3").versions() == \
            ["v1", "v2", "v3"]


class TestGc:
    def test_gc_drops_superseded_versions(self, tmp_path):
        scenario = _scenario()
        for version in ("v1", "v2"):
            ResultStore(tmp_path, code_version=version).put(
                scenario, 0, _result(scenario))
        current = ResultStore(tmp_path, code_version="v2")
        report = current.gc()
        assert report["removed_objects"] == 1
        assert report["removed_versions"] == ["v1"]
        assert current.versions() == ["v2"]
        assert current.count() == 1
        # Idempotent.
        assert current.gc()["removed_objects"] == 0


class TestFingerprint:
    def test_stable_and_content_sensitive(self, tmp_path):
        tree = tmp_path / "pkg"
        tree.mkdir()
        (tree / "a.py").write_text("x = 1\n")
        first = code_fingerprint(tree)
        assert first == code_fingerprint(tree)

        other = tmp_path / "pkg2"
        other.mkdir()
        (other / "a.py").write_text("x = 2\n")
        assert code_fingerprint(other) != first

        renamed = tmp_path / "pkg3"
        renamed.mkdir()
        (renamed / "b.py").write_text("x = 1\n")
        assert code_fingerprint(renamed) != first

    def test_default_fingerprint_covers_repro(self):
        fingerprint = code_fingerprint()
        assert len(fingerprint) == 16
        assert fingerprint == code_fingerprint()

    def test_covers_the_calibration_tables(self, tmp_path):
        """Rows depend on the policy host's shipped calibration tables,
        so editing one value must invalidate the store."""
        package = Path(repro.__file__).resolve().parent
        ignore = shutil.ignore_patterns("__pycache__")
        copy, edited = tmp_path / "copy", tmp_path / "edited"
        shutil.copytree(package, copy, ignore=ignore)
        shutil.copytree(package, edited, ignore=ignore)
        tables = edited / "policyhost" / "calibration_tables.json"
        entries = json.loads(tables.read_text())
        entries["irq/standard/45"]["bad_bias"] += 1
        tables.write_text(json.dumps(entries, indent=1) + "\n")
        assert code_fingerprint(copy) == code_fingerprint()
        assert code_fingerprint(edited) != code_fingerprint(copy)

"""Corpus invariants: content addressing, durable round-trips, and
deterministic eviction."""

import json

import pytest

from repro.coverage.corpus import CoverageCorpus, model_digest
from repro.coverage.shape import ShapeVector
from repro.errors import ConfigError, StoreCorruptError
from repro.synth.generator import generate


def corpus_bytes(root) -> dict:
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*.json"))
    }


class TestAddressing:
    def test_digest_is_content_addressed(self):
        model = generate("rop", 1)
        assert model_digest(model) == model_digest(json.loads(json.dumps(model)))
        assert model_digest(model) != model_digest(generate("rop", 2))

    def test_add_get_round_trip(self, tmp_path):
        corpus = CoverageCorpus(tmp_path)
        model = generate("jop", 3)
        vector = ShapeVector(points=("a:1", "b:2"))
        record = corpus.add(model, vector, family="jop", iteration=4,
                            lineage=("beef",), new_points=("b:2", "a:1"))
        assert record["digest"] == model_digest(model)
        assert record["new_points"] == ["a:1", "b:2"]
        got = corpus.get(record["digest"])
        assert got["model"] == model
        assert ShapeVector.from_json(got["vector"]) == vector

    def test_add_is_idempotent(self, tmp_path):
        corpus = CoverageCorpus(tmp_path)
        model = generate("benign", 0)
        vector = ShapeVector(points=("a:1",))
        first = corpus.add(model, vector, family="benign", iteration=0)
        again = corpus.add(model, vector, family="benign", iteration=9)
        assert first == again and len(corpus) == 1

    def test_fresh_instance_reloads_from_disk(self, tmp_path):
        corpus = CoverageCorpus(tmp_path)
        for seed in range(3):
            model = generate("rop", seed)
            corpus.add(model, ShapeVector(points=(f"s:{seed}",)),
                       family="rop", iteration=seed)
        reloaded = CoverageCorpus(tmp_path)
        assert reloaded.digests() == corpus.digests()
        assert list(reloaded.entries()) == list(corpus.entries())

    def test_unknown_entry_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown corpus entry"):
            CoverageCorpus(tmp_path).get("0" * 16)

    def test_torn_index_rejected(self, tmp_path):
        (tmp_path / "index.json").write_text("{not json")
        with pytest.raises(StoreCorruptError, match="index unreadable") as err:
            CoverageCorpus(tmp_path)
        assert err.value.path == str(tmp_path / "index.json")

    def test_unreadable_entry_rejected(self, tmp_path):
        corpus = CoverageCorpus(tmp_path)
        record = corpus.add(generate("rop", 1), ShapeVector(points=("a:1",)),
                            family="rop", iteration=0)
        entry = tmp_path / "objects" / f"{record['digest']}.json"
        entry.write_text("{torn")
        with pytest.raises(StoreCorruptError, match="entry unreadable") as err:
            CoverageCorpus(tmp_path).get(record["digest"])
        assert err.value.path == str(entry)


class TestEviction:
    def feed(self, root, max_entries=3):
        corpus = CoverageCorpus(root, max_entries=max_entries)
        vectors = [
            ShapeVector(points=("shared:1", "only:0")),
            ShapeVector(points=("shared:1",)),       # fully redundant
            ShapeVector(points=("shared:1", "only:2")),
            ShapeVector(points=("shared:1", "only:3")),
        ]
        for seed, vector in enumerate(vectors):
            corpus.add(generate("benign", seed), vector,
                       family="benign", iteration=seed)
        return corpus

    def test_redundant_entry_evicted_first(self, tmp_path):
        """Past the cap, the oldest entry whose every point is still
        held elsewhere drops — not plain FIFO."""
        corpus = self.feed(tmp_path)
        assert len(corpus) == 3
        evicted = model_digest(generate("benign", 1))
        assert evicted not in corpus
        assert model_digest(generate("benign", 0)) in corpus

    def test_fifo_when_every_entry_is_unique(self, tmp_path):
        corpus = CoverageCorpus(tmp_path, max_entries=2)
        for seed in range(3):
            corpus.add(generate("rop", seed),
                       ShapeVector(points=(f"only:{seed}",)),
                       family="rop", iteration=seed)
        assert model_digest(generate("rop", 0)) not in corpus
        assert len(corpus) == 2

    def test_eviction_is_bit_deterministic(self, tmp_path):
        a_root, b_root = tmp_path / "a", tmp_path / "b"
        self.feed(a_root)
        self.feed(b_root)
        assert corpus_bytes(a_root) == corpus_bytes(b_root)

    def test_evicted_objects_leave_the_disk(self, tmp_path):
        corpus = self.feed(tmp_path)
        resident = {f"{digest}.json" for digest in corpus.digests()}
        on_disk = {p.name for p in (tmp_path / "objects").iterdir()}
        assert on_disk == resident


class TestReplay:
    def test_begin_replay_clears_memory_and_disk_index(self, tmp_path):
        corpus = CoverageCorpus(tmp_path)
        corpus.add(generate("jop", 1), ShapeVector(points=("a:1",)),
                   family="jop", iteration=0)
        corpus.begin_replay()
        assert len(corpus) == 0
        assert CoverageCorpus(tmp_path).digests() == ()

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from kgrag.chunking import Chunk
from kgrag.exceptions import StoreCorruptError
from kgrag.vector_index import FORMAT_VERSION, MAGIC, VectorStore


def chunk(cid: str) -> Chunk:
    return Chunk(
        chunk_id=cid, parent_semantic_chunk="p", doc_id="d", token_span=(0, 1), text=f"text {cid}"
    )


def unit(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    return (v / np.linalg.norm(v)).astype(np.float32)


def build(vectors: dict[str, np.ndarray]) -> VectorStore:
    dim = len(next(iter(vectors.values())))
    store = VectorStore(dim)
    for cid, vec in vectors.items():
        store.add(chunk(cid), np.asarray(vec, dtype=np.float32))
    store.seal()
    return store


def brute_force_top_k(entries: list[tuple[str, list[float]]], query: list[float], k: int):
    """Independent oracle: per-entry python cosine, explicit stable sort."""

    def cosine(a: list[float], b: list[float]) -> float:
        dot = sum(x * y for x, y in zip(a, b))
        na = math.sqrt(sum(x * x for x in a))
        nb = math.sqrt(sum(y * y for y in b))
        if na == 0.0 or nb == 0.0:
            return 0.0
        return dot / (na * nb)

    scored = [(cid, cosine(vec, query)) for cid, vec in entries]
    order = sorted(range(len(scored)), key=lambda i: (-scored[i][1], i))
    return [scored[i] for i in order[:k]]


class TestBuildPhase:
    def test_add_increases_size(self):
        store = VectorStore(4)
        assert len(store) == 0
        store.add(chunk("a"), np.ones(4, dtype=np.float32))
        assert len(store) == 1

    def test_duplicate_id_error(self):
        store = VectorStore(4)
        store.add(chunk("a"), np.ones(4, dtype=np.float32))
        with pytest.raises(ValueError, match="duplicate"):
            store.add(chunk("a"), np.ones(4, dtype=np.float32))

    def test_dimension_mismatch_error(self):
        store = VectorStore(4)
        with pytest.raises(ValueError, match="dimension"):
            store.add(chunk("a"), np.ones(5, dtype=np.float32))

    def test_add_after_seal_error(self):
        store = VectorStore(4)
        store.seal()
        with pytest.raises(ValueError, match="sealed"):
            store.add(chunk("a"), np.ones(4, dtype=np.float32))

    def test_query_before_seal_error(self):
        store = VectorStore(4)
        store.add(chunk("a"), np.ones(4, dtype=np.float32))
        with pytest.raises(ValueError, match="sealed"):
            store.top_k(np.ones(4, dtype=np.float32), 1)


class TestTopK:
    def test_exact_match_rank_one(self):
        store = build({"a": unit([1, 0, 0, 0]), "b": unit([0, 1, 0, 0])})
        results = store.top_k(unit([1, 0, 0, 0]), 1)
        assert results[0][0] == "a"
        assert results[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_k_larger_than_store(self):
        store = build({"a": unit([1, 0]), "b": unit([0, 1]), "c": unit([1, 1])})
        assert len(store.top_k(unit([1, 0.2]), 50)) == 3

    def test_empty_store(self):
        store = VectorStore(4)
        store.seal()
        assert store.top_k(np.ones(4, dtype=np.float32), 3) == []

    def test_k_below_one_rejected(self):
        store = build({"a": unit([1, 0])})
        with pytest.raises(ValueError):
            store.top_k(unit([1, 0]), 0)

    def test_ties_break_by_insertion_order(self):
        same = unit([1, 1, 0, 0])
        store = VectorStore(4)
        for cid in ("first", "second", "third"):
            store.add(chunk(cid), same.copy())
        store.seal()
        assert [cid for cid, _ in store.top_k(same, 3)] == ["first", "second", "third"]

    def test_scores_non_increasing(self):
        rng = random.Random(5)
        store = build({f"v{i}": unit([rng.gauss(0, 1) for _ in range(16)]) for i in range(40)})
        query = unit([rng.gauss(0, 1) for _ in range(16)])
        scores = [s for _, s in store.top_k(query, 40)]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_prefix_property(self):
        rng = random.Random(6)
        store = build({f"v{i}": unit([rng.gauss(0, 1) for _ in range(8)]) for i in range(25)})
        query = unit([rng.gauss(0, 1) for _ in range(8)])
        for k in range(1, 25):
            assert store.top_k(query, k) == store.top_k(query, k + 1)[:k]

    def test_matches_brute_force_oracle(self):
        rng = random.Random(99)
        dim, n = 32, 200
        store = VectorStore(dim)
        entries = []
        for i in range(n):
            vec = np.asarray([rng.gauss(0, 1) for _ in range(dim)], dtype=np.float32)
            store.add(chunk(f"v{i}"), vec)
            entries.append((f"v{i}", [float(x) for x in vec]))
        store.seal()
        for _ in range(20):
            query32 = np.asarray([rng.gauss(0, 1) for _ in range(dim)], dtype=np.float32)
            expected = brute_force_top_k(entries, [float(x) for x in query32], 10)
            actual = store.top_k(query32, 10)
            assert [cid for cid, _ in actual] == [cid for cid, _ in expected]
            for (_, got), (_, want) in zip(actual, expected):
                assert got == pytest.approx(want, abs=1e-9)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = random.Random(7)
        store = build({f"v{i}": unit([rng.gauss(0, 1) for _ in range(12)]) for i in range(9)})
        path = tmp_path / "vectors.skvx"
        store.save(path)
        loaded = VectorStore.load(path)
        assert loaded.dimension == store.dimension
        assert loaded.chunk_ids == store.chunk_ids
        assert loaded.metadata == store.metadata
        resaved = tmp_path / "resaved" / "vectors.skvx"
        resaved.parent.mkdir()
        loaded.save(resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_empty_store_round_trips(self, tmp_path):
        store = VectorStore(16)
        store.seal()
        store.save(tmp_path / "vectors.skvx")
        loaded = VectorStore.load(tmp_path / "vectors.skvx")
        assert len(loaded) == 0 and loaded.dimension == 16

    def test_save_requires_seal(self, tmp_path):
        store = VectorStore(4)
        with pytest.raises(ValueError, match="seal"):
            store.save(tmp_path / "vectors.skvx")

    def test_corrupt_magic(self, tmp_path):
        store = build({"a": unit([1, 0, 0, 0])})
        path = tmp_path / "vectors.skvx"
        store.save(path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreCorruptError, match="magic"):
            VectorStore.load(path)

    def test_version_mismatch(self, tmp_path):
        store = build({"a": unit([1, 0, 0, 0])})
        path = tmp_path / "vectors.skvx"
        store.save(path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (FORMAT_VERSION + 1).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreCorruptError, match="version"):
            VectorStore.load(path)

    def test_truncated_file_reports_offset(self, tmp_path):
        store = build({"a": unit([1, 0, 0, 0]), "b": unit([0, 1, 0, 0])})
        path = tmp_path / "vectors.skvx"
        store.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(StoreCorruptError, match=f"offset {len(blob) - 5}"):
            VectorStore.load(path)

    def test_sidecar_count_mismatch(self, tmp_path):
        store = build({"a": unit([1, 0, 0, 0]), "b": unit([0, 1, 0, 0])})
        path = tmp_path / "vectors.skvx"
        store.save(path)
        sidecar = tmp_path / "chunks.jsonl"
        lines = sidecar.read_text().splitlines()
        sidecar.write_text(lines[0] + "\n")
        with pytest.raises(StoreCorruptError, match="mismatch"):
            VectorStore.load(path)

    def test_header_layout(self, tmp_path):
        store = build({"a": unit([1, 0, 0, 0])})
        path = tmp_path / "vectors.skvx"
        store.save(path)
        blob = path.read_bytes()
        assert blob[:4] == MAGIC
        assert int.from_bytes(blob[4:6], "little") == FORMAT_VERSION
        assert int.from_bytes(blob[6:10], "little") == 4  # dimension
        assert int.from_bytes(blob[10:18], "little") == 1  # count
        assert len(blob) == 18 + 4 * 4

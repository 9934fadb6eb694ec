from __future__ import annotations

import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import kgrag.vector_index as vector_index
from kgrag.chunking import Chunk
from kgrag.embedding import HashedEmbedder
from kgrag.exceptions import StoreCorruptError
from kgrag.vector_index import FORMAT_VERSION, MAGIC, VectorStore


def chunk(cid: str) -> Chunk:
    return Chunk(chunk_id=cid, token_span=(0, 1), text=f"text {cid}")


def unit(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    return (v / np.linalg.norm(v)).astype(np.float32)


def build(vectors: dict[str, np.ndarray]) -> VectorStore:
    dim = len(next(iter(vectors.values())))
    store = VectorStore(dim)
    store.add([chunk(cid) for cid in vectors], np.asarray(list(vectors.values()), dtype=np.float32))
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


def rule_dots(matrix: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The scoring rule's dot products: float64, left to right over q's nonzero coordinates, from +0.0."""
    dots = np.zeros(len(matrix))
    for j in np.flatnonzero(q):
        dots = dots + q[j] * matrix[:, j]
    return dots


def stable_argsort_top_k(rows: np.ndarray, query: np.ndarray, k: int) -> list[tuple[int, float]]:
    """The sort-everything top-k that selection replaced: scores, then a full stable argsort."""
    matrix = rows.astype(np.float64)
    q = np.asarray(query, dtype=np.float64)
    qnorm = float(np.linalg.norm(q))
    n = len(matrix)
    if qnorm == 0.0:
        scores = np.zeros(n)
    else:
        denom = np.linalg.norm(matrix, axis=1) * qnorm
        scores = np.divide(rule_dots(matrix, q), denom, out=np.zeros(n), where=denom > 0.0)
    return [(int(i), float(scores[i])) for i in np.argsort(-scores, kind="stable")[:k]]


@st.composite
def tied_stores(draw):
    """Rows with duplicates (exact ties), all-zero rows and few distinct values; a query and k in 1..n+2."""
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 5))
    elements = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), st.floats(-8, 8, width=32))
    rows = draw(arrays(np.float32, (n, dim), elements=elements))
    for i in range(n):
        kind = draw(st.sampled_from(["drawn", "zero", "copy"]))
        if kind == "zero":
            rows[i] = 0.0
        elif kind == "copy":
            rows[i] = rows[draw(st.integers(0, n - 1))]
    query = draw(
        st.one_of(
            arrays(np.float32, dim, elements=elements),
            st.just(np.zeros(dim, dtype=np.float32)),
            st.integers(0, n - 1).map(lambda i: rows[i].copy()),
        )
    )
    return rows, query, draw(st.integers(1, n + 2))


@st.composite
def column_stores(draw):
    """Rows added in several parts (often past a seal block), a query, k, and a gather budget.

    Rows are Gaussian float32 with some all-zero rows and copies. The query
    has zero coordinates (some of them -0.0), is dense, or copies a row.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 48))
    parts = draw(st.lists(st.integers(0, 300), min_size=1, max_size=4))
    n = sum(parts)
    rows = rng.standard_normal((n, dim)).astype(np.float32)
    rows[rng.random(n) < 0.05] = 0.0
    copies = np.flatnonzero(rng.random(n) < 0.05)
    if n:
        rows[copies] = rows[rng.integers(0, n, len(copies))]
    kind = draw(st.sampled_from(["sparse", "negative-zero", "dense", "row"] if n else ["sparse", "dense"]))
    query = rng.standard_normal(dim).astype(np.float32)
    if kind in ("sparse", "negative-zero"):
        zeros = rng.random(dim) < draw(st.floats(0.0, 1.0))
        query[zeros] = -0.0 if kind == "negative-zero" else 0.0
    elif kind == "row":
        query = rows[rng.integers(0, n)].copy()
    budget = draw(st.sampled_from([1, 5, 64, 1000, vector_index._GATHER_VALUES]))
    return parts, rows, query, draw(st.integers(1, n + 2)), budget


def build_parts(parts: list[int], rows: np.ndarray) -> VectorStore:
    store = VectorStore(rows.shape[1])
    start = 0
    for size in parts:
        store.add([chunk(f"v{i}") for i in range(start, start + size)], rows[start : start + size])
        start += size
    store.seal()
    return store


class TestBuildPhase:
    def test_add_increases_size(self):
        store = VectorStore(4)
        assert len(store) == 0
        store.add([chunk("a")], np.ones((1, 4), dtype=np.float32))
        assert len(store) == 1

    def test_duplicate_id_error(self):
        store = VectorStore(4)
        store.add([chunk("a")], np.ones((1, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="duplicate"):
            store.add([chunk("a")], np.ones((1, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="duplicate"):
            store.add([chunk("b"), chunk("b")], np.ones((2, 4), dtype=np.float32))
        for ids, repeat in ((["c", "a", "d", "d"], "a"), (["c", "d", "c", "d"], "c"), (["e", "f", "f", "e"], "f")):
            with pytest.raises(ValueError, match=f"^duplicate chunk_id '{repeat}'$"):  # the first repeat
                store.add([chunk(cid) for cid in ids], np.ones((len(ids), 4), dtype=np.float32))
        assert list(store.metadata) == ["a"]

    def test_dimension_mismatch_error(self):
        store = VectorStore(4)
        with pytest.raises(ValueError, match="dimension"):
            store.add([chunk("a")], np.ones((1, 5), dtype=np.float32))

    def test_add_after_seal_error(self):
        store = VectorStore(4)
        store.seal()
        with pytest.raises(ValueError, match="sealed"):
            store.add([chunk("a")], np.ones((1, 4), dtype=np.float32))

    def test_query_before_seal_error(self):
        store = VectorStore(4)
        store.add([chunk("a")], np.ones((1, 4), dtype=np.float32))
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
        store.add([chunk(cid) for cid in ("first", "second", "third")], np.tile(same, (3, 1)))
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

    @given(tied_stores())
    def test_selection_equals_full_stable_argsort(self, case):
        rows, query, k = case
        store = VectorStore(rows.shape[1])
        store.add([chunk(f"v{i}") for i in range(len(rows))], rows)
        store.seal()
        expected = [(f"v{i}", score) for i, score in stable_argsort_top_k(rows, query, k)]
        assert store.top_k(query, k) == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        store = build({"a": unit([1, 0, 0, 0]), "b": unit([0, 1, 0, 0])})
        query = np.array([1.0, bad, 0.0, 0.0], dtype=np.float32)
        with pytest.raises(ValueError, match="not finite"):
            store.top_k(query, 1)

    @pytest.mark.parametrize(
        "scale", [1e-170, 6.92e-158, 2.0**-1074, 1e200, 1.7e308], ids=["tiny", "subnormal-square", "least", "huge", "max"]
    )
    def test_query_whose_squared_norm_underflows_or_overflows(self, scale):
        store = build({"e1": unit([0, 1, 0, 0]), "e0": unit([1, 0, 0, 0])})
        query = np.array([scale, 0.0, 0.0, 0.0])
        assert store.top_k(query, 2) == [("e0", 1.0), ("e1", 0.0)]
        diagonal = store.top_k(np.array([scale, scale, 0.0, 0.0]), 2)
        assert [cid for cid, _ in diagonal] == ["e1", "e0"]  # a tie, in insertion order
        assert [score for _, score in diagonal] == [pytest.approx(math.sqrt(0.5), abs=1e-15)] * 2

    @settings(max_examples=60, deadline=None)
    @given(column_stores())
    def test_column_scan_equals_full_stable_argsort(self, case):
        parts, rows, query, k, budget = case
        store = build_parts(parts, rows)
        expected = [(f"v{i}", score) for i, score in stable_argsort_top_k(rows, query, k)]
        with mock.patch.object(vector_index, "_GATHER_VALUES", budget):
            assert store.top_k(query, k) == expected
        assert store._norms.tobytes() == np.linalg.norm(rows.astype(np.float64), axis=1).tobytes()

    def test_dense_query_over_two_gather_blocks(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((1100, 256)).astype(np.float32)  # 1,024 rows per block at 256 nonzeros
        store = build_parts([600, 500], rows)
        for query in (rng.standard_normal(256).astype(np.float32), rows[1099]):
            assert store.top_k(query, 1100) == [(f"v{i}", s) for i, s in stable_argsort_top_k(rows, query, 1100)]

    def test_hashed_scores_equal_dense_product(self, mini_store, mini_store_dir, mini_questions_path):
        """Hashed questions score as the dense float64 product ``rows64 @ q / (norms * qnorm)``, bit for bit.

        That was the scoring rule before the scan read only the query's
        nonzero coordinates; this keeps ``query --json`` byte-identical for
        the default embedder.
        """
        store = mini_store.vectors
        blob = (mini_store_dir / "vectors.skvx").read_bytes()
        rows64 = np.frombuffer(blob, dtype="<f4", offset=18).reshape(len(store), store.dimension).astype(np.float64)
        norms = np.linalg.norm(rows64, axis=1)
        questions = [json.loads(line)["question"] for line in mini_questions_path.read_text().splitlines()]
        embedder = HashedEmbedder(store.dimension)
        for text in questions:
            q = embedder.embed(text).astype(np.float64)
            denom = norms * float(np.linalg.norm(q))
            scores = np.divide(rows64 @ q, denom, out=np.zeros(len(rows64)), where=denom > 0.0)
            expected = [(cid, float(scores[i])) for i, cid in enumerate(store.metadata)]
            assert sorted(store.top_k(embedder.embed(text), len(store))) == sorted(expected), text

    def test_matches_brute_force_oracle(self):
        rng = random.Random(99)
        dim, n = 32, 200
        store = VectorStore(dim)
        entries = []
        rows = []
        for i in range(n):
            vec = np.asarray([rng.gauss(0, 1) for _ in range(dim)], dtype=np.float32)
            rows.append(vec)
            entries.append((f"v{i}", [float(x) for x in vec]))
        store.add([chunk(cid) for cid, _ in entries], np.asarray(rows))
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
        store = build({f"d#s0#t{i}": unit([rng.gauss(0, 1) for _ in range(12)]) for i in range(9)})
        path = tmp_path / "vectors.skvx"
        store.save(path)
        loaded = VectorStore.load(path)
        assert loaded.dimension == store.dimension
        assert list(loaded.metadata) == list(store.metadata)
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
        with pytest.raises(StoreCorruptError, match="bad magic in .*: b'XXXX'"):
            VectorStore.load(path)

    def test_version_mismatch(self, tmp_path):
        store = build({"a": unit([1, 0, 0, 0])})
        path = tmp_path / "vectors.skvx"
        store.save(path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (FORMAT_VERSION + 1).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreCorruptError, match=f"unsupported format version {FORMAT_VERSION + 1} in "):
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
        store = build({"d#ta": unit([1, 0, 0, 0]), "d#tb": unit([0, 1, 0, 0])})
        path = tmp_path / "vectors.skvx"
        store.save(path)
        sidecar = tmp_path / "chunks.jsonl"
        lines = sidecar.read_text().splitlines()
        sidecar.write_text(lines[0] + "\n")
        with pytest.raises(StoreCorruptError, match="vector/metadata mismatch: 2 vectors vs 1 chunk records"):
            VectorStore.load(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected_at_seal_and_load(self, tmp_path, bad):
        rows = np.ones((3, 4), dtype=np.float32)
        store = build({"d#ta": rows[0], "d#tb": rows[1], "d#tc": rows[2]})
        path = tmp_path / "vectors.skvx"
        store.save(path)
        rows[1, 2] = bad
        unsealed = VectorStore(4)
        unsealed.add([chunk(f"d#t{c}") for c in "abc"], rows)
        with pytest.raises(ValueError, match="row 1 .*'d#tb'.* not finite"):
            unsealed.seal()
        blob = bytearray(path.read_bytes())
        offset = 18 + (1 * 4 + 2) * 4
        blob[offset : offset + 4] = np.float32(bad).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreCorruptError, match="not finite"):
            VectorStore.load(path)

    @settings(max_examples=30, deadline=None)
    @given(column_stores())
    def test_save_writes_the_rows_as_little_endian_float32(self, tmp_path_factory, case):
        parts, rows, _, _, _ = case
        path = tmp_path_factory.mktemp("save") / "vectors.skvx"
        build_parts(parts, rows).save(path)
        assert path.read_bytes()[18:] == rows.astype("<f4").tobytes()

    def test_header_layout(self, tmp_path):
        store = build({"d#ta": unit([1, 0, 0, 0])})
        path = tmp_path / "vectors.skvx"
        store.save(path)
        blob = path.read_bytes()
        assert blob[:4] == MAGIC
        assert int.from_bytes(blob[4:6], "little") == FORMAT_VERSION
        assert int.from_bytes(blob[6:10], "little") == 4  # dimension
        assert int.from_bytes(blob[10:18], "little") == 1  # count
        assert len(blob) == 18 + 4 * 4

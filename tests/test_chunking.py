from __future__ import annotations

import json
import math
import random
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kgrag.chunking import (
    Chunk,
    ChunkerConfig,
    SemanticChunk,
    build_windows,
    chunk_from_json,
    chunk_to_json,
    hashed_window_distances,
    percentile_threshold,
    read_chunks_jsonl,
    semantic_split,
    sequential_distances,
    token_window_split,
    window_distances,
    write_chunks_jsonl,
)
from kgrag.embedding import HashedEmbedder, HashedTokens, embed_hashed_many
from kgrag.exceptions import StoreCorruptError

import kgrag.chunking as chunking_mod
import kgrag.embedding as embedding_mod

from helpers import (
    SeqEmbedder,
    embedding_matrices,
    record_texts,
    reference_cosine,
    two_topic_sentences,
    vectors_with_consecutive_similarities,
)


class TestBuildWindows:
    def test_k1_clips_at_edges(self):
        sentences = ["A", "B", "C"]
        assert build_windows(sentences, 1) == ["A B", "A B C", "B C"]

    def test_k0_is_identity(self):
        sentences = ["one two", "three", "four"]
        assert build_windows(sentences, 0) == ["one two", "three", "four"]

    def test_single_sentence_large_k(self):
        sentences = ["lonely"]
        assert build_windows(sentences, 2) == ["lonely"]

    def test_output_length_equals_input_length(self):
        sentences = [f"s{i}" for i in range(7)]
        for k in range(4):
            assert len(build_windows(sentences, k)) == 7


class TestSequentialDistances:
    def test_identical_vectors_zero(self):
        v = np.array([0.5, 0.5, 0.5, 0.5])
        assert sequential_distances([v, v, v]) == pytest.approx([0.0, 0.0])

    def test_orthogonal_vectors_one(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert sequential_distances([a, b]) == pytest.approx([1.0])

    def test_closed_form_45_degrees(self):
        a = np.array([1.0, 0.0])
        b = np.array([1.0, 1.0]) / math.sqrt(2)
        (d,) = sequential_distances([a, b])
        assert d == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-12)

    def test_fewer_than_two_is_empty(self):
        assert sequential_distances([]) == []
        assert sequential_distances([np.array([1.0, 0.0])]) == []

    @settings(max_examples=300)
    @given(embedding_matrices())
    @example(np.zeros((3, 4)))
    @example(np.array([[1.0, -2.0, 0.0], [0.0, 0.0, 0.0], [-3.0, 6.0, 0.0], [1e-3, -2e-3, 0.0]]))
    def test_matches_pair_loop_bit_for_bit(self, matrix):
        # The per-pair loop this function replaced; a row-wise form that sums in
        # a different order (or without fused multiply-add) drifts in the last bit.
        expected = [1.0 - reference_cosine(matrix[i], matrix[i + 1]) for i in range(len(matrix) - 1)]
        got = sequential_distances(matrix)
        assert all(type(d) is float for d in got)
        assert np.array(got).tobytes() == np.array(expected).tobytes()

    def test_hashed_window_matrix(self):
        windows = build_windows(["rome pasta", "rome pizza", "tokyo sushi", ""], 0)
        matrix = HashedEmbedder(64).embed_batch(windows)
        assert matrix.shape == (4, 64) and matrix.dtype == np.float32
        expected = [1.0 - reference_cosine(matrix[i], matrix[i + 1]) for i in range(3)]
        assert sequential_distances(matrix) == expected
        assert sequential_distances(matrix)[2] == 1.0  # the empty window is the zero row


# Words whose lowercasing is context-sensitive (final sigma) or changes length
# (dotted capital I), combining marks, non-BMP text, and no-alphanumeric runs.
AWKWARD_WORDS = [
    "rome", "Rome", "ΟΔΟΣ", "ΟΔΟΣ.", "Σ", "ς", "'Σ", "İstanbul", "e\u0301", "\u0301", "🍕", "𝔘𝔫𝔦", "!!!", "...",
]
SENTENCE_TEXTS = st.one_of(
    st.lists(st.sampled_from(AWKWARD_WORDS), max_size=6).map(" ".join),
    st.text(max_size=10),
)


def reference_window_distances(documents, k, dimension):
    """One ``embed_hashed_many`` batch of windows per document, then its sequential distances."""
    return [
        sequential_distances(embed_hashed_many(build_windows(sentences, k), dimension)) if sentences else []
        for _, sentences in documents
    ]


def recorded_rows(calls: list):
    """``HashedTokens.rows``, appending every block of rows it returns to ``calls``."""
    count = HashedTokens.rows

    def rows(self, starts, stops):
        calls.append(count(self, starts, stops))
        return calls[-1]

    return rows


class TestHashedWindowDistances:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.lists(SENTENCE_TEXTS, max_size=12), max_size=4),
        st.one_of(st.integers(0, 3), st.sampled_from([50, 10**20])),
        st.sampled_from([1, 2, 3, 5, 256]),
        st.sampled_from([8, 64]),
    )
    @example([["ΟΔΟΣ", "Σ αλφα", "ΑΣ"], ["one"], []], 1, 1, 8)
    @example([[f"w{i} Σ" for i in range(11)]], 3, 2, 8)
    @example([[f"w{i} Σ" for i in range(11)], ["ΑΣ", "one"]], 10**20, 1, 8)
    def test_bit_for_bit_with_per_document_embedding(self, texts, k, block, dimension):
        documents = [(f"d{i}", t) for i, t in enumerate(texts)]
        expected = reference_window_distances(documents, k, dimension)
        expected_rows = [
            embed_hashed_many(build_windows(sentences, k), dimension) for _, sentences in documents if sentences
        ]
        tokens = HashedTokens([s for t in texts for s in t], dimension)
        blocks: list[np.ndarray] = []
        with mock.patch.object(embedding_mod, "_BLOCK_ROWS", block), mock.patch.object(
            HashedTokens, "rows", recorded_rows(blocks)
        ):
            got = hashed_window_distances(tokens, [len(t) for t in texts], k)
        assert all(type(d) is float for distances in got for d in distances)
        assert [np.array(d).tobytes() for d in got] == [np.array(d).tobytes() for d in expected]
        generic = window_distances(documents, HashedEmbedder(dimension), k)
        assert [np.array(d).tobytes() for d in generic] == [np.array(d).tobytes() for d in expected]
        # Blocks of at most `block` rows (two for a block of one), each sharing its first row with the last.
        assert all(len(rows) <= max(block, 2) for rows in blocks)
        assert all(a[-1].tobytes() == b[0].tobytes() for a, b in zip(blocks, blocks[1:]))
        # Every window row is counted once a build has two sentences (none is needed before).
        empty = np.zeros((0, dimension), np.float32)
        rows = np.concatenate([blocks[0], *(b[1:] for b in blocks[1:])]) if blocks else empty
        reference = np.concatenate(expected_rows) if len(tokens.offsets) > 2 else empty
        assert rows.dtype == np.float32 and rows.tobytes() == reference.tobytes()

    def test_hashes_each_token_once_across_blocks(self, monkeypatch):
        monkeypatch.setattr(embedding_mod, "_BLOCK_ROWS", 4)
        hashed = record_texts(monkeypatch, embedding_mod, "fnv1a64")
        texts = [f"rome w{i} pasta" for i in range(10)] + ["ROME pizza", "rome"]
        hashed_window_distances(HashedTokens(texts, 64), [10, 2], 2)
        assert sorted(hashed) == sorted([b"rome", b"pasta", b"pizza"] + [f"w{i}".encode() for i in range(10)])

    @pytest.mark.parametrize("k", [50, 10**20])
    def test_window_beyond_every_document(self, k):
        # k = 10**20 does not fit in int64; a window never reaches past its document anyway.
        documents = [(f"d{n}", [f"w{i % 5} s{n}" for i in range(n)]) for n in (60, 0, 1, 3)]
        tokens = HashedTokens([s for _, sentences in documents for s in sentences], 16)
        got = hashed_window_distances(tokens, [len(sentences) for _, sentences in documents], k)
        generic = window_distances(documents, HashedEmbedder(16), k)
        assert [np.array(d).tobytes() for d in got] == [np.array(d).tobytes() for d in generic]
        assert [len(d) for d in got] == [59, 0, 0, 2]

    @pytest.mark.parametrize("budget, most_rows", [(1, 2), (27, 4), (1 << 20, 5)])
    def test_wide_windows_take_fewer_rows_per_block(self, monkeypatch, budget, most_rows):
        # 9 sentences of 3 tokens at k = 1 make windows of at most 9 tokens.
        monkeypatch.setattr(embedding_mod, "_BLOCK_ROWS", 5)
        monkeypatch.setattr(chunking_mod, "_BLOCK_TOKENS", budget)
        documents = [("d", [f"w{i} x{i % 3} Σ" for i in range(9)])]
        tokens = HashedTokens(documents[0][1], 16)
        blocks: list[np.ndarray] = []
        monkeypatch.setattr(HashedTokens, "rows", recorded_rows(blocks))
        got = hashed_window_distances(tokens, [9], 1)
        assert max(len(rows) for rows in blocks) == most_rows
        monkeypatch.undo()
        assert np.array(got).tobytes() == np.array(window_distances(documents, HashedEmbedder(16), 1)).tobytes()

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            hashed_window_distances(HashedTokens(["a", "b"], 8), [2], -1)

    def test_single_sentence_and_empty_documents(self):
        documents = [("doc", ["only"]), ("doc", []), ("doc", ["a b", "c"])]
        got = window_distances(documents, HashedEmbedder(64), 1)
        assert got[:2] == [[], []] and len(got[2]) == 1
        tokens = HashedTokens([s for _, sentences in documents for s in sentences], 64)
        assert hashed_window_distances(tokens, [1, 0, 2], 1) == got


class TestPercentileThreshold:
    def test_nearest_rank_1_to_20(self):
        values = list(range(1, 21))
        random.Random(7).shuffle(values)
        assert percentile_threshold([float(v) for v in values], 95) == 19.0

    def test_single_value(self):
        for p in (1, 50, 95, 100):
            assert percentile_threshold([0.42], p) == 0.42

    def test_all_equal(self):
        assert percentile_threshold([0.3] * 9, 95) == 0.3

    def test_empty_is_error(self):
        with pytest.raises(ValueError, match="no distances"):
            percentile_threshold([], 95)

    @given(
        st.lists(st.floats(0, 2, allow_nan=False), min_size=1, max_size=50),
        st.floats(0.01, 100.0),
    )
    def test_result_is_an_element(self, distances, p):
        assert percentile_threshold(distances, p) in distances


def split(sentences, embedder, config: ChunkerConfig):
    """``semantic_split`` over the document's own window distances."""
    (distances,) = window_distances([("doc", sentences)], embedder, config.window_k)
    return semantic_split("doc", sentences, distances, config)


def config(**kwargs) -> ChunkerConfig:
    base = dict(window_k=0, percentile=95.0, chunk_size=100, overlap=16)
    base.update(kwargs)
    return ChunkerConfig(**base)


class TestSemanticSplit:
    def test_all_distances_equal_single_chunk(self):
        sentences = ["a", "b", "c", "d"]
        same = np.array([1.0, 0.0])
        chunks = split(sentences, SeqEmbedder([same] * 4), config())
        assert len(chunks) == 1
        assert chunks[0].sentence_span == (0, 3)

    def test_traced_boundary_p50(self):
        # distances [0.1, 0.9, 0.1]; nearest-rank p50 over sorted [0.1, 0.1, 0.9]
        # gives T=0.1, so only the 0.9 jump is a boundary: [s1,s2] | [s3,s4].
        vectors = vectors_with_consecutive_similarities([0.9, 0.1, 0.9])
        sentences = ["s1", "s2", "s3", "s4"]
        chunks = split(sentences, SeqEmbedder(vectors), config(percentile=50))
        assert [c.sentence_span for c in chunks] == [(0, 1), (2, 3)]
        assert [" ".join(c.sentences) for c in chunks] == ["s1 s2", "s3 s4"]

    def test_single_sentence_single_chunk(self):
        sentences = ["only one"]
        chunks = split(sentences, HashedEmbedder(64), config())
        assert len(chunks) == 1
        assert chunks[0].sentence_span == (0, 0)

    def test_empty_sentences_rejected(self):
        with pytest.raises(ValueError):
            split([], HashedEmbedder(64), config())

    def test_distance_count_must_match(self):
        with pytest.raises(ValueError, match="expected 1 window distances"):
            semantic_split("doc", ["a", "b"], [], config())

    def test_boundary_count_matches_exceedance_count(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(2, 24)
            sims = [rng.uniform(-0.95, 0.95) for _ in range(n - 1)]
            vectors = vectors_with_consecutive_similarities(sims)
            sentences = [f"s{i}" for i in range(n)]
            chunks = split(sentences, SeqEmbedder(vectors), config(percentile=60))
            distances = [1 - s for s in sims]
            threshold = percentile_threshold(distances, 60)
            exceedances = sum(1 for d in distances if d > threshold)
            assert len(chunks) == exceedances + 1

    def test_spans_are_contiguous_cover(self):
        rng = random.Random(3)
        sims = [rng.uniform(-0.9, 0.9) for _ in range(14)]
        sentences = [f"s{i}" for i in range(15)]
        chunks = split(
            sentences, SeqEmbedder(vectors_with_consecutive_similarities(sims)), config(percentile=50)
        )
        expected_next = 0
        for chunk in chunks:
            start, end = chunk.sentence_span
            assert start == expected_next
            assert end >= start
            expected_next = end + 1
        assert expected_next == len(sentences)

    def test_determinism_ids_and_spans(self):
        sentences, _ = two_topic_sentences(random.Random(5))
        embedder = HashedEmbedder(256)
        first = split(sentences, embedder, config())
        second = split(sentences, embedder, config())
        assert first == second

    def test_two_topic_document_splits_at_switch(self):
        sentences, switch = two_topic_sentences(random.Random(1234))
        chunks = split(sentences, HashedEmbedder(256), config())
        assert [c.sentence_span for c in chunks] == [
            (0, switch - 1),
            (switch, len(sentences) - 1),
        ]


def sem_chunk(total_tokens: int) -> SemanticChunk:
    text = " ".join(f"t{i}" for i in range(total_tokens))
    return SemanticChunk(chunk_id="d#s0", sentence_span=(0, 0), sentences=(text,))


class TestTokenWindowSplit:
    def test_232_tokens_stride_arithmetic(self):
        chunks = token_window_split(sem_chunk(232), 100, 16)
        assert [c.token_span for c in chunks] == [(0, 100), (84, 184), (168, 232)]

    def test_exactly_chunk_size(self):
        chunks = token_window_split(sem_chunk(100), 100, 16)
        assert [c.token_span for c in chunks] == [(0, 100)]

    def test_one_over_chunk_size(self):
        chunks = token_window_split(sem_chunk(101), 100, 16)
        assert [c.token_span for c in chunks] == [(0, 100), (84, 101)]

    def test_invalid_overlap_rejected(self):
        with pytest.raises(ValueError):
            token_window_split(sem_chunk(10), 10, 10)

    def test_chunk_text_matches_span(self):
        for chunk in token_window_split(sem_chunk(250), 100, 16):
            start, end = chunk.token_span
            assert chunk.text == " ".join(f"t{i}" for i in range(start, end))

    @given(st.integers(min_value=1, max_value=2000))
    @settings(max_examples=200)
    def test_coverage_overlap_and_size(self, total):
        chunks = token_window_split(sem_chunk(total), 100, 16)
        spans = [c.token_span for c in chunks]
        assert spans[0][0] == 0
        assert spans[-1][1] == total
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 - s2 == 16  # exact overlap, tail included
            assert s2 > s1 and e2 > e1
        assert all(e - s <= 100 for s, e in spans)
        covered = set()
        for s, e in spans:
            covered.update(range(s, e))
        assert covered == set(range(total))

    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=2, max_value=120),
        st.integers(min_value=0, max_value=119),
    )
    @settings(max_examples=150)
    def test_arbitrary_size_overlap(self, total, size, overlap):
        if overlap >= size:
            overlap = size - 1
        chunks = token_window_split(sem_chunk(total), size, overlap)
        spans = [c.token_span for c in chunks]
        assert spans[0][0] == 0 and spans[-1][1] == total
        assert all(e - s <= size for s, e in spans)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert s2 - s1 == size - overlap


class TestConfig:
    def test_defaults(self):
        cfg = ChunkerConfig()
        assert (cfg.window_k, cfg.percentile, cfg.chunk_size, cfg.overlap) == (1, 95.0, 100, 16)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"overlap": 100},
            {"overlap": -1},
            {"percentile": 0.0},
            {"percentile": 101.0},
            {"chunk_size": 1},
            {"window_k": -1},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            ChunkerConfig(**{**dict(window_k=1, percentile=95.0, chunk_size=100, overlap=16), **kwargs})


def per_line_json_loads(text: str) -> list[Chunk] | None:
    """The reference reader: ``json.loads`` per non-blank line; None where it rejects the file.

    Lines are what ``read_text`` gives (CR and CRLF read as LF) split at LF
    alone: U+0085, U+2028 and U+2029 may stand raw inside a JSON string. A
    record's ``chunk_id`` and ``text`` must be strings that UTF-8 can encode
    (no lone surrogate), the id must hold ``#t`` after at least one
    character, and its ``span`` must be a list of two ints, ``bool`` excluded.
    Other keys are not read.
    """
    chunks = []
    for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            strings = [obj["chunk_id"], obj["text"]]
            span = obj["span"]
            if any(type(v) is not str for v in strings) or type(span) is not list:
                return None
            if obj["chunk_id"].rfind("#t") < 1:
                return None
            if [type(v) for v in span] != [int, int]:
                return None
            for v in strings:
                v.encode("utf-8")
            chunks.append(Chunk(chunk_id=obj["chunk_id"], token_span=(span[0], span[1]), text=obj["text"]))
        except (json.JSONDecodeError, KeyError, TypeError, UnicodeEncodeError):
            return None
    return chunks


# JSON's escapes (quote, backslash, control characters) and what it leaves raw
# (U+2028/U+2029, NBSP, emoji), but no lone surrogate, which UTF-8 cannot encode.
AWKWARD_RECORD_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\r", "\t", "\x7f", "\u2028", "\u2029", "\xa0", "🍕", "é"]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
)
RECORD = '{"chunk_id": "d#s0#t0", "span": [0, 3], "text": "a  b"}'
RECORD_2 = '{"chunk_id":"d#s0#t1","span":[2,4],"text":"b c "}'


def without(key: str) -> str:
    obj = json.loads(RECORD)
    del obj[key]
    return json.dumps(obj)


class TestReadChunksJsonl:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            RECORD,
            RECORD + "\n" + RECORD_2 + "\n",
            "\n  \n" + RECORD + "\n\n\t\n" + RECORD_2,  # blank lines
            " \t" + RECORD + "\t  ",  # JSON whitespace around a record
            RECORD + "\r\n" + RECORD_2 + "\r\n",
            "\xa0\n\x1f\n" + RECORD,  # str.strip-blank lines that are not JSON whitespace
            "\xa0" + RECORD,
            RECORD + "\xa0",
            "\ufeff" + RECORD,
            "\u3000" + RECORD,
            RECORD + " x",  # trailing data
            RECORD + RECORD_2,  # two records on one line
            RECORD + " " + RECORD_2,
            RECORD + "\n" + RECORD[:-1],  # truncated
            "[1, 2]",
            '"text"',
            "null",
            "42",
            without("chunk_id"),
            RECORD.replace('"d#s0#t0"', '"#t0"'),  # an id that names no document
            RECORD.replace('"d#s0#t0"', '"d#s0"'),  # an id that names no parent
            *(without(key) for key in ("span", "text")),
            RECORD.replace("[0, 3]", "[0]"),
            RECORD.replace("[0, 3]", "7"),
            RECORD.replace("[0, 3]", "[0, 3, 5]"),
            RECORD.replace("[0, 3]", "[0, true]"),
            RECORD.replace('"d#s0#t0"', '["x"]'),
            RECORD.replace('"d#s0#t0"', "7"),
            RECORD.replace('"span"', '"parent": ["x"], "span"'),  # format-5 keys, which no reader reads
            RECORD.replace('"span"', '"doc_id": 5, "span"'),
            RECORD.replace('"a  b"', "null"),
            RECORD + "\n" + RECORD_2.replace('"b c "', '"b \\ud800c"'),
            RECORD_2.replace('"d#s0#t1"', '"d#s0\\udfff#t1"'),
            RECORD.replace('"a  b"', '"a \\ud83c\\udf55 \\\\ud800 b"'),
            RECORD.replace('"a  b"', '"a\u2028 b\u0085\u2029"'),
            RECORD + "\n" + RECORD_2.replace("d#s0#t1", "d\u2028#s0#t1"),
        ],
        ids=[
            "empty-file", "one", "two", "blank-lines", "json-whitespace", "crlf", "nbsp-and-unit-separator-lines",
            "nbsp-before", "nbsp-after", "bom", "ideographic-space", "trailing-data", "two-on-one-line",
            "two-spaced", "truncated", "array", "string", "null", "number", "no-chunk_id", "no-doc_id",
            "no-parent", "no-span", "no-text", "short-span", "scalar-span", "long-span", "bool-in-span",
            "list-chunk_id", "int-chunk_id", "list-parent", "int-doc_id", "null-text", "lone-surrogate-in-text",
            "lone-surrogate-in-parent", "escaped-pair-and-escaped-backslash", "raw-line-separators-in-text",
            "raw-line-separator-in-id",
        ],
    )
    def test_accepts_and_rejects_what_json_loads_did(self, tmp_path, text):
        path = tmp_path / "chunks.jsonl"
        path.write_bytes(text.encode("utf-8"))
        expected = per_line_json_loads(text)
        if expected is None:
            with pytest.raises(StoreCorruptError, match="bad chunk record"):
                read_chunks_jsonl(path)
        else:
            assert read_chunks_jsonl(path) == expected

    @pytest.mark.parametrize(
        "span, text",
        [((0.5, 2), "a b"), (("0", 2), "a b"), ((0, 2.0), "a b"), ((True, 2), "a b"), ((0, 2), 5)],
        ids=["float-start", "str-start", "float-end", "bool-start", "int-text"],
    )
    def test_non_integer_spans_and_non_string_texts_are_corrupt(self, tmp_path, span, text):
        records = [
            {"chunk_id": "p#t0", "span": [0, 2], "text": "a b"},
            {"chunk_id": "p#t1", "span": list(span), "text": text},
        ]
        path = tmp_path / "chunks.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        named = "line 2: bad chunk record: chunk 'p#t1' has a non-integer span or a non-string text"
        with pytest.raises(StoreCorruptError, match=named):
            read_chunks_jsonl(path)

    @given(st.lists(st.tuples(AWKWARD_RECORD_TEXT.filter(bool), AWKWARD_RECORD_TEXT, AWKWARD_RECORD_TEXT,
                              st.integers(0, 2**40), st.integers(0, 2**40)), max_size=6))
    @example([('"q"\\', "\x00\x1f\x7f\u2028\u2029", "a\xa0🍕\n\t\r", 0, 3)])
    def test_writer_equals_json_dumps_and_reads_back(self, rows):
        chunks = [Chunk(f"{parent}#t{tail}", (start, stop), text) for parent, tail, text, start, stop in rows]
        records = [{"chunk_id": c.chunk_id, "span": list(c.token_span), "text": c.text} for c in chunks]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "chunks.jsonl"
            write_chunks_jsonl(chunks, path)
            assert path.read_bytes() == "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode()
            assert read_chunks_jsonl(path) == chunks
        assert [chunk_to_json(c) for c in chunks] == [json.dumps(r, ensure_ascii=False) for r in records]

    @given(
        st.lists(st.one_of(st.sampled_from(["#t", "#s", "#t0", "\n", "\u2028", "é", "🍕", "Ω"]),
                           st.characters(blacklist_categories=("Cs",))), max_size=8).map("".join),
        st.lists(st.lists(st.sampled_from(["Rome", "#t1", "é", "a\u2028b"]), min_size=1, max_size=9).map(" ".join),
                 min_size=1, max_size=5),
        st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4),
    )
    @example("d#t3#s1\nΩ", ["Rome Rome é", "#t1 Rome", "é"], [0.0, 1.0, 0.5, 0.5])
    def test_ids_name_their_parents_and_round_trip(self, doc_id, sentences, distances):
        """Every chunk a document's split gives reads back as itself and names its semantic chunk."""
        distances = distances[: len(sentences) - 1]
        for sem in semantic_split(doc_id, sentences, distances, ChunkerConfig(percentile=50.0)):
            assert sem.chunk_id.startswith(doc_id)
            for chunk in token_window_split(sem, chunk_size=3, overlap=1):
                assert chunk.parent_semantic_chunk == sem.chunk_id
                assert chunk_from_json(chunk_to_json(chunk), 1) == chunk

    def test_written_chunks_read_back(self, tmp_path):
        sem = SemanticChunk("d#s0", (0, 0), (" ".join(f"w{i}" for i in range(30)),))
        chunks = token_window_split(sem, chunk_size=8, overlap=3)
        write_chunks_jsonl(chunks, tmp_path / "chunks.jsonl")
        read = read_chunks_jsonl(tmp_path / "chunks.jsonl")
        assert read == chunks
        text = " ".join(f"w{i}" for i in range(5, 13))
        expected = Chunk(chunk_id="d#s0#t1", token_span=(5, 13), text=text)
        assert {type(chunk) for chunk in chunks + read} == {Chunk} and read[1] == chunks[1] == expected
        assert {chunk.parent_semantic_chunk for chunk in read} == {"d#s0"}

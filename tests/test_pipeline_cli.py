from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kgrag
import kgrag.embedding as embedding_mod
from kgrag.chunking import Chunk, ChunkerConfig, build_windows
from kgrag.cli import main
from kgrag.corpus import Document, load_corpus, normalize_text, split_sentences
from kgrag.embedding import HashedEmbedder
from kgrag.exceptions import InputError, StoreCorruptError
from kgrag.extraction import EXTRACTION_USER_TEMPLATE, RuleExtractor
from kgrag.graph import KnowledgeGraph, _encode
from kgrag.pipeline import (
    STORE_FILES,
    STORE_FORMAT_VERSION,
    build_store,
    chunk_documents,
    open_store,
    reconstruct_parent_texts,
    run_query,
)
from kgrag.retriever import MODES, QueryConfig
from kgrag.vector_index import VectorStore

from conftest import MINI_CORPUS, MINI_QUESTIONS
from helpers import EDGE_LAYOUT, record_texts, set_graph_field


def write_corpus(tmp_path: Path) -> Path:
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text(
        "Rome is the capital of Italy. Rome hosts ancient festivals. "
        "The Tiber crosses Rome on its way to the sea.",
        encoding="utf-8",
    )
    (corpus / "b.txt").write_text(
        "Naples is the birthplace of Margherita pizza. Naples faces Vesuvius across the bay.",
        encoding="utf-8",
    )
    return corpus


class TestPipelineUnits:
    def test_reconstruct_parent_texts_round_trip(self):
        doc = Document(
            doc_id="d",
            text=" ".join(f"w{i}" for i in range(250)) + ".",
        )
        semantic, chunks, _ = chunk_documents([doc], HashedEmbedder(64), ChunkerConfig(window_k=0))
        rebuilt = reconstruct_parent_texts(chunks)
        for sem in semantic:
            assert rebuilt[sem.chunk_id] == " ".join(" ".join(sem.sentences).split())

    def test_repeated_doc_id_reaches_the_duplicate_chunk_check(self):
        # Documents go through chunking as a list, so a repeated id is kept, not merged.
        docs = [Document("d", "Rome is old."), Document("d", "Parma makes cheese.")]
        semantic, chunks, _ = chunk_documents(docs, HashedEmbedder(64), ChunkerConfig())
        assert [c.text for c in chunks] == ["Rome is old.", "Parma makes cheese."]
        assert [c.chunk_id for c in chunks] == ["d#s0#t0", "d#s0#t0"]
        with pytest.raises(ValueError, match="duplicate chunk_id 'd#s0#t0'"):
            VectorStore(64).add(chunks, HashedEmbedder(64).embed_batch([c.text for c in chunks]))

    def test_build_store_writes_all_files_and_counts(self, tmp_path):
        corpus = write_corpus(tmp_path)
        out = tmp_path / "store"
        manifest = build_store(corpus, out)
        for name in ("manifest.json", "chunks.jsonl", "vectors.skvx", "graph.json"):
            assert (out / name).is_file()
        chunk_lines = (out / "chunks.jsonl").read_text().splitlines()
        assert manifest.counts["chunks"] == len(chunk_lines)
        assert manifest.counts["documents"] == 2
        graph_obj = json.loads((out / "graph.json").read_text())
        assert manifest.counts["nodes"] == len(graph_obj["nodes"])
        assert len(graph_obj["edges"]) == 4
        assert [manifest.counts["edges"]] * 4 == list(map(len, graph_obj["edges"]))

    def test_build_store_refuses_populated_dir(self, tmp_path):
        corpus = write_corpus(tmp_path)
        out = tmp_path / "store"
        out.mkdir()
        (out / "keep.txt").write_text("mine")
        from kgrag.exceptions import InputError

        with pytest.raises(InputError):
            build_store(corpus, out)
        assert (out / "keep.txt").read_text() == "mine"

    def test_build_store_atomic_on_failure(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "good.txt").write_text("Fine text here.", encoding="utf-8")
        (corpus / "bad.jsonl").write_text("{broken json", encoding="utf-8")
        out = tmp_path / "store"
        from kgrag.exceptions import InputError

        with pytest.raises(InputError):
            build_store(corpus, out)
        assert not out.exists()

    def test_open_store_round_trip_query(self, tmp_path):
        corpus = write_corpus(tmp_path)
        out = tmp_path / "store"
        build_store(corpus, out)
        store = open_store(out)
        result = run_query(store, "What crosses Rome?", QueryConfig())
        assert "rome" in result.structured_text
        assert result.ranked_chunks

    def test_open_store_missing_manifest_corrupt(self, tmp_path):
        corpus = write_corpus(tmp_path)
        out = tmp_path / "store"
        build_store(corpus, out)
        (out / "manifest.json").unlink()
        from kgrag.exceptions import StoreCorruptError

        with pytest.raises(StoreCorruptError):
            open_store(out)


NAMES = ["Naples", "Pizza", "Rome", "It", "The", "Dr.", "Vesuvius", "Parma"]
LOWER = ["is", "from", "near", "bakes", "the", "of"]


@st.composite
def paragraphs(draw) -> tuple[str, bool]:
    """A paragraph of 1-4 sentences, and whether its last sentence ends in a terminator.

    Abbreviations such as ``Dr.`` appear only inside a sentence, never as its
    last word, so a terminator at the end always closes the sentence.
    """
    sentences = []
    for _ in range(draw(st.integers(1, 4))):
        words = draw(st.lists(st.sampled_from(NAMES + LOWER), max_size=6))
        words.append(draw(st.sampled_from([w for w in NAMES + LOWER if not w.endswith(".")])))
        sentences.append(" ".join(words) + draw(st.sampled_from([".", "?", "!", ""])))
    separator = draw(st.sampled_from([" ", "\n", "\xa0 "]))
    return separator.join(sentences), sentences[-1][-1] in ".?!"


def reference_route_triples(sentences: tuple[str, ...], provenance: str) -> list:
    """The reference route: join the chunk's sentences, split them again, extract per sentence."""
    return [t for s in split_sentences(" ".join(sentences)) for t in RuleExtractor().triples([s], provenance)]


# Words whose lowercasing is context- or length-sensitive (final sigma, dotted
# capital I), punctuation, and the whitespace characters a sentence may hold.
ROW_WORDS = ["Rome", "rome", "ΟΔΟΣ", "Σ", "ΑΣ.", "İstanbul", "İ", "ǅemal", "Ⓐ", "!!", "e\u0301", "pizza", "🍕"]
ROW_SPACES = [" ", "\u00a0", "\u2003", "\t", " \t "]


@st.composite
def row_documents(draw) -> list[Document]:
    """Documents of sentences with mixed whitespace inside; some have no sentences at all."""
    documents = []
    for i in range(draw(st.integers(0, 4))):
        sentences = []
        for _ in range(draw(st.integers(0, 9))):
            words = draw(st.lists(st.sampled_from(ROW_WORDS), min_size=1, max_size=12))
            spaces = draw(st.lists(st.sampled_from(ROW_SPACES), min_size=len(words), max_size=len(words)))
            sentences.append("".join(w + s for w, s in zip(words, spaces)).rstrip() + ".")
        documents.append(Document(f"d{i}", " ".join(sentences) or draw(st.sampled_from(["", " \t "]))))
    return documents


def assert_rows_are_the_chunk_texts_rows(documents, config: ChunkerConfig, dimension: int) -> list[Chunk]:
    _, chunks, rows = chunk_documents(documents, HashedEmbedder(dimension), config)
    expected = HashedEmbedder(dimension).embed_batch([c.text for c in chunks])
    assert rows.dtype == np.float32 and rows.shape == (len(chunks), dimension)
    assert rows.tobytes() == expected.tobytes()
    return chunks


class TestHashedChunkRows:
    @given(
        row_documents(),
        st.integers(0, 2),
        st.sampled_from([50.0, 95.0]),
        st.integers(2, 12).flatmap(lambda size: st.tuples(st.just(size), st.integers(0, size - 1))),
        st.sampled_from([1, 2, 3, 256]),
        st.sampled_from([8, 64]),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_embedding_the_chunk_texts(self, documents, k, percentile, size_overlap, block, dimension):
        config = ChunkerConfig(window_k=k, percentile=percentile, chunk_size=size_overlap[0], overlap=size_overlap[1])
        with mock.patch.object(embedding_mod, "_BLOCK_ROWS", block):
            assert_rows_are_the_chunk_texts_rows(documents, config, dimension)

    def test_a_build_hashes_each_distinct_token_once(self, tmp_path, monkeypatch):
        hashed = record_texts(monkeypatch, embedding_mod, "fnv1a64")
        build_store(MINI_CORPUS, tmp_path / "store")
        sentences = [s for doc in load_corpus(MINI_CORPUS) for s in split_sentences(doc.text)]
        assert sorted(hashed) == sorted({w.encode() for s in sentences for w in s.lower().split()})

    def test_a_window_block_edge_inside_a_document(self):
        # 3 x 110 sentences: the default 256-row block ends inside the third document.
        words = [ROW_WORDS[i % len(ROW_WORDS)] for i in range(112)]
        documents = [
            Document(f"d{d}", " ".join(f"{words[d + i]}\u00a0w{i % 17} ΟΔΟΣ." for i in range(110))) for d in range(3)
        ]
        assert sum(len(split_sentences(doc.text)) for doc in documents) > embedding_mod._BLOCK_ROWS
        chunks = assert_rows_are_the_chunk_texts_rows(documents, ChunkerConfig(chunk_size=6, overlap=2), 64)
        windows = Counter(c.parent_semantic_chunk for c in chunks)
        assert len(windows) > len(documents) and min(windows.values()) > 2


class TestSemanticChunkTriples:
    @given(st.lists(paragraphs(), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_triples_of_a_chunk_are_those_of_its_document_sentences(self, drawn):
        doc = Document("d", normalize_text("\n\n".join(text for text, _ in drawn)))
        doc_sentences = split_sentences(doc.text)
        semantic, _, _ = chunk_documents([doc], HashedEmbedder(64), ChunkerConfig(window_k=1, percentile=50))
        for sem in semantic:
            start, end = sem.sentence_span
            assert sem.sentences == tuple(doc_sentences[start : end + 1])
            expected = [t for s in doc_sentences[start : end + 1] for t in RuleExtractor().triples([s], sem.chunk_id)]
            got = RuleExtractor().triples(sem.sentences, sem.chunk_id)
            assert got == expected
            if all(terminated for _, terminated in drawn):
                assert got == reference_route_triples(sem.sentences, sem.chunk_id)

    def test_heading_without_terminator_makes_no_triple(self, tmp_path):
        # Re-splitting the joined chunk would merge the heading into the next sentence
        # and make the node "naples pizza it" with an edge is_from across the break.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.txt").write_text("Naples Pizza\n\nIt is from Rome.", encoding="utf-8")
        manifest = build_store(corpus, tmp_path / "store")
        assert manifest.counts["semantic_chunks"] == 1
        assert (manifest.counts["nodes"], manifest.counts["edges"]) == (0, 0)
        empty = {"nodes": [], "relations": [], "chunks": [], "edges": [[], [], [], []]}
        assert json.loads((tmp_path / "store" / "graph.json").read_text()) == empty

    def test_build_calls_the_splitter_once_per_document(self, tmp_path, monkeypatch):
        import kgrag.extraction
        import kgrag.pipeline

        calls = []

        def counting(text):
            calls.append(text)
            return split_sentences(text)

        for module in (kgrag.pipeline, kgrag.extraction):
            monkeypatch.setattr(module, "split_sentences", counting)
        corpus = write_corpus(tmp_path)
        build_store(corpus, tmp_path / "store")
        assert calls == [doc.text for doc in load_corpus(corpus)]


def split_join_reference(chunks: list[Chunk]) -> dict[str, str]:
    """The reference rebuild: split every window into tokens, drop the overlap, re-join."""
    by_parent: dict[str, list[Chunk]] = {}
    for chunk in chunks:
        by_parent.setdefault(chunk.parent_semantic_chunk, []).append(chunk)
    texts: dict[str, str] = {}
    for parent, members in by_parent.items():
        members.sort(key=lambda c: c.token_span[0])
        tokens: list[str] = []
        covered = 0
        for member in members:
            start, _ = member.token_span
            member_tokens = member.text.split(" ") if member.text else []
            tokens.extend(member_tokens[covered - start :] if covered > start else member_tokens)
            covered = max(covered, member.token_span[1])
        texts[parent] = " ".join(tokens)
    return texts


def window(parent: str, j: int, tokens: list[str], start: int, end: int) -> Chunk:
    return Chunk(f"{parent}#t{j}", (start, end), " ".join(tokens[start:end]))


@st.composite
def tiled_windows(draw) -> list[Chunk]:
    """Windows of 1-3 parents that tile them, shuffled together.

    Tokens may be empty (``"a  b"``, a trailing space); a window holds at
    least one token, as a build's do, and may start right at the covered end
    (overlap 0) or lie wholly inside it (overlap of the whole window).
    """
    chunks = []
    for p in range(draw(st.integers(1, 3))):
        tokens = draw(st.lists(st.sampled_from(["a", "bc", "", "d", "é"]), min_size=1, max_size=12))
        covered = 0
        for j in range(draw(st.integers(1, 5))):
            start = draw(st.integers(0, min(covered, len(tokens) - 1)))
            end = draw(st.integers(start + 1, len(tokens)))
            chunks.append(window(f"p{p}", j, tokens, start, end))
            covered = max(covered, end)
    return draw(st.permutations(chunks))


class TestReconstructParentTexts:
    @given(tiled_windows())
    @example([window("p", 0, ["a", "", "b", ""], 0, 4)])  # a single member: "a  b "
    @example([window("p", 1, ["a", "", "b", "c"], 2, 4), window("p", 0, ["a", "", "b", "c"], 0, 3)])
    @example([window("p", 0, ["a", "b"], 0, 1), window("p", 1, ["a", "b"], 1, 2)])  # overlap 0
    @example([window("p", 0, ["a", "b", "c"], 0, 3), window("p", 1, ["a", "b", "c"], 1, 3)])  # whole window
    @example([window("p", 0, ["", ""], 0, 2), window("p", 1, ["", ""], 1, 2)])
    def test_equals_split_join_reference(self, chunks):
        assert reconstruct_parent_texts(chunks) == split_join_reference(list(chunks))

    @pytest.mark.parametrize(
        "spans, fault",
        [
            ([(1, 3)], "past the"),
            ([(0, 2), (3, 4)], "past the"),
            ([(0, 1), (0, 2), (3, 4)], "past the"),
            ([(-3, 2), (2, 4)], "^chunk 'p#t0' starts at token -3 and ends at token 2: a span must satisfy 0 <= start < end$"),
            ([(0, 1), (1, 1)], "^chunk 'p#t1' starts at token 1 and ends at token 1: a span must satisfy"),
            ([(0, 3), (2, 1)], "^chunk 'p#t1' starts at token 2 and ends at token 1: a span must satisfy"),
        ],
        ids=["first-past-0", "gap", "gap-after-nested", "negative-start", "empty", "end-before-start"],
    )
    def test_windows_that_do_not_tile_are_corrupt(self, spans, fault):
        tokens = ["a", "b", "c", "d"]
        chunks = [window("p", j, tokens, start, end) for j, (start, end) in enumerate(spans)]
        with pytest.raises(StoreCorruptError, match=fault):
            reconstruct_parent_texts(chunks)

    @pytest.mark.parametrize(
        "text, fault",
        [
            ("a b", "^chunk 'p#t1' text holds 2 space-separated tokens, but its span \\[1, 4\\) covers 3$"),
            ("b c d e", "^chunk 'p#t1' text holds 4 space-separated tokens, but its span"),
            ("b  c d", "^chunk 'p#t1' text holds 4 space-separated tokens, but its span"),  # "" is a token
            ("b\tc d", "^chunk 'p#t1' text holds 2 space-separated tokens, but its span"),
            ("", "^chunk 'p#t1' text holds 1 space-separated tokens, but its span"),
        ],
        ids=["short", "long", "double-space", "tab", "empty"],
    )
    def test_a_text_that_does_not_hold_its_span_is_corrupt(self, text, fault):
        chunks = [window("p", 0, ["a", "b"], 0, 2), Chunk("p#t1", (1, 4), text)]
        with pytest.raises(StoreCorruptError, match=fault):
            reconstruct_parent_texts(chunks)


class TestCmdIndex:
    def test_success_and_artifact_contract(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        out = tmp_path / "store"
        assert main(["index", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert "indexed 2 documents" in capsys.readouterr().out
        for name in ("manifest.json", "chunks.jsonl", "vectors.skvx", "graph.json"):
            assert (out / name).is_file()

    def test_last_line_gives_store_and_graph_bytes(self, tmp_path, capsys):
        out = tmp_path / "store"
        assert main(["index", "--corpus", str(write_corpus(tmp_path)), "--out", str(out)]) == 0
        sizes = {p.name: p.stat().st_size for p in out.iterdir()}
        assert len(sizes) == 4 and sizes["graph.json"] > 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == f"store written to {out} ({sum(sizes.values())} bytes, graph.json {sizes['graph.json']} bytes)"

    def test_a_byte_order_mark_opening_a_corpus_file_is_dropped(self, tmp_path):
        files = {
            "a.txt": "Rome is the capital of Italy. The Tiber crosses Rome on its way to the sea.",
            "b.jsonl": '{"id": "b", "text": "Naples is the birthplace of Margherita pizza."}\n',
        }
        stores = []
        for bom in ("", "\ufeff"):
            corpus = tmp_path / f"corpus{len(bom)}"
            corpus.mkdir()
            for name, text in files.items():
                (corpus / name).write_text(bom + text, encoding="utf-8")
            build_store(corpus, tmp_path / f"store{len(bom)}")
            stores.append({p.name: p.read_bytes() for p in (tmp_path / f"store{len(bom)}").iterdir()})
        assert len(stores[0]) == 4 and stores[1] == stores[0]
        assert '"rome"' in stores[0]["graph.json"].decode() and "\ufeff" not in stores[1]["chunks.jsonl"].decode()

    def test_missing_corpus_exit_2(self, tmp_path, capsys):
        code = main(["index", "--corpus", str(tmp_path / "nope"), "--out", str(tmp_path / "s")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("below", [(), ("sub",), ("sub", "deeper")], ids=["file", "under-file", "two-under-file"])
    def test_out_at_or_under_a_file_exit_2_and_file_untouched(self, tmp_path, capsys, below):
        blocker = tmp_path / "taken"
        blocker.write_text("mine", encoding="utf-8")
        out = blocker.joinpath(*below)
        assert main(["index", "--corpus", str(write_corpus(tmp_path)), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot use {out} as the output directory: ")
        assert blocker.read_text(encoding="utf-8") == "mine"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "taken"]

    @pytest.mark.parametrize("files", [{}, {"notes.md": "Rome is old."}, {"a.txt": " \n\n ", "b.jsonl": '{"id": "b", "text": ""}\n'}],
                             ids=["empty-dir", "no-corpus-files", "only-empty-documents"])
    def test_corpus_without_documents_exit_2_and_no_store(self, tmp_path, capsys, files):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name, text in files.items():
            (corpus / name).write_text(text, encoding="utf-8")
        out = tmp_path / "store"
        assert main(["index", "--corpus", str(corpus), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: no documents in corpus {corpus}\n"
        assert not out.exists()

    def test_corpus_without_documents_leaves_an_empty_out_dir_empty(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        out = tmp_path / "store"
        out.mkdir()
        with pytest.raises(InputError, match="no documents"):
            build_store(corpus, out)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "line",
        [
            '{"id": 1, "text": null}',
            '{"id": "d", "text": ["Rome is old."]}',
            '{"id": "d", "text": 5}',
            '{"id": true, "text": "Rome is old."}',
            '{"id": 1.5, "text": "Rome is old."}',
            '{"id": null, "text": "Rome is old."}',
            '{"id": ["d"], "text": "Rome is old."}',
        ],
        ids=["text-null", "text-list", "text-int", "id-bool", "id-float", "id-null", "id-list"],
    )
    def test_jsonl_field_of_wrong_type_exit_2(self, tmp_path, capsys, line):
        corpus = tmp_path / "docs.jsonl"
        corpus.write_text('{"id": "ok", "text": "Naples is warm."}\n' + line + "\n", encoding="utf-8")
        out = tmp_path / "store"
        assert main(["index", "--corpus", str(corpus), "--out", str(out)]) == 2
        assert f"error: malformed JSONL in {corpus} line 2: 'id' must be" in capsys.readouterr().err
        assert not out.exists()

    def test_jsonl_lone_surrogate_exit_2_before_any_build_work(self, tmp_path, capsys):
        corpus = tmp_path / "docs.jsonl"
        lines = ['{"id": "ok", "text": "Naples is warm."}', '{"id": "d", "text": "Rome \\ud800."}']
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "store"
        assert main(["index", "--corpus", str(corpus), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: malformed JSONL in {corpus} line 2: 'text' holds the lone surrogate" in err
        assert not out.exists()

    def test_deterministic_artifacts(self, tmp_path):
        corpus = write_corpus(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["index", "--corpus", str(corpus), "--out", str(out1)]) == 0
        assert main(["index", "--corpus", str(corpus), "--out", str(out2)]) == 0
        for name in ("vectors.skvx", "graph.json", "chunks.jsonl", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_flags_round_trip_into_manifest(self, tmp_path):
        corpus = write_corpus(tmp_path)
        out = tmp_path / "store"
        code = main(
            [
                "index", "--corpus", str(corpus), "--out", str(out),
                "--window", "2", "--percentile", "80", "--chunk-size", "50",
                "--overlap", "10", "--embed-dim", "128",
            ]
        )
        assert code == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["chunker"] == {"window_k": 2, "percentile": 80.0, "chunk_size": 50, "overlap": 10}
        assert config["provider"]["dimension"] == 128
        assert config["provider"]["kind"] == "hashed"
        assert config["extractor"]["kind"] == "rule"

    def test_config_file_overridden_by_flags(self, tmp_path):
        corpus = write_corpus(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"chunker": {"window_k": 3, "percentile": 70}}))
        out = tmp_path / "store"
        assert main(
            ["index", "--corpus", str(corpus), "--out", str(out), "--config", str(cfg), "--window", "0"]
        ) == 0
        chunker = json.loads((out / "manifest.json").read_text())["config"]["chunker"]
        assert chunker["window_k"] == 0  # flag wins
        assert chunker["percentile"] == 70.0  # file beats default

    @pytest.mark.parametrize("window", [2**63 - 1, 10**20])
    def test_window_past_every_document_builds_as_window_1000(self, tmp_path, capsys, window):
        # No mini-corpus document has 1000 sentences, so both windows span whole documents.
        huge, reference = tmp_path / "huge", tmp_path / "k1000"
        assert main(["index", "--corpus", str(MINI_CORPUS), "--out", str(huge), "--window", str(window)]) == 0
        assert main(["index", "--corpus", str(MINI_CORPUS), "--out", str(reference), "--window", "1000"]) == 0
        for name in ("vectors.skvx", "chunks.jsonl", "graph.json"):
            assert (huge / name).read_bytes() == (reference / name).read_bytes()
        manifest = json.loads((huge / "manifest.json").read_text())
        assert manifest["config"]["chunker"]["window_k"] == window
        manifest["config"]["chunker"]["window_k"] = 1000
        assert manifest == json.loads((reference / "manifest.json").read_text())
        assert open_store(huge).manifest.chunker.window_k == window

    @pytest.mark.parametrize("dimension", [2**64, 10**20])
    def test_embed_dim_past_the_vector_file_u32_exit_2(self, tmp_path, capsys, dimension):
        out = tmp_path / "store"
        assert main(["index", "--corpus", str(MINI_CORPUS), "--out", str(out), "--embed-dim", str(dimension)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: config section 'provider': bad value: embedding dimension must be <= 4294967295, got {dimension}\n"
        )
        assert not out.exists()

    def test_invalid_flag_combo_exit_2(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        code = main(
            ["index", "--corpus", str(corpus), "--out", str(tmp_path / "s"),
             "--chunk-size", "10", "--overlap", "10"]
        )
        assert code == 2


class TestConfigFileErrors:
    @pytest.mark.parametrize(
        ("config", "named"),
        [
            ({"chunker": {"windowk": 2}}, ["'chunker'", "'windowk'"]),
            ({"chunker": 5}, ["'chunker'", "int"]),
            ({"provider": {"dim": 64}}, ["'provider'", "'dim'"]),
            ({"extractor": ["rule"]}, ["'extractor'", "list"]),
            ({"query": {"top_k": 3}}, ["'query'", "'top_k'"]),
            ({"chunker": {"window_k": "2"}}, ["'chunker'"]),
            ({"chunkr": {"window_k": 2}}, ["'chunkr'"]),
            ({"chunker": {"chunk_size": 50.5}}, ["'chunker'", "'chunk_size' must be int, got float"]),
            ({"chunker": {"window_k": 1.5}}, ["'chunker'", "'window_k' must be int, got float"]),
            ({"chunker": {"window_k": True}}, ["'chunker'", "'window_k' must be int, got bool"]),
            ({"chunker": {"percentile": "95"}}, ["'chunker'", "'percentile' must be float, got str"]),
            ({"provider": {"dimension": 64.5}}, ["'provider'", "'dimension' must be int, got float"]),
            ({"provider": {"model_name": 7}}, ["'provider'", "'model_name' must be str, got int"]),
            ({"query": {"hops": 1.5}}, ["'query'", "'hops' must be int, got float"]),
        ],
    )
    @pytest.mark.parametrize("command", ["index", "query", "eval"])
    def test_exit_2_naming_section_and_key(self, tmp_path, capsys, config, named, command):
        # query and eval build only the query section, yet check every section the file holds.
        corpus = write_corpus(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        if command == "index":
            argv = ["index", "--corpus", str(corpus), "--out", str(out)]
        else:
            store = tmp_path / "store"
            build_store(corpus, store)
            records = tmp_path / "records.jsonl"
            records.write_text(json.dumps({"question": "What crosses Rome?", "ground_truth": "The Tiber."}) + "\n")
            argv = ["query", "--store", str(store), "--question", "What crosses Rome?"]
            if command == "eval":
                argv = ["eval", "--store", str(store), "--records", str(records), "--out", str(out)]
        assert main([*argv, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: config ")
        for text in named:
            assert text in captured.err
        assert not out.exists()

    def test_query_and_eval_unknown_query_key_exit_2(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        store = tmp_path / "store"
        build_store(corpus, store)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"query": {"hopz": 2}}))
        records = tmp_path / "records.jsonl"
        record = {"question": "What crosses Rome?", "ground_truth": "The Tiber."}
        records.write_text(json.dumps(record) + "\n")
        commands = [
            ["query", "--store", str(store), "--question", "What crosses Rome?", "--config", str(cfg)],
            ["eval", "--store", str(store), "--records", str(records), "--out", str(tmp_path / "r.csv"),
             "--config", str(cfg)],
        ]
        for argv in commands:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "error: config section 'query': unknown key 'hopz'" in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        ("key", "value", "named"),
        [
            ("hops", 1.5, "'hops' must be int, got float"),
            ("final_m_chunks", 1.5, "'final_m_chunks' must be int, got float"),
            ("top_n_candidates", 8.5, "'top_n_candidates' must be int, got float"),
            ("beta", False, "'beta' must be float, got bool"),
            ("mode", None, "'mode' must be str, got NoneType"),
        ],
    )
    def test_query_wrong_type_exit_2(self, store_dir, capsys, key, value, named):
        cfg = store_dir.parent / "cfg.json"
        cfg.write_text(json.dumps({"query": {key: value}}))
        argv = ["query", "--store", str(store_dir), "--question", "What crosses Rome?", "--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: config section 'query': bad value: {named}" in captured.err

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_query_non_finite_beta_flag_exit_2(self, store_dir, capsys, beta):
        # json.dumps would print the final score NaN or Infinity, which is not JSON
        argv = ["query", "--store", str(store_dir), "--question", "What crosses Rome?", "--json", "--beta", beta]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: config section 'query': bad value: beta must be finite and >= 0" in captured.err

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf")])
    def test_query_non_finite_beta_in_config_file_exit_2(self, store_dir, capsys, beta):
        cfg = store_dir.parent / "cfg.json"
        cfg.write_text(json.dumps({"query": {"beta": beta}}))  # NaN and Infinity, which json.loads reads back
        argv = ["query", "--store", str(store_dir), "--question", "What crosses Rome?", "--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: config section 'query': bad value: beta must be finite and >= 0" in captured.err

    @pytest.mark.parametrize("command", ["query", "index"])
    def test_non_utf8_config_file_exit_2(self, store_dir, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"query": {"beta": 0.5}, "\xff": {}}')
        work = tmp_path / "work"
        work.mkdir()
        out = work / "store"
        if command == "query":
            argv = ["query", "--store", str(store_dir), "--question", "What crosses Rome?", "--config", str(cfg)]
        else:
            argv = ["index", "--corpus", str(write_corpus(work)), "--out", str(out), "--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot read config file {cfg}: 'utf-8' codec can't decode" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["query", "index"])
    def test_config_file_with_a_byte_order_mark_is_read(self, store_dir, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('\ufeff{"query": {"final_m_chunks": 1}}', encoding="utf-8")
        work = tmp_path / "work"
        work.mkdir()
        if command == "query":
            argv = ["query", "--store", str(store_dir), "--question", "What crosses Rome?", "--json", "--config", str(cfg)]
        else:
            argv = ["index", "--corpus", str(write_corpus(work)), "--out", str(work / "store"), "--config", str(cfg)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        if command == "query":
            assert len(json.loads(out)["chunks"]) == 1
        else:
            assert json.loads((work / "store" / "manifest.json").read_text())["config"]["query"]["final_m_chunks"] == 1

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_manifest_non_finite_beta_exit_3(self, store_dir, capsys, beta):
        manifest_path = store_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["query"]["beta"] = beta
        manifest_path.write_text(json.dumps(manifest))
        assert main(["query", "--store", str(store_dir), "--question", "Anything?", "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: corrupt store: invalid manifest: beta must be finite and >= 0" in captured.err

    @pytest.mark.parametrize(
        ("section", "key", "value"),
        [("provider", "timeout", 30.0), ("provider", "max_retries", 3), ("provider", "parallelism", 4),
         ("query", "max_nodes", 50)],
    )
    def test_config_file_naming_a_format_6_key_exit_2(self, tmp_path, capsys, section, key, value):
        # Format 6 held these; every remote call now takes post_json's policy, and the node budget is the graph's.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        out = tmp_path / "store"
        argv = ["index", "--corpus", str(write_corpus(tmp_path)), "--out", str(out), "--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config section {section!r}: unknown key {key!r}\n"
        assert not out.exists()

    def test_manifest_remote_embedder_without_endpoint_exit_2(self, store_dir, monkeypatch, capsys):
        import kgrag.remote as remote_mod

        sleeps = []
        monkeypatch.setattr(remote_mod.time, "sleep", sleeps.append)
        manifest_path = store_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["config"]["provider"]["endpoint_url"] == ""
        manifest["config"]["provider"]["kind"] = "remote"
        manifest_path.write_text(json.dumps(manifest))
        assert main(["query", "--store", str(store_dir), "--question", "Anything?", "--json"]) == 2
        assert "(index with --api-base)" in capsys.readouterr().err
        assert sleeps == []

    @pytest.mark.parametrize("key", ["hops", "top_n_candidates"])
    def test_manifest_query_bound_below_one_exit_3(self, store_dir, capsys, key):
        manifest_path = store_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["query"][key] = 0
        manifest_path.write_text(json.dumps(manifest))
        assert main(["query", "--store", str(store_dir), "--question", "Anything?", "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: corrupt store: invalid manifest: {key} must be >= 1" in captured.err

    @pytest.mark.parametrize("key", ["hops", "top_n_candidates"])
    def test_query_bound_below_one_exit_2(self, tmp_path, capsys, key):
        store = tmp_path / "store"
        build_store(write_corpus(tmp_path), store)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"query": {key: 0}}))
        argv = ["query", "--store", str(store), "--question", "What crosses Rome?", "--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: config section 'query': bad value: {key} must be >= 1" in captured.err


@pytest.fixture()
def store_dir(tmp_path) -> Path:
    corpus = write_corpus(tmp_path)
    out = tmp_path / "store"
    build_store(corpus, out)
    return out


# Every command that reads graph.json, as its argv without ``--store``; eval's
# records (written by run_in) carry no contexts, so its retrieval runs.
GRAPH_READERS = {
    "query": ["query", "--question", "Anything?"],
    "query-kg": ["query", "--mode", "kg", "--question", "Anything?"],
    "eval": ["eval", "--records", "records.jsonl", "--out", "report.csv"],
    "graph-export": ["graph-export", "--format", "json", "--out", "kg.json"],
}
each_graph_reader = pytest.mark.parametrize("command", list(GRAPH_READERS.values()), ids=list(GRAPH_READERS))
SEMANTIC_QUERY = ["query", "--mode", "semantic", "--json", "--question", "What crosses Rome?"]


# A mini-store chunk and a span that leaves its parent untiled: a gap, a first window past token 0, or a negative start.
each_untiled_span = pytest.mark.parametrize(
    "chunk_id, span",
    [("regions#s0#t1", [120, 184]), ("dishes#s0#t0", [1, 68]), ("dishes#s0#t0", [-3, 68])],
    ids=["gap", "first-past-0", "negative-start"],
)


def rewrite_chunk(store_dir: Path, chunk_id: str, **fields) -> None:
    """Rewrite ``chunk_id``'s ``fields`` in the store's chunks.jsonl."""
    sidecar = store_dir / "chunks.jsonl"
    rows = [json.loads(line) for line in sidecar.read_text().splitlines()]
    [row] = [row for row in rows if row["chunk_id"] == chunk_id]
    row.update(fields)
    sidecar.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows))


def respan(store_dir: Path, chunk_id: str, span: list) -> None:
    """Rewrite ``chunk_id``'s span in the store's chunks.jsonl."""
    rewrite_chunk(store_dir, chunk_id, span=span)


def run_in(workdir: Path, monkeypatch, store_dir: Path, command: list[str]) -> int:
    """``main`` of ``command`` over ``store_dir``, run in ``workdir`` beside an eval records file."""
    record = {"question": "What crosses Rome?", "ground_truth": "The Tiber crosses Rome."}
    (workdir / "records.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
    monkeypatch.chdir(workdir)
    return main([command[0], "--store", str(store_dir), *command[1:]])


def assert_nothing_written(workdir: Path) -> None:
    assert not (workdir / "kg.json").exists()
    assert not (workdir / "report.csv").exists()


class TestCmdQuery:
    def test_semantic_mode_has_no_graph_section(self, store_dir, capsys):
        code = main(
            ["query", "--store", str(store_dir), "--question", "What crosses Rome?", "--mode", "semantic"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "KNOWLEDGE GRAPH:" not in out
        assert "PASSAGES:" in out

    def test_beta_zero_hybrid_matches_semantic_order(self, store_dir, capsys):
        def chunk_ids(mode_args):
            code = main(
                ["query", "--store", str(store_dir), "--question", "What crosses Rome?", "--json"]
                + mode_args
            )
            assert code == 0
            return [c["id"] for c in json.loads(capsys.readouterr().out)["chunks"]]

        assert chunk_ids(["--beta", "0", "--mode", "hybrid"]) == chunk_ids(["--mode", "semantic"])

    def test_json_output_schema(self, store_dir, capsys):
        code = main(
            ["query", "--store", str(store_dir), "--question", "What crosses Rome?",
             "--json", "--answer"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"structured_text", "chunks", "unified_context", "answer", "diagnostics"}
        assert set(payload["diagnostics"]) == {
            "matched_entities", "unmatched_mentions", "candidate_count", "empty", "structured_token_budget",
            "structured_tokens", "context_lines_kept", "edge_lines_kept", "subgraph_nodes",
        }
        assert all(set(c) == {"id", "score", "boost", "final"} for c in payload["chunks"])
        # echo generator answers with the context itself
        assert payload["answer"] == payload["unified_context"]

    def test_corrupt_store_exit_3(self, store_dir, capsys):
        (store_dir / "vectors.skvx").write_bytes(b"garbage")
        code = main(["query", "--store", str(store_dir), "--question", "Anything?"])
        assert code == 3

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_non_finite_vector_exit_3(self, store_dir, capsys, bad):
        path = store_dir / "vectors.skvx"
        blob = bytearray(path.read_bytes())
        blob[18:22] = struct.pack("<f", bad)  # the first float of the first row
        path.write_bytes(bytes(blob))
        argv = ["query", "--store", str(store_dir), "--question", "Anything?", "--json", "--mode", "semantic"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite" in captured.err

    def test_missing_manifest_exit_3(self, tmp_path):
        empty = tmp_path / "notastore"
        empty.mkdir()
        assert main(["query", "--store", str(empty), "--question", "Q?"]) == 3

    @pytest.mark.parametrize(
        "rename", [lambda name: name, lambda name: f"  {name.upper()},"], ids=["same", "unnormalized"]
    )
    def test_duplicate_node_name_exit_3(self, store_dir, capsys, rename):
        graph_path = store_dir / "graph.json"
        graph = json.loads(graph_path.read_text())
        graph["nodes"][1] = rename(graph["nodes"][0])
        graph_path.write_text(json.dumps(graph))
        assert main(["query", "--store", str(store_dir), "--question", "Anything?"]) == 3
        assert "graph node 1 repeats an earlier node's name" in capsys.readouterr().err

    def test_duplicate_chunk_id_exit_3(self, store_dir, capsys):
        sidecar = store_dir / "chunks.jsonl"
        rows = [json.loads(line) for line in sidecar.read_text().splitlines()]
        rows[1]["chunk_id"] = rows[0]["chunk_id"]
        sidecar.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert main(["query", "--store", str(store_dir), "--question", "Anything?"]) == 3
        assert "duplicate chunk_id" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["edges", "nodes", "semantic_chunks", "chunks"])
    def test_store_counts_not_the_manifests_exit_3(self, store_dir, tmp_path, monkeypatch, capsys, key):
        # A graph.json that lost edges or gained a node still loads; only the manifest's counts tell.
        # A chunk count is checked at open, so a semantic query exits 3 on it too.
        graph_path, manifest_path = store_dir / "graph.json", store_dir / "manifest.json"
        graph, manifest = json.loads(graph_path.read_text()), json.loads(manifest_path.read_text())
        expected = manifest["counts"][key]
        if key == "edges":
            graph["edges"] = [column[: expected // 2] for column in graph["edges"]]
            loaded, name = expected // 2, "graph.json"
        elif key == "nodes":
            graph["nodes"].append("an entity no triple names")
            loaded, name = expected + 1, "graph.json"
        else:
            manifest["counts"][key] = expected + 1
            expected, loaded = expected + 1, expected
            name = "chunks.jsonl" if key == "semantic_chunks" else "vectors.skvx"
        graph_path.write_text(json.dumps(graph))
        manifest_path.write_text(json.dumps(manifest))
        commands = [*GRAPH_READERS.values()] + ([SEMANTIC_QUERY] if key in ("semantic_chunks", "chunks") else [])
        for command in commands:
            assert run_in(tmp_path, monkeypatch, store_dir, command) == 3, command
            assert f"manifest counts {expected} {key} but {name} holds {loaded}" in capsys.readouterr().err
        assert_nothing_written(tmp_path)

    @pytest.mark.parametrize(
        "endpoint",
        [lambda n: -1, lambda n: n, lambda n: 0.5, lambda n: "0", lambda n: True, lambda n: None],
        ids=["negative", "node-count", "float", "string", "bool", "null"],
    )
    @pytest.mark.parametrize("key", ["source", "target"])
    def test_bad_edge_endpoint_exit_3(self, store_dir, capsys, key, endpoint):
        graph_path = store_dir / "graph.json"
        graph = json.loads(graph_path.read_text())
        nodes = len(graph["nodes"])
        set_graph_field(graph, "edges", key, value := endpoint(nodes))
        graph_path.write_text(json.dumps(graph))
        assert main(["query", "--store", str(store_dir), "--question", "Anything?"]) == 3
        column = {"source": "sources", "target": "targets"}[key]
        expected = f"{graph_path}: graph edge {column}[0] is {value!r}, not a node id in [0, {nodes})"
        assert f"error: corrupt store: {expected}\n" == capsys.readouterr().err

    @pytest.mark.parametrize(
        ("section", "key", "value"),
        [("query", "hops", 1.5), ("query", "top_n_candidates", True), ("chunker", "percentile", "95"),
         ("provider", "dimension", 256.0), ("extractor", "kind", None)],
    )
    def test_manifest_config_of_wrong_type_exit_3(self, store_dir, capsys, section, key, value):
        manifest_path = store_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"][section][key] = value
        manifest_path.write_text(json.dumps(manifest))
        assert main(["query", "--store", str(store_dir), "--question", "Anything?"]) == 3
        assert f"error: corrupt store: invalid manifest: {key!r} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("section", "key"), [("provider", "timeout"), ("query", "max_nodes"), ("chunker", "k"), ("extractor", "")]
    )
    def test_manifest_config_with_unknown_key_names_section_and_key_exit_3(self, store_dir, capsys, section, key):
        # The manifest and a --config file share one check, so both name the section and the key.
        manifest_path = store_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"][section][key] = 1
        manifest_path.write_text(json.dumps(manifest))
        assert main(["query", "--store", str(store_dir), "--question", "Anything?"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: corrupt store: invalid manifest: config section {section!r}: unknown key {key!r}\n"
        )

    @pytest.mark.parametrize("block", [[], ["kind"], "hashed", 3, None])
    def test_manifest_config_section_not_an_object_exit_3(self, store_dir, capsys, block):
        manifest_path = store_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["provider"] = block
        manifest_path.write_text(json.dumps(manifest))
        assert main(["query", "--store", str(store_dir), "--question", "Anything?"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt store: invalid manifest: config section 'provider' must be a JSON object")

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("format_version", lambda manifest: 1.9),
            ("format_version", lambda manifest: "1"),
            ("format_version", lambda manifest: True),
            ("counts", lambda manifest: list(manifest["counts"].items())),
            ("counts", lambda manifest: {**manifest["counts"], "nodes": "3"}),
            ("counts", lambda manifest: {**manifest["counts"], "edges": True}),
        ],
        ids=["version-float", "version-str", "version-bool", "counts-list", "count-str", "count-bool"],
    )
    def test_manifest_field_of_wrong_type_exit_3(self, store_dir, capsys, key, bad):
        manifest_path = store_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[key] = bad(manifest)
        manifest_path.write_text(json.dumps(manifest))
        assert main(["query", "--store", str(store_dir), "--question", "Anything?"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: corrupt store: invalid manifest: {key!r}" in captured.err

    def test_reader_closing_stdout_early_exits_0(self, mini_store_dir):
        src = Path(kgrag.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-m", "kgrag", "query", "--store", str(mini_store_dir), "--json",
                "--question", "Which cheese goes into Carbonara?"]
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        child.stdout.close()  # as `kgrag query ... | head -1` does once it has its line
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=120) == 0, err
        assert err == ""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (
                ("config", "provider", "dimension"),
                128,
                "manifest dimension 128 does not match vectors.skvx dimension 256",
            ),
            (("counts", "chunks"), 1, "manifest counts 1 chunks but vectors.skvx holds 2"),
        ],
    )
    def test_manifest_disagrees_with_vectors_exit_3(self, store_dir, capsys, field, value, message):
        manifest_path = store_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        section = manifest
        for key in field[:-1]:
            section = section[key]
        section[field[-1]] = value
        manifest_path.write_text(json.dumps(manifest))
        assert main(["query", "--store", str(store_dir), "--question", "Anything?"]) == 3
        assert capsys.readouterr().err == f"error: corrupt store: {message}\n"

    def test_store_query_defaults_apply_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"query": {"final_m_chunks": 2, "beta": 0.0}}))
        store = tmp_path / "store"
        assert main(["index", "--corpus", str(MINI_CORPUS), "--out", str(store), "--config", str(cfg)]) == 0
        capsys.readouterr()

        def chunks(extra):
            question = "Which cheese goes into Carbonara in Rome?"
            assert main(["query", "--store", str(store), "--question", question, "--json", *extra]) == 0
            return json.loads(capsys.readouterr().out)["chunks"]

        stored = chunks([])
        assert len(stored) == 2
        assert all(c["final"] == c["score"] for c in stored)  # stored beta 0 applies
        assert len(chunks(["--final-m", "3"])) == 3
        override = tmp_path / "override.json"
        override.write_text(json.dumps({"query": {"final_m_chunks": 1}}))
        from_file = chunks(["--config", str(override)])
        assert len(from_file) == 1  # the config file beats the store
        assert from_file[0]["final"] == from_file[0]["score"]  # stored beta still applies
        assert len(chunks(["--config", str(override), "--final-m", "3"])) == 3

    @pytest.mark.parametrize("mode", ["hybrid", "semantic", "kg"])
    def test_question_with_lone_surrogate_exit_2(self, store_dir, capsys, mode):
        # The command line decodes bytes that are not UTF-8 (here 0xff) as lone surrogates.
        argv = ["query", "--store", str(store_dir), "--question", "What is \udcff pizza?", "--mode", mode]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --question holds the lone surrogate '\\udcff' at index 8, which UTF-8 cannot encode\n"
        )

    @pytest.mark.parametrize("question", ["", "   ", "\t\n"])
    @pytest.mark.parametrize("mode", ["hybrid", "semantic", "kg"])
    def test_question_without_tokens_exit_2(self, store_dir, capsys, mode, question):
        argv = ["query", "--store", str(store_dir), "--question", question, "--mode", mode, "--json"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: question must hold at least one token\n"


    def test_graph_context_naming_no_chunk_exit_3(self, mini_store_dir, tmp_path, capsys):
        store = shutil.copytree(mini_store_dir, tmp_path / "mini")
        graph = json.loads((store / "graph.json").read_text())
        chunks = graph["chunks"]  # a node's contexts are its edges' chunks, entries of this table
        chunks[-1] = "~no-such-chunk"  # "~" sorts after every mini-corpus chunk id
        (store / "graph.json").write_text(json.dumps(graph))
        argv = ["query", "--store", str(store), "--question", "Which cheese goes into Carbonara?", "--mode", "kg"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"graph chunks[{len(chunks) - 1}] is '~no-such-chunk', which names no stored chunk" in captured.err

    @each_untiled_span
    def test_chunk_spans_that_do_not_tile_exit_3(self, mini_store_dir, tmp_path, capsys, chunk_id, span):
        store = shutil.copytree(mini_store_dir, tmp_path / "mini")
        respan(store, chunk_id, span)
        argv = ["query", "--store", str(store), "--question", "Where do San Marzano tomatoes grow?"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"chunk {chunk_id!r} starts at token {span[0]}" in captured.err

    @pytest.mark.parametrize("span", [[84.5, 184], ["84", 184]], ids=["float", "str"])
    def test_chunk_span_that_is_not_integers_exit_3(self, mini_store_dir, tmp_path, capsys, span):
        store = shutil.copytree(mini_store_dir, tmp_path / "mini")
        sidecar = store / "chunks.jsonl"
        rows = [json.loads(line) for line in sidecar.read_text().splitlines()]
        [row] = [row for row in rows if row["chunk_id"] == "regions#s0#t1"]
        row["span"] = span
        sidecar.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows))
        argv = ["query", "--store", str(store), "--question", "Where do San Marzano tomatoes grow?"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "chunk 'regions#s0#t1' has a non-integer span" in captured.err

    @pytest.mark.parametrize(
        "key, value",
        [("chunk_id", "x"), ("chunk_id", "#t0"), ("chunk_id", "regions#s0"), ("chunk_id", ["x"]), ("chunk_id", 7),
         ("span", [84, 184, 200])],
        ids=["id-without-t", "id-with-empty-parent", "semantic-chunk-id", "list-chunk_id", "int-chunk_id",
             "three-item-span"],
    )
    def test_chunk_record_of_wrong_shape_exit_3(self, mini_store_dir, tmp_path, capsys, key, value):
        store = shutil.copytree(mini_store_dir, tmp_path / "mini")
        sidecar = store / "chunks.jsonl"
        rows = [json.loads(line) for line in sidecar.read_text().splitlines()]
        [line] = [i for i, row in enumerate(rows) if row["chunk_id"] == "regions#s0#t1"]
        rows[line][key] = value
        sidecar.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows))
        argv = ["query", "--store", str(store), "--question", "Where do San Marzano tomatoes grow?"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: corrupt store: {sidecar} line {line + 1}: bad chunk record: " in captured.err

    @pytest.mark.parametrize(
        "name, named",
        [("chunks.jsonl", "cannot read chunk file {path}"), ("graph.json", "cannot load graph from {path}"),
         ("manifest.json", "unreadable manifest in {store}")],
    )
    def test_store_file_that_is_not_utf8_exit_3(self, mini_store_dir, tmp_path, capsys, name, named):
        store = shutil.copytree(mini_store_dir, tmp_path / "mini")
        path = store / name
        path.write_bytes(path.read_bytes().replace(b"\n", b"\xff\n", 1))
        argv = ["query", "--store", str(store), "--question", "Where do San Marzano tomatoes grow?"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named.format(path=path, store=store) + ": 'utf-8' codec can't decode byte 0xff" in captured.err

    def test_chunk_text_with_escaped_lone_surrogate_exit_3(self, mini_store_dir, tmp_path, capsys):
        store = shutil.copytree(mini_store_dir, tmp_path / "mini")
        sidecar = store / "chunks.jsonl"
        rows = [json.loads(line) for line in sidecar.read_text().splitlines()]
        [line] = [i for i, row in enumerate(rows) if row["chunk_id"] == "regions#s0#t1"]
        rows[line]["text"] += " \ud800"
        sidecar.write_text("".join(json.dumps(row) + "\n" for row in rows))  # ASCII, so the surrogate stays escaped
        argv = ["query", "--store", str(store), "--question", "Where do San Marzano tomatoes grow?", "--json"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{sidecar} line {line + 1}: bad chunk record: 'text' holds the lone surrogate '\\ud800'" in captured.err


class TestCmdEval:
    def test_precomputed_records_pure_metric_run(self, store_dir, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text(
            json.dumps(
                {
                    "question": "What is Rome?",
                    "ground_truth": "Rome is the capital of Italy.",
                    "answer": "Rome is the capital of Italy.",
                    "contexts": ["Rome is the capital of Italy."],
                }
            )
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "report.csv"
        code = main(["eval", "--store", str(store_dir), "--records", str(records), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "0 pipeline runs" in stdout
        lines = out.read_text().splitlines()
        assert lines[0].startswith("record,")
        assert lines[1].split(",")[2] == "1.000000"  # faithfulness

    def test_remote_judge_reply_without_string_content_nulls_the_judged_metrics(self, store_dir, tmp_path, monkeypatch):
        import kgrag.remote as remote_mod
        from helpers import FakePost, FakeResponse, chat_payload

        monkeypatch.setattr(remote_mod, "_send", FakePost([FakeResponse(200, chat_payload(None))]))
        manifest_path = store_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["extractor"].update(api_base="http://api.test/v1", chat_model="chat-1")
        manifest_path.write_text(json.dumps(manifest))
        records = tmp_path / "records.jsonl"
        record = {"question": "What is Rome?", "ground_truth": "Rome is the capital of Italy.",
                  "answer": "Rome is the capital of Italy.", "contexts": ["Rome is the capital of Italy."]}
        records.write_text(json.dumps(record) + "\n", encoding="utf-8")
        out = tmp_path / "report.csv"
        argv = ["eval", "--store", str(store_dir), "--records", str(records), "--out", str(out), "--judge", "remote"]
        assert main(argv) == 0  # a judge failure nulls the record's judged metrics, as any provider error does
        assert out.read_text().splitlines()[1].split(",")[2:] == ["", "", "", ""]

    @pytest.mark.parametrize("flag", ["--out", "--matrix"])
    def test_output_in_a_missing_directory_exit_2_before_any_retrieval(self, store_dir, tmp_path, capsys, flag):
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({"question": "What crosses Rome?", "ground_truth": "The Tiber."}) + "\n")
        paths = {"--out": tmp_path / "report.csv", "--matrix": tmp_path / "matrix.csv"}
        paths[flag] = tmp_path / "missing" / "r.csv"
        argv = ["eval", "--store", str(store_dir), "--records", str(records)]
        for name, path in paths.items():
            argv += [name, str(path)]
        with mock.patch("kgrag.pipeline.run_query", wraps=run_query) as runs:
            assert main(argv) == 2
        assert runs.call_count == 0
        assert capsys.readouterr().err == (
            f"error: cannot write {paths[flag]}: directory {tmp_path / 'missing'} does not exist\n"
        )
        assert not any(path.exists() for path in paths.values())

    @pytest.mark.parametrize("flag", ["--out", "--matrix"])
    def test_output_that_is_a_directory_exit_2_before_any_retrieval(self, store_dir, tmp_path, capsys, flag):
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({"question": "What crosses Rome?", "ground_truth": "The Tiber."}) + "\n")
        paths = {"--out": tmp_path / "report.csv", "--matrix": tmp_path / "matrix.csv"}
        paths[flag] = tmp_path / "adir"
        paths[flag].mkdir()
        argv = ["eval", "--store", str(store_dir), "--records", str(records)]
        for name, path in paths.items():
            argv += [name, str(path)]
        with mock.patch("kgrag.pipeline.run_query", wraps=run_query) as runs:
            assert main(argv) == 2
        assert runs.call_count == 0
        assert capsys.readouterr().err == f"error: cannot write {paths[flag]}: it is a directory\n"
        assert list(paths[flag].iterdir()) == [] and not any(path.is_file() for path in paths.values())

    @pytest.mark.parametrize("matrix", ["report.csv", "./report.csv"])
    def test_out_and_matrix_naming_one_file_exit_2_before_any_retrieval(
        self, store_dir, tmp_path, monkeypatch, capsys, matrix
    ):
        # The matrix would overwrite the report.
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({"question": "What crosses Rome?", "ground_truth": "The Tiber."}) + "\n")
        monkeypatch.chdir(tmp_path)
        argv = ["eval", "--store", str(store_dir), "--records", str(records), "--out", "report.csv", "--matrix", matrix]
        with mock.patch("kgrag.pipeline.run_query", wraps=run_query) as runs:
            assert main(argv) == 2
        assert runs.call_count == 0
        assert capsys.readouterr().err == "error: --out and --matrix name the same file: report.csv\n"
        assert not (tmp_path / "report.csv").exists()

    def test_out_and_matrix_hard_links_of_one_file_exit_2_before_any_retrieval(
        self, store_dir, tmp_path, monkeypatch, capsys
    ):
        # Two links resolve to two paths, but writing the matrix through one would overwrite the report.
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({"question": "What crosses Rome?", "ground_truth": "The Tiber."}) + "\n")
        (tmp_path / "report.csv").write_text("an earlier report\n")
        os.link(tmp_path / "report.csv", tmp_path / "matrix.csv")
        monkeypatch.chdir(tmp_path)
        argv = ["eval", "--store", str(store_dir), "--records", str(records), "--out", "report.csv", "--matrix", "matrix.csv"]
        with mock.patch("kgrag.pipeline.run_query", wraps=run_query) as runs:
            assert main(argv) == 2
        assert runs.call_count == 0
        assert capsys.readouterr().err == "error: --out and --matrix name the same file: report.csv\n"
        assert (tmp_path / "report.csv").read_text() == "an earlier report\n"

    @pytest.mark.parametrize("flag", ["--out", "--matrix"])
    @pytest.mark.parametrize("target", [*STORE_FILES, "records"])
    def test_output_naming_a_file_the_command_reads_exit_2_before_any_retrieval(
        self, store_dir, tmp_path, capsys, flag, target
    ):
        # Writing the report over a store file would leave a store every later command rejects.
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({"question": "What crosses Rome?", "ground_truth": "The Tiber."}) + "\n")
        read = {path: path.read_bytes() for path in [*(store_dir / name for name in STORE_FILES), records]}
        paths = {"--out": tmp_path / "report.csv", "--matrix": tmp_path / "matrix.csv"}
        paths[flag] = records if target == "records" else store_dir / ".." / "store" / target
        argv = ["eval", "--store", str(store_dir), "--records", str(records)]
        for name, path in paths.items():
            argv += [name, str(path)]
        with mock.patch("kgrag.pipeline.run_query", wraps=run_query) as runs:
            assert main(argv) == 2
        assert runs.call_count == 0
        assert capsys.readouterr().err == f"error: cannot write {paths[flag]}: the command reads that file\n"
        assert {path: path.read_bytes() for path in read} == read
        assert not any((tmp_path / name).exists() for name in ("report.csv", "matrix.csv"))

    def test_empty_records_exit_2(self, store_dir, tmp_path):
        records = tmp_path / "records.jsonl"
        records.write_text("", encoding="utf-8")
        out = tmp_path / "report.csv"
        assert main(["eval", "--store", str(store_dir), "--records", str(records), "--out", str(out)]) == 2

    def test_malformed_lines_skipped_and_counted(self, store_dir, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text(
            'broken\n{"question": "What is Rome?", "ground_truth": "Rome is the capital."}\n',
            encoding="utf-8",
        )
        out = tmp_path / "report.csv"
        code = main(["eval", "--store", str(store_dir), "--records", str(records), "--out", str(out)])
        assert code == 0
        assert "1 skipped" in capsys.readouterr().out

    @pytest.mark.parametrize("matrix", [False, True], ids=["report", "matrix"])
    def test_escaped_lone_surrogate_record_skipped_and_counted(self, store_dir, tmp_path, capsys, matrix):
        records = tmp_path / "records.jsonl"
        records.write_text(
            '{"question": "What is \\ud800 pizza?", "ground_truth": "Pizza is bread."}\n'
            '{"question": "What is Rome?", "ground_truth": "Rome is the capital."}\n',
            encoding="utf-8",
        )
        out = tmp_path / "report.csv"
        argv = ["eval", "--store", str(store_dir), "--records", str(records), "--out", str(out)]
        if matrix:
            argv += ["--matrix", str(tmp_path / "matrix.csv")]
        assert main(argv) == 0
        assert "1 skipped" in capsys.readouterr().out
        rows = [line.split(",")[0] for line in out.read_text(encoding="utf-8").splitlines()]
        assert rows == ["record", "0", "MEAN"]  # the one good record

    def test_non_utf8_records_file_exit_2(self, store_dir, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_bytes(b'{"question": "What is \xff?", "ground_truth": "Rome."}\n')
        argv = ["eval", "--store", str(store_dir), "--records", str(records), "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 2
        assert f"error: cannot read records file {records}: 'utf-8' codec can't decode" in capsys.readouterr().err

    def test_mini_corpus_end_to_end_deterministic(self, tmp_path):
        store = tmp_path / "mini_store"
        assert main(["index", "--corpus", str(MINI_CORPUS), "--out", str(store)]) == 0
        outputs = []
        for run in range(2):
            report = tmp_path / f"report{run}.csv"
            matrix = tmp_path / f"matrix{run}.csv"
            code = main(
                ["eval", "--store", str(store), "--records", str(MINI_QUESTIONS),
                 "--out", str(report), "--matrix", str(matrix)]
            )
            assert code == 0
            outputs.append((report.read_bytes(), matrix.read_bytes()))
        assert outputs[0] == outputs[1]
        header = outputs[0][0].decode().splitlines()[0]
        assert header == "record,answer_relevancy,faithfulness,context_precision,context_recall,f1"


@pytest.mark.parametrize(
    "argv, role",
    [
        (["query", "--question", "What crosses Rome?", "--answer", "--generator", "remote"], "generator"),
        (["eval", "--records", str(MINI_QUESTIONS), "--judge", "remote"], "judge"),
        (["eval", "--records", str(MINI_QUESTIONS), "--generator", "remote"], "generator"),
    ],
    ids=["query-generator", "eval-judge", "eval-generator"],
)
def test_remote_role_without_chat_model_exit_2_before_any_retrieval(mini_store_dir, tmp_path, capsys, argv, role):
    out = tmp_path / "report.csv"
    argv = argv + ["--store", str(mini_store_dir)] + (["--out", str(out)] if argv[0] == "eval" else [])
    with mock.patch("kgrag.cli.run_query", wraps=run_query) as queries, mock.patch(
        "kgrag.pipeline.run_query", wraps=run_query
    ) as record_runs:
        assert main(argv) == 2
    assert queries.call_count + record_runs.call_count == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: remote {role} requires api_base and chat_model (index with --api-base/--chat-model)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("nodes", "name", 5, "graph node 0 is a int, not a name string"),
        ("edges", "relation", 5, "graph relations[0] is 5, not a string"),
        ("edges", "provenance", None, "graph chunks[0] is None, not a string"),
    ],
    ids=["numeric-name", "numeric-relation", "null-provenance"],
)
@each_graph_reader
def test_graph_field_of_wrong_type_exit_3(
    store_dir, tmp_path, monkeypatch, capsys, command, section, key, value, message
):
    graph_path = store_dir / "graph.json"
    graph = json.loads(graph_path.read_text())
    set_graph_field(graph, section, key, value)
    graph_path.write_text(json.dumps(graph))
    assert run_in(tmp_path, monkeypatch, store_dir, command) == 3
    assert capsys.readouterr().err == f"error: corrupt store: {graph_path}: {message}\n"
    assert_nothing_written(tmp_path)


NODE_0 = "graph node 0 is a {kind}, not a name string"


def _set_node(graph: dict, row) -> None:
    graph["nodes"][0] = row


def _edit_columns(graph: dict, edit) -> None:
    for column in graph["edges"]:
        edit(column)


@pytest.mark.parametrize(
    "corrupt, named",
    [
        (lambda g: _set_node(g, ["a"]), NODE_0.format(kind="list")),
        (lambda g: _set_node(g, ["a", [], 1]), NODE_0.format(kind="list")),
        (lambda g: _set_node(g, [g["nodes"][0], [g["edges"][3][0]]]), NODE_0.format(kind="list")),
        (lambda g: _set_node(g, {"id": 0, "name": "a", "contexts": []}), NODE_0.format(kind="dict")),
        (lambda g: _set_node(g, None), NODE_0.format(kind="NoneType")),
        (lambda g: g["edges"].__delitem__(3), f"{EDGE_LAYOUT}: column 3 (chunks) is missing"),
        (lambda g: g["edges"].append([]), f"{EDGE_LAYOUT}: there are 5 columns"),
        (lambda g: g["edges"].__setitem__(0, dict(enumerate(g["edges"][0]))),
         f"{EDGE_LAYOUT}: column 0 (sources) is not a list"),
        (lambda g: g["edges"][2].__setitem__(0, [g["edges"][2][0]]), "graph edge relations[0] is ["),
        (lambda g: g["edges"][1].__delitem__(-1), "graph edge targets[{last}] is missing: sources holds {m} edges"),
        (lambda g: g["edges"][0].__setitem__(0, True), "graph edge sources[0] is True, not a node id in [0, {n})"),
        (lambda g: g["edges"][1].__setitem__(0, len(g["nodes"])), "graph edge targets[0] is {n}, not a node id"),
        (lambda g: g["edges"][0].__setitem__(0, -1), "graph edge sources[0] is -1, not a node id in [0, {n})"),
        (lambda g: g["relations"].__setitem__(0, None), "graph relations[0] is None, not a string"),
        (lambda g: g["chunks"].__setitem__(0, " no such chunk"),  # " " sorts before every stored chunk id
         "graph chunks[0] is ' no such chunk', which names no stored chunk"),
        (lambda g: _edit_columns(g, lambda column: column.insert(0, column.pop())),
         "graph edge sources[1] sorts before edge 0: edges must be sorted and unique"),
        (lambda g: _edit_columns(g, lambda column: column.insert(1, column[0])),
         "graph edge 1 repeats edge 0: edges must be sorted and unique"),
        (lambda g: [g["nodes"], g["edges"]], "malformed graph"),
        (lambda g: {"nodes": g["nodes"]}, "malformed graph"),
        (lambda g: g["edges"][3].__setitem__(0, 0.0), "graph edge chunks[0] is 0.0, not an index of the chunks table"),
        (lambda g: g["edges"][2].__setitem__(0, len(g["relations"])),
         "graph edge relations[0] is {r}, not an index of the relations table in [0, {r})"),
        (lambda g: g["relations"].insert(0, g["relations"].pop(1)),
         "graph relations[1] sorts before relations[0]: a table must be sorted and unique"),
        (lambda g: g["chunks"].__setitem__(1, g["chunks"][0]),
         "graph chunks[1] repeats chunks[0]: a table must be sorted and unique"),
    ],
    ids=["node-of-one", "node-of-three", "node-format-3-row", "node-dict", "node-null",
         "edge-of-three", "edge-of-five", "edge-dict", "edge-list-label", "unequal-lengths", "bool-source",
         "endpoint-past-nodes", "negative-endpoint", "null-label", "unknown-provenance", "out-of-order", "repeated",
         "top-level-array", "no-edges", "float-index", "index-past-table", "unsorted-table", "repeated-table-entry"],
)
@each_graph_reader
def test_graph_row_of_wrong_shape_exit_3(store_dir, tmp_path, monkeypatch, capsys, command, corrupt, named):
    # Each node must be a name string, the relation and chunk tables strings
    # in strictly ascending order, and the edges four equal columns [sources,
    # targets, relations, chunks] of node ids and table indices, sorted and
    # unique, or the store is corrupt; the error names the column and index.
    graph_path = store_dir / "graph.json"
    graph = json.loads(graph_path.read_text())
    m, n, r = len(graph["edges"][0]), len(graph["nodes"]), len(graph["relations"])
    assert m > 1 and graph["edges"][0][0] < graph["edges"][0][-1] and r > 1 and len(graph["chunks"]) > 1
    graph_path.write_text(json.dumps(corrupt(graph) or graph))
    assert run_in(tmp_path, monkeypatch, store_dir, command) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: corrupt store: ") and "graph" in err and "Traceback" not in err
    assert err.startswith(f"error: corrupt store: {graph_path}: {named.format(m=m, n=n, r=r, last=m - 1)}")
    assert_nothing_written(tmp_path)


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize(
    "command",
    [["query", "--question", "Anything?"], ["graph-export", "--format", "json", "--out", "kg.json"]],
    ids=["query", "graph-export"],
)
def test_old_format_store_asks_for_a_rebuild(store_dir, tmp_path, monkeypatch, capsys, command, version):
    # A store written before format 7, whose manifest held config keys this one
    # does not know. Format 6 held the files of format 7. Before it, chunk records
    # held their doc id and parent and the manifest a corpus fingerprint: format 1
    # held a graph.json of indented dicts, format 2 one [source, target, relation,
    # provenance] row per edge, format 3 a [name, [chunk ids]] row per node, format
    # 4 node names and the four edge columns with each relation and chunk id written
    # out, and format 5 the graph.json of format 6.
    manifest_path, graph_path = store_dir / "manifest.json", store_dir / "graph.json"
    chunks_path = store_dir / "chunks.jsonl"
    manifest = v6_manifest(manifest_path.read_bytes())
    if version < 6:
        manifest = v5_manifest(manifest, load_corpus(tmp_path / "corpus"))
        chunks_path.write_bytes(v5_chunks(chunks_path.read_bytes()))
    manifest = json.loads(manifest)
    manifest["format_version"] = version
    manifest_path.write_text(json.dumps(manifest, indent=2))
    v4 = v4_graph(json.loads(graph_path.read_text()))
    graph = v3_graph(v4)
    if version == 4:
        graph_path.write_bytes(compact_bytes(v4))
    elif version == 1:
        nodes = [{"id": i, "name": name, "contexts": contexts} for i, (name, contexts) in enumerate(graph["nodes"])]
        edges = [dict(zip(("source", "target", "relation", "provenance"), row)) for row in zip(*graph["edges"])]
        graph_path.write_text(json.dumps({"nodes": nodes, "edges": edges}, indent=2))
    elif version == 2:
        graph_path.write_bytes(v2_rows(graph))
    elif version == 3:
        graph_path.write_bytes(compact_bytes(graph))
    monkeypatch.chdir(tmp_path)
    assert main([command[0], "--store", str(store_dir), *command[1:]]) == 3
    err = capsys.readouterr().err
    assert f"format version {version}" in err and "rebuild the store with `kgrag index`" in err
    assert not (tmp_path / "kg.json").exists()


@pytest.mark.parametrize(
    ("version", "named"),
    [
        ("6", "'format_version' must be int, got str"),
        (6.0, "'format_version' must be int, got float"),
        (True, "'format_version' must be int, got bool"),
        (None, "'format_version' must be int, got NoneType"),
        (STORE_FORMAT_VERSION, "config section 'provider': unknown key 'timeout'"),
    ],
    ids=["str", "float", "bool", "null", "current"],
)
def test_format_6_keys_under_no_older_int_version_are_an_invalid_manifest(store_dir, capsys, version, named):
    # Only an integer version other than the current one asks for a rebuild, before
    # the config is read; any other manifest that holds format 6's keys is invalid.
    manifest_path = store_dir / "manifest.json"
    manifest = json.loads(v6_manifest(manifest_path.read_bytes()))
    manifest["format_version"] = version
    manifest_path.write_text(json.dumps(manifest))
    assert main(["query", "--store", str(store_dir), "--question", "Anything?"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: corrupt store: invalid manifest: ") and named in err and "rebuild" not in err


def assert_export_is_one_encode(store: Path) -> None:
    """The store's graph.json, written one piece at a time, is the one C encoding of the whole graph object."""
    graph = open_store(store).graph
    assert (store / "graph.json").read_bytes() == (_encode(graph.to_json_obj()) + "\n").encode("utf-8")


def compact_bytes(obj: dict) -> bytes:
    """``obj`` as one compact line of JSON, the way every format of ``graph.json`` is written."""
    return (json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n").encode("utf-8")


def v5_chunks(chunks: bytes) -> bytes:
    """The format-5 ``chunks.jsonl`` bytes of a format-6 file: each record's doc id and parent written out.

    Format 5 held ``doc_id`` and ``parent`` between the id and the span. Both
    are prefixes of the id ``<doc>#s<i>#t<j>``: the parent ends before its
    last ``#t``, and the doc id before the parent's last ``#s``.
    """
    records = []
    for line in chunks.decode("utf-8").split("\n")[:-1]:  # U+2028 may stand raw inside a record
        record = json.loads(line)
        parent = record["chunk_id"].rpartition("#t")[0]
        old = {"chunk_id": record["chunk_id"], "doc_id": parent.rpartition("#s")[0], "parent": parent}
        records.append(json.dumps({**old, "span": record["span"], "text": record["text"]}, ensure_ascii=False) + "\n")
    return "".join(records).encode("utf-8")


def v6_manifest(manifest: bytes) -> bytes:
    """The format-6 ``manifest.json`` bytes of a format-7 one: version 6, and the four config values it held.

    Format 6 also held the provider's ``timeout``, ``max_retries`` and
    ``parallelism`` after its ``model_name``, and the query's ``max_nodes``
    after its ``mode``, each at the one value no flag changed.
    """
    obj = json.loads(manifest)
    provider, query = obj["config"]["provider"], obj["config"]["query"]
    assert list(provider)[-1] == "model_name" and list(query)[-1] == "mode"
    obj["format_version"] = 6
    provider.update(timeout=30.0, max_retries=3, parallelism=4)
    query["max_nodes"] = 50
    return (json.dumps(obj, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


def v5_manifest(manifest: bytes, documents: list[Document]) -> bytes:
    """The format-5 ``manifest.json`` bytes of a format-6 one: version 5, and the corpus fingerprint after it.

    The fingerprint was an order-sensitive 64-bit BLAKE2b over each
    document's id and text, each followed by a NUL.
    """
    fingerprint = hashlib.blake2b(digest_size=8)
    for doc in documents:
        for piece in (doc.doc_id, "\x00", doc.text, "\x00"):
            fingerprint.update(piece.encode("utf-8"))
    obj = json.loads(manifest)
    del obj["format_version"]
    obj = {"format_version": 5, "corpus_fingerprint": fingerprint.hexdigest(), **obj}
    return (json.dumps(obj, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


def v4_graph(graph: dict) -> dict:
    """The format-4 graph object of a format-5 one: node names and the four edge columns, labels written out.

    Format 4 held no tables; its relations and provenances columns held each
    edge's relation and chunk id, where format 5 holds indices into the tables.
    """
    sources, targets, relations, chunks = graph["edges"]
    labels = [graph["relations"][i] for i in relations]
    return {"nodes": graph["nodes"], "edges": [sources, targets, labels, [graph["chunks"][i] for i in chunks]]}


def v3_graph(graph: dict) -> dict:
    """The format-3 graph object of a format-4 one: each node's name with its contexts, its edges' provenances.

    Format 3 stored a node as ``[name, [chunk ids]]``, its chunk ids ascending
    and each once; they are exactly the provenances of the edges that touch it.
    """
    contexts: list[set[str]] = [set() for _ in graph["nodes"]]
    sources, targets, _, provenances = graph["edges"]
    for source, target, provenance in zip(sources, targets, provenances):
        contexts[source].add(provenance)
        contexts[target].add(provenance)
    return {"nodes": [[name, sorted(ids)] for name, ids in zip(graph["nodes"], contexts)], "edges": graph["edges"]}


def v2_rows(graph: dict) -> bytes:
    """The format-2 ``graph.json`` bytes of a format-3 graph object: one row per edge instead of four columns."""
    return compact_bytes({"nodes": graph["nodes"], "edges": list(map(list, zip(*graph["edges"])))})


def test_raw_line_separators_index_open_and_query(tmp_path, capsys):
    # Raw U+0085, U+2028 and U+2029 inside JSON strings: the corpus, chunks.jsonl
    # (whose chunk ids carry the doc id) and graph.json all hold them unescaped.
    docs = [
        {"id": "rome\u2028a", "text": "Rome is the capital of Italy.\u0085Rome hosts the Tiber festival.\u2028"
                                     "The Tiber crosses Rome.\u2029Rome hosts the old games."},
        {"id": "b", "text": "Milan hosts the opera. The Duomo stands in Milan."},
    ]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(d, ensure_ascii=False) + "\n" for d in docs), encoding="utf-8")
    out = tmp_path / "store"
    assert main(["index", "--corpus", str(corpus), "--out", str(out)]) == 0
    assert "\u2028" in (out / "chunks.jsonl").read_text(encoding="utf-8")
    store = open_store(out)
    doc_ids = {c.parent_semantic_chunk.rpartition("#s")[0] for c in store.vectors.metadata.values()}
    assert doc_ids == {"rome\u2028a", "b"}
    capsys.readouterr()
    assert main(["query", "--store", str(out), "--question", "What does Rome host?", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["chunks"][0]["id"].startswith("rome\u2028a#")
    assert "Tiber festival" in payload["structured_text"]


def _grow_nodes(graph_path: Path) -> None:
    graph = json.loads(graph_path.read_text())
    graph["nodes"].append("an entity no triple names")
    graph_path.write_text(json.dumps(graph))


def _halve_edges(graph_path: Path) -> None:
    graph = json.loads(graph_path.read_text())
    graph["edges"] = [column[: len(column) // 2] for column in graph["edges"]]
    graph_path.write_text(json.dumps(graph))


class TestGraphOnFirstRead:
    """graph.json is read and checked when a command first needs the graph, never by a semantic query."""

    @pytest.mark.parametrize(
        "corrupt",
        [Path.unlink, lambda path: path.write_text("{not json"), _grow_nodes, _halve_edges],
        ids=["missing", "not-json", "node-count", "edge-count"],
    )
    def test_semantic_query_over_a_corrupt_graph_prints_the_intact_bytes(
        self, store_dir, tmp_path, monkeypatch, capsys, corrupt
    ):
        assert run_in(tmp_path, monkeypatch, store_dir, SEMANTIC_QUERY) == 0
        intact = capsys.readouterr().out
        corrupt(store_dir / "graph.json")
        assert run_in(tmp_path, monkeypatch, store_dir, SEMANTIC_QUERY) == 0
        assert capsys.readouterr() == (intact, "")
        for command in GRAPH_READERS.values():
            assert run_in(tmp_path, monkeypatch, store_dir, command) == 3, command
            assert capsys.readouterr().err.startswith("error: corrupt store: ")
        assert_nothing_written(tmp_path)

    @each_untiled_span
    def test_semantic_query_over_untiled_spans_prints_the_intact_bytes(
        self, mini_store_dir, tmp_path, monkeypatch, capsys, chunk_id, span
    ):
        store, workdir = shutil.copytree(mini_store_dir, tmp_path / "mini"), tmp_path / "work"
        workdir.mkdir()
        assert run_in(workdir, monkeypatch, store, SEMANTIC_QUERY) == 0
        intact = capsys.readouterr().out
        respan(store, chunk_id, span)
        assert run_in(workdir, monkeypatch, store, SEMANTIC_QUERY) == 0
        assert capsys.readouterr() == (intact, "")
        for command in GRAPH_READERS.values():
            assert run_in(workdir, monkeypatch, store, command) == 3, command
            err = capsys.readouterr().err
            assert err.startswith("error: corrupt store: ") and f"chunk {chunk_id!r} starts at token {span[0]}" in err
        assert_nothing_written(workdir)

    @pytest.mark.parametrize("cut", [slice(0, 3), slice(0, -1), slice(1, None)], ids=["3-tokens", "one-short", "head-cut"])
    def test_chunk_text_that_does_not_hold_its_span_exits_3_where_the_graph_is_read(
        self, mini_store_dir, tmp_path, monkeypatch, capsys, cut
    ):
        store, workdir = shutil.copytree(mini_store_dir, tmp_path / "mini"), tmp_path / "work"
        workdir.mkdir()
        rows = [json.loads(line) for line in (store / "chunks.jsonl").read_text().splitlines()]
        [row] = [row for row in rows if row["chunk_id"] == "dishes#s0#t0"]
        assert row["span"] == [0, 68] and len(row["text"].split(" ")) == 68
        rewrite_chunk(store, "dishes#s0#t0", text=" ".join(row["text"].split(" ")[cut]))
        assert run_in(workdir, monkeypatch, store, SEMANTIC_QUERY) == 0  # the graph's parent texts are never rebuilt
        capsys.readouterr()
        for command in GRAPH_READERS.values():
            assert run_in(workdir, monkeypatch, store, command) == 3, command
            err = capsys.readouterr().err
            assert err.startswith("error: corrupt store: ") and "chunk 'dishes#s0#t0' text holds" in err
            assert "but its span [0, 68) covers 68" in err
        assert_nothing_written(workdir)

    @pytest.mark.parametrize(
        "records, mode",
        [
            ({"answer": "Rome is the capital of Italy.", "contexts": ["Rome is the capital of Italy."]}, []),
            ({}, ["--mode", "semantic"]),
        ],
        ids=["no-retrieval", "semantic-retrieval"],
    )
    def test_eval_that_reads_no_graph_over_a_missing_graph(self, store_dir, tmp_path, capsys, records, mode):
        path, out = tmp_path / "records.jsonl", tmp_path / "report.csv"
        record = {"question": "What crosses Rome?", "ground_truth": "The Tiber crosses Rome.", **records}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        argv = ["eval", "--store", str(store_dir), "--records", str(path), "--out", str(out), *mode]
        assert main(argv) == 0
        intact = out.read_bytes()
        out.unlink()
        (store_dir / "graph.json").unlink()
        assert main(argv) == 0
        assert out.read_bytes() == intact

    def test_open_and_semantic_query_never_load_the_graph(self, store_dir):
        with mock.patch.object(KnowledgeGraph, "load_json", side_effect=AssertionError("graph loaded")) as load:
            store = open_store(store_dir)
            result = run_query(store, "What crosses Rome?", QueryConfig(mode="unstructured_only"))
            assert result.ranked_chunks and result.structured_text == ""
            assert load.call_count == 0
            with pytest.raises(AssertionError, match="graph loaded"):
                run_query(store, "What crosses Rome?", QueryConfig(mode="hybrid"))

    def test_open_and_semantic_query_never_rebuild_the_parent_texts(self, store_dir):
        fail = AssertionError("parent texts rebuilt")
        with mock.patch("kgrag.pipeline.reconstruct_parent_texts", side_effect=fail) as rebuild:
            store = open_store(store_dir)
            assert run_query(store, "What crosses Rome?", QueryConfig(mode="unstructured_only")).ranked_chunks
            assert rebuild.call_count == 0
            with pytest.raises(AssertionError, match="parent texts rebuilt"):
                store.graph

    def test_the_parent_texts_are_rebuilt_once(self, store_dir):
        store = open_store(store_dir)
        with mock.patch("kgrag.pipeline.reconstruct_parent_texts", wraps=reconstruct_parent_texts) as rebuild:
            for mode in MODES * 2:
                run_query(store, "What crosses Rome?", QueryConfig(mode=mode))
            assert store.graph is store.graph
        assert rebuild.call_count == 1
        assert store.graph._chunk_texts == reconstruct_parent_texts(list(store.vectors.metadata.values()))

    def test_the_graph_is_loaded_once(self, store_dir):
        store = open_store(store_dir)
        with mock.patch.object(KnowledgeGraph, "load_json", wraps=KnowledgeGraph.load_json) as load:
            results = [run_query(store, "What crosses Rome?", QueryConfig(mode=mode)) for mode in MODES * 2]
        assert load.call_count == 1
        assert results[: len(MODES)] == results[len(MODES) :]


class TestCmdGraphExport:
    def test_json_export_isomorphic(self, store_dir, tmp_path):
        out = tmp_path / "kg.json"
        assert main(["graph-export", "--store", str(store_dir), "--format", "json", "--out", str(out)]) == 0
        exported = json.loads(out.read_text())
        original = json.loads((store_dir / "graph.json").read_text())
        assert exported == original
        assert out.read_bytes() == (store_dir / "graph.json").read_bytes()  # one writer, one layout

    def test_dot_export(self, store_dir, tmp_path):
        out = tmp_path / "kg.dot"
        assert main(["graph-export", "--store", str(store_dir), "--format", "dot", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("digraph ") and text.rstrip().endswith("}")

    def test_escaped_lone_surrogate_in_a_name_exit_3(self, store_dir, tmp_path, capsys):
        graph_path = store_dir / "graph.json"
        graph = json.loads(graph_path.read_text())
        graph["nodes"][0] += "\udc00"
        graph_path.write_text(json.dumps(graph))  # ASCII, so the surrogate stays escaped
        out = tmp_path / "kg.json"
        assert main(["graph-export", "--store", str(store_dir), "--format", "json", "--out", str(out)]) == 3
        assert f"{graph_path}: graph node 0 name holds the lone surrogate '\\udc00'" in capsys.readouterr().err
        assert not out.exists()

    def test_escaped_lone_surrogate_in_a_relation_exit_3(self, store_dir, tmp_path, capsys):
        graph_path = store_dir / "graph.json"
        graph = json.loads(graph_path.read_text())
        last = len(graph["relations"]) - 1
        graph["relations"][last] += "\udc00"  # still the greatest entry, so the table stays sorted
        graph_path.write_text(json.dumps(graph))  # ASCII, so the surrogate stays escaped
        out = tmp_path / "kg.json"
        assert main(["graph-export", "--store", str(store_dir), "--format", "json", "--out", str(out)]) == 3
        assert f"{graph_path}: graph relations[{last}] holds the lone surrogate '\\udc00'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", STORE_FILES)
    def test_output_naming_a_store_file_exit_2(self, store_dir, tmp_path, monkeypatch, capsys, name):
        before = {path: path.read_bytes() for path in (store_dir / n for n in STORE_FILES)}
        alias = tmp_path / "kg.dot"
        os.link(store_dir / name, alias)  # another name for the same file
        monkeypatch.chdir(store_dir)
        assert main(["graph-export", "--store", ".", "--format", "dot", "--out", str(alias)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {alias}: the command reads that file\n"
        assert {path: path.read_bytes() for path in before} == before
        assert main(["query", "--store", str(store_dir), "--question", "What crosses Rome?"]) == 0

    def test_corrupt_store_exit_3(self, tmp_path):
        missing = tmp_path / "void"
        missing.mkdir()
        assert main(["graph-export", "--store", str(missing), "--format", "json",
                     "--out", str(tmp_path / "x.json")]) == 3


class TestRemoteProviderWiring:
    def fake_embedding_post(self):
        import random

        from kgrag.embedding import fnv1a64
        from helpers import FakeResponse, embedding_payload

        def fake_post(url, json=None, headers=None, timeout=None):
            assert url.endswith("/embeddings")
            vectors = []
            for text in json["input"]:
                rng = random.Random(fnv1a64(text.encode("utf-8")))
                vectors.append([rng.uniform(-1, 1) for _ in range(16)])
            return FakeResponse(200, embedding_payload(vectors))

        return fake_post

    def test_remote_extractor_requests_hold_each_chunk_joined(self, tmp_path, monkeypatch):
        # One request per semantic chunk, its sentences joined by single spaces, so the
        # heading document's paragraph break reaches the prompt as one space.
        import kgrag.remote as remote_mod
        from helpers import FakePost, FakeResponse, chat_payload

        fake = FakePost([FakeResponse(200, chat_payload("[]"))] * 3)
        monkeypatch.setattr(remote_mod, "_send", fake)
        corpus = write_corpus(tmp_path)
        (corpus / "c.txt").write_text("Naples Pizza\n\nIt is from Rome.", encoding="utf-8")
        code = main(
            ["index", "--corpus", str(corpus), "--out", str(tmp_path / "store"),
             "--extractor", "remote", "--api-base", "http://api.test/v1", "--chat-model", "chat-1"]
        )
        assert code == 0
        texts = [
            "Rome is the capital of Italy. Rome hosts ancient festivals. "
            "The Tiber crosses Rome on its way to the sea.",
            "Naples is the birthplace of Margherita pizza. Naples faces Vesuvius across the bay.",
            "Naples Pizza It is from Rome.",
        ]
        assert [call["url"] for call in fake.calls] == ["http://api.test/v1/chat/completions"] * 3
        assert [call["json"] for call in fake.calls] == [
            {
                "model": "chat-1",
                "messages": [
                    {"role": "system", "content": "You extract knowledge triples."},
                    {"role": "user", "content": EXTRACTION_USER_TEMPLATE.format(text=text)},
                ],
            }
            for text in texts
        ]

    @pytest.mark.parametrize("content", [None, 7])
    def test_remote_extractor_reply_without_string_content_exit_4(self, tmp_path, monkeypatch, capsys, content):
        import kgrag.remote as remote_mod
        from helpers import FakePost, FakeResponse, chat_payload

        monkeypatch.setattr(remote_mod, "_send", FakePost([FakeResponse(200, chat_payload(content))]))
        argv = ["index", "--corpus", str(write_corpus(tmp_path)), "--out", str(tmp_path / "store"),
                "--extractor", "remote", "--api-base", "http://api.test/v1", "--chat-model", "chat-1"]
        assert main(argv) == 4
        assert "error: provider failure: malformed chat response: content is not a string" in capsys.readouterr().err

    def test_index_and_query_with_remote_embedder(self, tmp_path, monkeypatch, capsys):
        import kgrag.remote as remote_mod

        monkeypatch.setattr(remote_mod, "_send", self.fake_embedding_post())
        corpus = write_corpus(tmp_path)
        out = tmp_path / "store"
        code = main(
            ["index", "--corpus", str(corpus), "--out", str(out),
             "--embedder", "remote", "--api-base", "http://api.test/v1",
             "--embed-model", "embed-1", "--embed-dim", "16"]
        )
        assert code == 0
        provider = json.loads((out / "manifest.json").read_text())["config"]["provider"]
        assert provider["endpoint_url"] == "http://api.test/v1/embeddings"
        assert provider["model_name"] == "embed-1"
        capsys.readouterr()
        code = main(["query", "--store", str(out), "--question", "What crosses Rome?", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["chunks"]

    def test_one_window_batch_per_document(self, tmp_path, monkeypatch):
        import kgrag.remote as remote_mod

        fake_post = self.fake_embedding_post()
        inputs: list[list[str]] = []

        def recording_post(url, json=None, headers=None, timeout=None):
            inputs.append(list(json["input"]))
            return fake_post(url, json=json, headers=headers, timeout=timeout)

        monkeypatch.setattr(remote_mod, "_send", recording_post)
        corpus = write_corpus(tmp_path)
        out = tmp_path / "store"
        code = main(
            ["index", "--corpus", str(corpus), "--out", str(out),
             "--embedder", "remote", "--api-base", "http://api.test/v1",
             "--embed-model", "embed-1", "--embed-dim", "16"]
        )
        assert code == 0
        windows = [build_windows(split_sentences(doc.text), 1) for doc in load_corpus(corpus)]
        chunks = [json.loads(line)["text"] for line in (out / "chunks.jsonl").read_text().splitlines()]
        assert inputs == [*windows, chunks]

    def test_window_failure_names_the_document(self, tmp_path, monkeypatch, capsys):
        import kgrag.remote as remote_mod
        from helpers import FakePost, FakeResponse, embedding_payload

        monkeypatch.setattr(remote_mod.time, "sleep", lambda _: None)
        first_doc = [[0.5] * 16] * 3  # a.txt has three sentences
        fake = FakePost([FakeResponse(200, embedding_payload(first_doc)), FakeResponse(400, text="bad input")])
        monkeypatch.setattr(remote_mod, "_send", fake)
        corpus = write_corpus(tmp_path)
        out = tmp_path / "store"
        code = main(
            ["index", "--corpus", str(corpus), "--out", str(out),
             "--embedder", "remote", "--api-base", "http://api.test/v1",
             "--embed-model", "embed-1", "--embed-dim", "16"]
        )
        assert code == 4
        assert "window embedding failed for doc 'b'" in capsys.readouterr().err
        assert len(fake.calls) == 2
        assert not out.exists()

    def test_remote_extractor_without_api_base_exit_2(self, tmp_path):
        corpus = write_corpus(tmp_path)
        out = tmp_path / "store"
        code = main(["index", "--corpus", str(corpus), "--out", str(out), "--extractor", "remote"])
        assert code == 2
        assert not out.exists()  # partial store removed

    def test_remote_embedder_without_api_base_exit_2(self, tmp_path, monkeypatch, capsys):
        import kgrag.remote as remote_mod

        sleeps = []
        monkeypatch.setattr(remote_mod.time, "sleep", sleeps.append)
        corpus = write_corpus(tmp_path)
        out = tmp_path / "store"
        code = main(["index", "--corpus", str(corpus), "--out", str(out), "--embedder", "remote"])
        assert code == 2
        assert "(index with --api-base)" in capsys.readouterr().err
        assert sleeps == []
        assert not out.exists()  # partial store removed

    def test_provider_failure_exit_4(self, tmp_path, monkeypatch):
        import kgrag.remote as remote_mod
        from helpers import FakePost, FakeResponse

        monkeypatch.setattr(remote_mod.time, "sleep", lambda _: None)
        monkeypatch.setattr(remote_mod, "_send", FakePost([FakeResponse(500, text="boom")] * 16))
        corpus = write_corpus(tmp_path)
        out = tmp_path / "store"
        code = main(
            ["index", "--corpus", str(corpus), "--out", str(out),
             "--embedder", "remote", "--api-base", "http://api.test/v1",
             "--embed-model", "embed-1", "--embed-dim", "16"]
        )
        assert code == 4
        assert not out.exists()


    @pytest.mark.parametrize(
        "value",
        [None, "abc", ["abc"] * 16, [[0.5]] * 16, ["1.5"] * 16, [True] * 16],
        ids=["null", "string", "string-items", "nested", "numeric-string-items", "bool-items"],
    )
    def test_bad_embedding_values_exit_4(self, tmp_path, monkeypatch, capsys, value):
        import kgrag.remote as remote_mod
        from helpers import FakeResponse

        def fake_post(url, json=None, headers=None, timeout=None):
            items = [{"index": i, "embedding": value} for i in range(len(json["input"]))]
            return FakeResponse(200, {"data": items})

        monkeypatch.setattr(remote_mod, "_send", fake_post)
        corpus = write_corpus(tmp_path)
        out = tmp_path / "store"
        code = main(
            ["index", "--corpus", str(corpus), "--out", str(out),
             "--embedder", "remote", "--api-base", "http://api.test/v1",
             "--embed-model", "embed-1", "--embed-dim", "16"]
        )
        assert code == 4
        assert "error: provider failure: window embedding failed" in capsys.readouterr().err
        assert not out.exists()


class TestMiniCorpusFixture:
    def test_three_documents(self):
        docs = load_corpus(MINI_CORPUS)
        assert [d.doc_id for d in docs] == ["dishes", "regions", "traditions"]
        for doc in docs:
            assert len(split_sentences(doc.text)) >= 20

    def test_questions_parse(self):
        lines = MINI_QUESTIONS.read_text().splitlines()
        assert len(lines) >= 5
        for line in lines:
            obj = json.loads(line)
            assert obj["question"] and obj["ground_truth"]

    def test_query_json_pinned(self, mini_store_dir, capsys):
        # Every question's ``query --json`` bytes in each mode (hybrid, semantic, kg):
        # a change to rendering, fusion or the boost that moves any output fails here.
        expected = {
            "What is the Margherita pizza named after?": (
                "1d61e13854d19b1b6ec9c777282dcc241c02a0180a58188daf45be432804d130",
                "0a8d21f7e155e7c7def1c2152a81ee329a0d0e1f422efb2f4f006278cd47bff5",
                "00bd58bab1f7320a88da04c911800a16b3683ce56110808ea1a53fee918416b3",
            ),
            "Which cheese goes into Carbonara in Rome?": (
                "024c0be3edb9695b43f8c43b8f1824c0861bab6cd7c9e086edcd85503501ef8a",
                "4a7ee26573ca0bd4c3c26464c1e1543ddc1ba673955d752567ac630412060d76",
                "e9dbf0028a6e52aea0f7192525a32ffbb201a8727cd3d168b59a4c5cd661053d",
            ),
            "Where do San Marzano tomatoes grow?": (
                "bec48caca5e21882eefa074911c10c2141cc48611c086c2bfa790c20eaf65eec",
                "d9fdbd6380b732e9d44aebd5895e320ecf1011b2bb698584e96c49ee5cf57196",
                "ba294a5f53293a82b595729962bd2be9d5cc9210e11591735faa35710eecadb3",
            ),
            "How long does Parmigiano-Reggiano age?": (
                "aeb9fe04a375a5ffc235fa7ee6a4c323e7c7c8ba1a929823362b5a54e27c1abc",
                "0b4e381251d17f8cfde09e261df115765d35d8238a05a7248ced2e1f8a45f8e3",
                "239c9317c5fa5e204af2a86f3d5ed443f2df6e8ccb19a343e97b06f523ac0861",
            ),
            "What does Venice celebrate with frittelle?": (
                "c2ca7d683c792cd7bb03788bde37bac51d4304c45e64643e44c9d0aa57f6e203",
                "eef2476acd2a19aa294f1d37b74dbeeb67ff12453515478dd0717eefafecbbc7",
                "d88939a72b66e2e556d58d6b699bad4a849d5de3e131b7d05801576c848b56d7",
            ),
            "When do Italians drink cappuccino?": (
                "5580146e69e86aebc4848488e1b69b7a26c2115bae632902d996701b20f88e1d",
                "744fa675d5d927ef55b113cbcc018f718dcb88d69ff48520fb0534939959f555",
                "c77b075c90c7a06eeb0ad89c43ac6a5074aad190158bf5f1344714b0f1a6513f",
            ),
        }
        assert list(expected) == [json.loads(line)["question"] for line in MINI_QUESTIONS.read_text().splitlines()]

        def digest(question: str, mode: str) -> str:
            argv = ["query", "--store", str(mini_store_dir), "--mode", mode, "--question", question, "--json"]
            assert main(argv) == 0
            return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

        modes = ("hybrid", "semantic", "kg")
        assert {question: tuple(digest(question, mode) for mode in modes) for question in expected} == expected

    def test_store_bytes_pinned(self, mini_store_dir, tmp_path):
        # Two builds of the same code agreeing (criterion 10) cannot catch drift
        # from the algorithm; these digests pin the bytes a default build writes.
        expected = {
            "vectors.skvx": "a081e1ec5e6c45e9727ead13645ba9d178c743d77cdbddb1e0a8820dc5b87fe2",
            "chunks.jsonl": "c2e56f04940f94942241dc30c28e7caa39fca958c9bda84c52071e35e18fd6e4",
            "graph.json": "0a00e0b7185eeff78256048934ad15d9e11834415b7bf03bc701aac648743e51",
            "manifest.json": "08706f47718b3c5d981fe0c7e958f7be3ae50b7c4ee8d4a51406a7262a667fc5",
        }
        digests = {name: hashlib.sha256((mini_store_dir / name).read_bytes()).hexdigest() for name in expected}
        assert digests == expected
        # The format-6 manifest digest, the four config values it held written back;
        # then the format-5 digests, each chunk record's doc id and parent and the
        # corpus fingerprint written back: only the layout moved.
        v6 = v6_manifest((mini_store_dir / "manifest.json").read_bytes())
        assert hashlib.sha256(v6).hexdigest() == "a7b635ed63b23bf72017f969a983573485d35652f29518aae5c080bdf89d78e6"
        v5 = v5_chunks((mini_store_dir / "chunks.jsonl").read_bytes())
        assert hashlib.sha256(v5).hexdigest() == "531770bbb0558eb3355d4bfbf2cbe466b3838a054cde753b8d41e7a835d9db07"
        v5 = v5_manifest(v6, load_corpus(MINI_CORPUS))
        assert hashlib.sha256(v5).hexdigest() == "346aedc432131b05bd0fa7d52ab28251454dfb59103be72903d5ee0046b4c89a"
        assert_export_is_one_encode(mini_store_dir)
        # The DOT export of the same graph: node ids are positions, edges in sorted order.
        dot = tmp_path / "mini.dot"
        assert main(["graph-export", "--store", str(mini_store_dir), "--format", "dot", "--out", str(dot)]) == 0
        assert hashlib.sha256(dot.read_bytes()).hexdigest() == "789ef335a10f570b3af09d42de97e3ff35de09f1f20b20a542945e2347024c56"
        # The format-4 digest, each relation and chunk id written out in its column;
        # the format-3 digest, each node's contexts filled back from its edges; and the
        # format-2 digest, the same graph as one row per edge: only the layout moved.
        v4 = v4_graph(json.loads((mini_store_dir / "graph.json").read_text(encoding="utf-8")))
        assert hashlib.sha256(compact_bytes(v4)).hexdigest() == "6fd5fae5607511e413f5cb046887c92f92bf21c83db881a29b94495ac2ddf57b"
        graph = v3_graph(v4)
        v3 = "85e93e32e556d1e4458a616225ba4aa5748a4db3265fca4b2629850708168a60"
        assert hashlib.sha256(compact_bytes(graph)).hexdigest() == v3
        v2 = "87ce7b34abafda06038be6a2171315e18abccd241c4653b061b5ec0bfe5bf78f"
        assert hashlib.sha256(v2_rows(graph)).hexdigest() == v2


# Mixed-case Unicode words for the pinned larger corpus: final sigma, dotted
# capital I, titlecase and circled capitals, sharp s, and plain stopwords.
_PINNED_VOCAB = (
    ("Rome", "Tiber", "ΟΔΟΣ", "bridge", "river", "crosses", "the", "of", "ancient", "İzmir", "Straße"),
    ("Naples", "Vesuvius", "ΣΟΦΊΑ", "pizza", "oven", "bakes", "a", "in", "Margherita", "ǅamija", "Ⓐrles"),
    ("Milan", "Duomo", "Ὀδυσσεύς", "opera", "stage", "hosts", "The", "and", "café", "Naïve", "ΚΌΣΜΟΣ"),
)
# Separators inside a sentence: plain, no-break, em and tab spaces.
_PINNED_SEPARATORS = (" ", " ", " ", " ", " ", "\t")


def pinned_corpus_lines() -> list[str]:
    """Three JSONL documents of 110 sentences each, from a fixed LCG (no ``random``).

    330 sentences put a 256-row window block edge inside the third
    document, the topic changes every 22 sentences, and the sentences are
    long enough for several token windows per semantic chunk.
    """
    state = 20261018
    lines = []
    for d in range(3):
        sentences = []
        for s in range(110):
            vocab = _PINNED_VOCAB[(d + s // 22) % len(_PINNED_VOCAB)]
            words = []
            for _ in range(6 + (5 * s + d) % 9):
                state = (state * 1103515245 + 12345) % 2**31
                words.append(vocab[(state >> 8) % len(vocab)])
            words[0] = words[0][:1].upper() + words[0][1:]
            sentences.append(_PINNED_SEPARATORS[s % len(_PINNED_SEPARATORS)].join(words) + ".")
        lines.append(json.dumps({"id": f"doc{d}", "text": " ".join(sentences)}, ensure_ascii=False))
    return lines


class TestStoreBytesPinnedLargerCorpus:
    def test_store_bytes_pinned(self, tmp_path):
        # The mini corpus never crosses a window block; this corpus does, with
        # several semantic chunks per document and several windows per chunk.
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(pinned_corpus_lines()) + "\n", encoding="utf-8")
        docs = load_corpus(corpus)
        assert sum(len(split_sentences(d.text)) for d in docs) > 256
        manifest = build_store(corpus, tmp_path / "store")
        assert manifest.counts["semantic_chunks"] >= 3 * len(docs)
        assert manifest.counts["chunks"] >= 2 * manifest.counts["semantic_chunks"]
        expected = {
            "vectors.skvx": "69644bbd8b7fb4eb8c237ced211fc380a03680546d4201e414145912c4951c35",
            "chunks.jsonl": "32343ea9e5d3127c7d56561cd1d5135ffcd58b9936a127c495618fad4282673c",
            "graph.json": "9ab2b3a4030f0a8067ef3ef56d73820398a835f1c79367fe3a5214c8a0da29fb",
            "manifest.json": "3eaac7ec6008179f63f3a31cd050b6b0f06acf9c7bd6ed59e53057dc02cf218f",
        }
        store = tmp_path / "store"
        digests = {name: hashlib.sha256((store / name).read_bytes()).hexdigest() for name in expected}
        assert digests == expected
        assert_export_is_one_encode(store)
        # The format-6 manifest digest, the four config values it held written back.
        # The format-5 digests: each chunk record's doc id and parent written out, and
        # the manifest's corpus fingerprint. Then the format-4, format-3 and format-2
        # digests: the graph with its labels written out, then with each node's
        # contexts filled back from its edges, then as one row per edge, and the
        # format-5 manifest naming version 4, 3, then 2, so only the layout and the
        # version moved.
        v6 = v6_manifest((store / "manifest.json").read_bytes())
        assert hashlib.sha256(v6).hexdigest() == "b4601ebcc1def288962044a7bba4942273d5ccd1749a6de58194f0290d323691"
        v5 = v5_chunks((store / "chunks.jsonl").read_bytes())
        assert hashlib.sha256(v5).hexdigest() == "f90eda607dc55fd411c921288bcffdda38b79aac5906c10aed8c66ada46bcbc4"
        manifest = v5_manifest(v6, docs)
        assert hashlib.sha256(manifest).hexdigest() == "248e7d46bd36145a7b67f22445dbee7a705ab46c3cff6ee8caadc20df78a9a9a"
        v4 = v4_graph(json.loads((store / "graph.json").read_text(encoding="utf-8")))
        assert hashlib.sha256(compact_bytes(v4)).hexdigest() == "b682750d9f648fe8828123f48f59fb1fa3a6efd977c43c8aa84dbb7cd5b2976e"
        graph = v3_graph(v4)
        assert hashlib.sha256(compact_bytes(graph)).hexdigest() == "c80f72604723e52a31dc5dc040075c21fd89a6b00c4fcc3230de52238d71f1a5"
        assert hashlib.sha256(v2_rows(graph)).hexdigest() == "b979d93e36497796c82b19c7f921c0fe496d19838bbec706abe94f8abd600816"
        assert manifest.count(b'"format_version": 5,') == 1
        old = {version: manifest.replace(b'"format_version": 5,', f'"format_version": {version},'.encode()) for version in (4, 3, 2)}
        assert hashlib.sha256(old[4]).hexdigest() == "620712cd82e197e45e6e79232fa738fd190a05fa061081a64484594960ab9384"
        assert hashlib.sha256(old[3]).hexdigest() == "007c0ab40eedd6d9ca103fa3c3c9d90a9417fcc890c90aee283188c0620e4c19"
        assert hashlib.sha256(old[2]).hexdigest() == "079bee540e238b818fe00f99b3b47685479c8d123f3e5ffc9fcd4bb48a9dc702"

from __future__ import annotations

import json
from pathlib import Path

import pytest

from kgrag.chunking import ChunkerConfig
from kgrag.cli import main
from kgrag.corpus import Document, load_corpus, split_sentences
from kgrag.embedding import HashedEmbedder
from kgrag.pipeline import (
    build_store,
    chunk_document,
    corpus_fingerprint,
    open_store,
    reconstruct_parent_texts,
    run_query,
)
from kgrag.retriever import QueryConfig

from conftest import MINI_CORPUS, MINI_QUESTIONS


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
            source="t",
        )
        semantic, chunks = chunk_document(doc, HashedEmbedder(64), ChunkerConfig(window_k=0))
        rebuilt = reconstruct_parent_texts(chunks)
        for sem in semantic:
            assert rebuilt[sem.chunk_id] == " ".join(sem.text.split())

    def test_fingerprint_sensitive_to_content_and_order(self):
        docs1 = [Document("a", "text one", "s"), Document("b", "text two", "s")]
        docs2 = [Document("a", "text one!", "s"), Document("b", "text two", "s")]
        docs3 = [docs1[1], docs1[0]]
        prints = {corpus_fingerprint(d) for d in (docs1, docs2, docs3)}
        assert len(prints) == 3
        assert corpus_fingerprint(docs1) == corpus_fingerprint(list(docs1))

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
        assert manifest.counts["edges"] == len(graph_obj["edges"])

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


class TestCmdIndex:
    def test_success_and_artifact_contract(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        out = tmp_path / "store"
        assert main(["index", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert "indexed 2 documents" in capsys.readouterr().out
        for name in ("manifest.json", "chunks.jsonl", "vectors.skvx", "graph.json"):
            assert (out / name).is_file()

    def test_missing_corpus_exit_2(self, tmp_path, capsys):
        code = main(["index", "--corpus", str(tmp_path / "nope"), "--out", str(tmp_path / "s")])
        assert code == 2
        assert "error" in capsys.readouterr().err

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

    def test_invalid_flag_combo_exit_2(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        code = main(
            ["index", "--corpus", str(corpus), "--out", str(tmp_path / "s"),
             "--chunk-size", "10", "--overlap", "10"]
        )
        assert code == 2


@pytest.fixture()
def store_dir(tmp_path) -> Path:
    corpus = write_corpus(tmp_path)
    out = tmp_path / "store"
    build_store(corpus, out)
    return out


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
            "matched_entities", "unmatched_mentions", "candidate_count", "empty"
        }
        assert all(set(c) == {"id", "score", "boost", "final"} for c in payload["chunks"])
        # echo generator answers with the context itself
        assert payload["answer"] == payload["unified_context"]

    def test_corrupt_store_exit_3(self, store_dir, capsys):
        (store_dir / "vectors.skvx").write_bytes(b"garbage")
        code = main(["query", "--store", str(store_dir), "--question", "Anything?"])
        assert code == 3

    def test_missing_manifest_exit_3(self, tmp_path):
        empty = tmp_path / "notastore"
        empty.mkdir()
        assert main(["query", "--store", str(empty), "--question", "Q?"]) == 3

    def test_duplicate_chunk_id_exit_3(self, store_dir, capsys):
        sidecar = store_dir / "chunks.jsonl"
        rows = [json.loads(line) for line in sidecar.read_text().splitlines()]
        rows[1]["chunk_id"] = rows[0]["chunk_id"]
        sidecar.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert main(["query", "--store", str(store_dir), "--question", "Anything?"]) == 3
        assert "duplicate chunk_id" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value", [(("config", "provider", "dimension"), 128), (("counts", "chunks"), 1)]
    )
    def test_manifest_disagrees_with_vectors_exit_3(self, store_dir, capsys, field, value):
        manifest_path = store_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        section = manifest
        for key in field[:-1]:
            section = section[key]
        section[field[-1]] = value
        manifest_path.write_text(json.dumps(manifest))
        assert main(["query", "--store", str(store_dir), "--question", "Anything?"]) == 3
        assert "manifest" in capsys.readouterr().err

    def test_remote_generator_without_chat_model_exit_2(self, store_dir, capsys):
        code = main(
            ["query", "--store", str(store_dir), "--question", "What crosses Rome?",
             "--answer", "--generator", "remote"]
        )
        assert code == 2
        assert "remote generator" in capsys.readouterr().err


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

    def test_remote_judge_without_chat_model_exit_2(self, store_dir, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text(
            json.dumps({"question": "What is Rome?", "ground_truth": "Rome is the capital of Italy."})
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "report.csv"
        code = main(
            ["eval", "--store", str(store_dir), "--records", str(records), "--out", str(out),
             "--judge", "remote"]
        )
        assert code == 2
        assert "remote judge" in capsys.readouterr().err

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


class TestCmdGraphExport:
    def test_json_export_isomorphic(self, store_dir, tmp_path):
        out = tmp_path / "kg.json"
        assert main(["graph-export", "--store", str(store_dir), "--format", "json", "--out", str(out)]) == 0
        exported = json.loads(out.read_text())
        original = json.loads((store_dir / "graph.json").read_text())
        assert exported == original

    def test_dot_export(self, store_dir, tmp_path):
        out = tmp_path / "kg.dot"
        assert main(["graph-export", "--store", str(store_dir), "--format", "dot", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("digraph ") and text.rstrip().endswith("}")

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

    def test_index_and_query_with_remote_embedder(self, tmp_path, monkeypatch, capsys):
        import kgrag.remote as remote_mod

        monkeypatch.setattr(remote_mod.requests, "post", self.fake_embedding_post())
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

    def test_remote_extractor_without_api_base_exit_2(self, tmp_path):
        corpus = write_corpus(tmp_path)
        out = tmp_path / "store"
        code = main(["index", "--corpus", str(corpus), "--out", str(out), "--extractor", "remote"])
        assert code == 2
        assert not out.exists()  # partial store removed

    def test_provider_failure_exit_4(self, tmp_path, monkeypatch):
        import kgrag.remote as remote_mod
        from helpers import FakePost, FakeResponse

        monkeypatch.setattr(remote_mod.time, "sleep", lambda _: None)
        monkeypatch.setattr(
            remote_mod.requests, "post", FakePost([FakeResponse(500, text="boom")] * 16)
        )
        corpus = write_corpus(tmp_path)
        out = tmp_path / "store"
        code = main(
            ["index", "--corpus", str(corpus), "--out", str(out),
             "--embedder", "remote", "--api-base", "http://api.test/v1",
             "--embed-model", "embed-1", "--embed-dim", "16"]
        )
        assert code == 4
        assert not out.exists()


class TestMiniCorpusFixture:
    def test_three_documents(self):
        docs = load_corpus(MINI_CORPUS)
        assert [d.doc_id for d in docs] == ["dishes", "regions", "traditions"]
        for doc in docs:
            assert len(split_sentences(doc)) >= 20

    def test_questions_parse(self):
        lines = MINI_QUESTIONS.read_text().splitlines()
        assert len(lines) >= 5
        for line in lines:
            obj = json.loads(line)
            assert obj["question"] and obj["ground_truth"]

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance and runtime bound is pinned here; nothing is
calibrated at run time.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np
import pytest

from kgrag.chunking import (
    Chunk,
    ChunkerConfig,
    SemanticChunk,
    semantic_split,
    token_window_split,
    window_distances,
)
from kgrag.cli import main
from kgrag.embedding import HashedEmbedder
from kgrag.evaluation import (
    LexicalJudge,
    context_precision,
    context_recall,
    f1_context,
    faithfulness,
)
from kgrag.extraction import RuleExtractor, Triple
from kgrag.graph import KnowledgeGraph
from kgrag.lexical import content_tokens
from kgrag.pipeline import build_store, open_store, run_query
from kgrag.retriever import QueryConfig, rank_with_boosts, retrieve_hybrid
from kgrag.vector_index import VectorStore

from conftest import MINI_CORPUS, MINI_QUESTIONS
from helpers import two_topic_sentences

import kgrag.remote as remote_mod


def ok(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {label}")


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


# Reported (precision, recall, f1) triples from the external comparison
# tables; the f1 column must follow from its own precision/recall cells.
REPORTED_F1_ROWS = {
    "italian_cuisine": [
        (0.81, 0.88, 0.84),
        (0.92, 0.83, 0.87),
        (0.77, 0.33, 0.46),
        (0.38, 0.71, 0.50),
        (0.99, 0.72, 0.83),
    ],
    "quality": [
        (0.04, 0.22, 0.07),
        (0.26, 0.14, 0.18),
        (0.003, 0.07, 0.01),
        (0.23, 0.17, 0.20),
        (0.31, 0.23, 0.26),
    ],
    "qasper": [
        (0.28, 0.43, 0.34),
        (0.27, 0.44, 0.33),
        (0.29, 0.43, 0.35),
        (0.71, 0.60, 0.65),
        (0.67, 0.49, 0.57),
    ],
    "narrativeqa": [
        (0.10, 0.05, 0.07),
        (0.30, 0.16, 0.21),
        (0.004, 0.14, 0.01),
        (0.58, 0.47, 0.52),
        (0.51, 0.46, 0.48),
    ],
}


def test_criterion_01_f1_table_consistency():
    for table, rows in REPORTED_F1_ROWS.items():
        for precision, recall, reported in rows:
            value = round(f1_context(precision, recall), 2)
            assert abs(value - reported) <= 0.01 + 1e-12, (table, precision, recall)
    ok(1, "f1_context reproduces every reported F1 cell within 0.01")


def test_criterion_02_absolute_scores_out_of_scope():
    # The reported absolute metric scores came from proprietary LLM
    # extraction, embeddings, and judging at dataset scale; they are not
    # reproducible offline and are not asserted anywhere in this suite.
    # Criteria 3-10 are the deterministic substitutes.
    assert True
    ok(2, "absolute large-scale scores acknowledged as out of scope")


def test_criterion_03_splitter_exactness():
    rng = random.Random(303)
    with Timer() as t:
        for _ in range(500):
            total = rng.randint(1, 2000)
            sem = SemanticChunk(
                chunk_id="d#s0",
                sentence_span=(0, 0),
                sentences=(" ".join(f"t{i}" for i in range(total)),),
            )
            spans = [c.token_span for c in token_window_split(sem, 100, 16)]
            assert all(e - s <= 100 for s, e in spans)
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 - s2 == 16
            covered = set()
            for s, e in spans:
                covered.update(range(s, e))
            assert covered == set(range(total))
    assert t.elapsed < 1.0, f"splitter check took {t.elapsed:.2f}s"
    ok(3, f"500 random lengths: size<=100, overlap=16, full coverage ({t.elapsed:.2f}s)")


def test_criterion_04_chunker_boundary_oracle():
    config = ChunkerConfig(window_k=0, percentile=95.0, chunk_size=100, overlap=16)
    embedder = HashedEmbedder(256)
    with Timer() as t:
        hits = 0
        for seed in range(100):
            sentences, switch = two_topic_sentences(random.Random(seed))
            (distances,) = window_distances([("doc", sentences)], embedder, config.window_k)
            spans = [c.sentence_span for c in semantic_split("doc", sentences, distances, config)]
            if spans == [(0, switch - 1), (switch, len(sentences) - 1)]:
                hits += 1
    assert hits >= 95, f"only {hits}/100 clean single-boundary splits"
    assert t.elapsed < 5.0, f"boundary oracle took {t.elapsed:.2f}s"
    ok(4, f"two-topic boundary found exactly in {hits}/100 instances ({t.elapsed:.2f}s)")


def test_criterion_05_top_k_matches_brute_force():
    rng = random.Random(505)
    dim, n, n_queries, k = 64, 1000, 100, 10

    def mk_chunk(cid: str) -> Chunk:
        return Chunk(chunk_id=cid, token_span=(0, 1), text=cid)

    store = VectorStore(dim)
    rows = []
    for i in range(n):
        vec = np.asarray([rng.gauss(0, 1) for _ in range(dim)], dtype=np.float32)
        rows.append(np.asarray(vec, dtype=np.float64))
    store.add([mk_chunk(f"v{i}") for i in range(n)], np.asarray(rows, dtype=np.float32))
    store.seal()

    with Timer() as t:
        for _ in range(n_queries):
            query = np.asarray([rng.gauss(0, 1) for _ in range(dim)], dtype=np.float32)
            q64 = np.asarray(query, dtype=np.float64)
            qnorm = float(np.linalg.norm(q64))
            scores = [float(np.dot(row, q64)) / (float(np.linalg.norm(row)) * qnorm) for row in rows]
            oracle_order = sorted(range(n), key=lambda i: (-scores[i], i))[:k]
            oracle = [f"v{i}" for i in oracle_order]
            actual = [cid for cid, _ in store.top_k(query, k)]
            assert actual == oracle
    assert t.elapsed < 5.0, f"top-k oracle took {t.elapsed:.2f}s"
    ok(5, f"1000x64d, 100 queries, k=10: identical ids and order ({t.elapsed:.2f}s)")


def test_criterion_06_multi_hop_reaches_far_edge():
    graph = KnowledgeGraph({"c0": "ctx ab", "c1": "ctx bc"})
    graph.upsert_triple(Triple("alphaville", "supplies", "boulderton", "c0"))
    graph.upsert_triple(Triple("boulderton", "supplies", "cascadia", "c1"))
    graph.seal()
    question = "What is Alphaville?"

    def graph_text(hops: int) -> str:
        config = QueryConfig(mode="structured_only", hops=hops)
        # structured_only never touches the embedder or the vector store
        result = retrieve_hybrid(
            question, embedder=None, store=None, extractor=RuleExtractor(), graph=graph, config=config
        )
        return result.structured_text

    far_edge = "boulderton -[supplies]-> cascadia"
    two_hop_text = graph_text(2)
    one_hop_text = graph_text(1)
    assert far_edge in two_hop_text
    assert far_edge not in one_hop_text
    assert "alphaville -[supplies]-> boulderton" in one_hop_text
    ok(6, "hops=2 retrieves the b->c edge from a; hops=1 does not")


@pytest.fixture(scope="module")
def mini_store_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "mini_store"
    build_store(MINI_CORPUS, out)
    return out


def load_questions() -> list[dict]:
    return [json.loads(line) for line in MINI_QUESTIONS.read_text().splitlines() if line.strip()]


def test_criterion_07_hybrid_union_coverage(mini_store_path):
    store = open_store(mini_store_path)
    n = 8
    hybrid_cfg = QueryConfig(top_n_candidates=n, final_m_chunks=n, mode="hybrid")
    semantic_cfg = QueryConfig(top_n_candidates=n, final_m_chunks=n, mode="unstructured_only")
    kg_cfg = QueryConfig(top_n_candidates=n, final_m_chunks=n, mode="structured_only")

    for item in load_questions():
        question, ground_truth = item["question"], item["ground_truth"]
        hybrid = content_tokens(run_query(store, question, hybrid_cfg).unified_context)
        semantic = content_tokens(run_query(store, question, semantic_cfg).unified_context)
        kg = content_tokens(run_query(store, question, kg_cfg).unified_context)
        for token in content_tokens(ground_truth):
            if token in semantic or token in kg:
                assert token in hybrid, (question, token)
    ok(7, f"union coverage holds for all {len(load_questions())} fixture questions")


def test_criterion_08_fusion_degeneracy():
    rng = random.Random(808)
    with Timer() as t:
        for _ in range(200):
            n = rng.randint(1, 10)
            cosines = sorted((rng.uniform(-1, 1) for _ in range(n)), reverse=True)
            candidates = [(f"c{i}", f"text {i}", cosines[i]) for i in range(n)]
            boosts = [rng.uniform(0, 1) for _ in range(n)]

            # beta = 0: identical ids, order, and scores to the cosine ranking
            zero = rank_with_boosts(candidates, boosts, beta=0.0)
            assert [c.chunk_id for c in zero] == [cid for cid, _, _ in candidates]
            assert [c.final_score for c in zero] == [cos for _, _, cos in candidates]

            # beta > 0: raising one chunk's overlap while others stay fixed
            # never demotes it
            beta = rng.choice([0.1, 0.25, 0.5, 1.0])
            target = rng.randrange(n)
            before = [c.chunk_id for c in rank_with_boosts(candidates, boosts, beta)]
            raised = boosts[:]
            raised[target] = min(1.0, raised[target] + rng.uniform(0, 1))
            after = [c.chunk_id for c in rank_with_boosts(candidates, raised, beta)]
            assert after.index(f"c{target}") <= before.index(f"c{target}")
    assert t.elapsed < 1.0, f"fusion property took {t.elapsed:.2f}s"
    ok(8, f"beta=0 degeneracy and boost monotonicity over 200 cases ({t.elapsed:.2f}s)")


def test_criterion_09_metric_sanity():
    judge = LexicalJudge()
    with Timer() as t:
        contexts = ["Rome hosts ancient festivals.", "Parma makes famous cheese."]
        assert faithfulness(" ".join(contexts), contexts, judge) == 1.0
        assert faithfulness("Dragons hoard gleaming gold.", contexts, judge) == 0.0

        gt = "Rome hosts ancient festivals."
        pattern = ["rome hosts ancient festivals", "qq ww ee rr tt", "rome hosts ancient festivals"]
        assert context_precision(gt, pattern, judge) == pytest.approx(0.8333333333, abs=1e-6)

        assert context_recall(gt, ["Rome hosts ancient festivals."], judge) == 1.0

        rng = random.Random(909)
        relevant = ["rome hosts ancient festivals", "parma makes famous cheese"]
        gt2 = "Rome hosts ancient festivals. Parma makes famous cheese."
        for _ in range(100):
            ctxs = [rng.choice(relevant + ["xx yy zz"]) for _ in range(rng.randint(1, 6))]
            before = context_precision(gt2, ctxs, judge)
            after = context_precision(gt2, ctxs + ["uu ii oo pp"], judge)
            assert after <= before + 1e-12
    assert t.elapsed < 1.0, f"metric sanity took {t.elapsed:.2f}s"
    ok(9, f"lexical-judge metric sanity suite ({t.elapsed:.2f}s)")


def test_criterion_10_determinism_and_round_trip(tmp_path):
    with Timer() as t:
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        build_store(MINI_CORPUS, out1)
        build_store(MINI_CORPUS, out2)
        assert (out1 / "vectors.skvx").read_bytes() == (out2 / "vectors.skvx").read_bytes()
        assert (out1 / "graph.json").read_bytes() == (out2 / "graph.json").read_bytes()

        store = VectorStore.load(out1 / "vectors.skvx")
        resaved = tmp_path / "resaved"
        resaved.mkdir()
        store.save(resaved / "vectors.skvx")
        assert (resaved / "vectors.skvx").read_bytes() == (out1 / "vectors.skvx").read_bytes()
        assert (resaved / "chunks.jsonl").read_bytes() == (out1 / "chunks.jsonl").read_bytes()

        first = open_store(out1)
        second = open_store(out2)
        config = QueryConfig()
        for item in load_questions():
            a = run_query(first, item["question"], config)
            b = run_query(second, item["question"], config)
            assert a.structured_text == b.structured_text
            assert a.unified_context == b.unified_context
    assert t.elapsed < 5.0, f"determinism checks took {t.elapsed:.2f}s"
    ok(10, f"byte-identical artifacts, exact round-trips, stable renders ({t.elapsed:.2f}s)")


def test_criterion_11_end_to_end_offline(tmp_path, monkeypatch):
    def no_network(*args, **kwargs):
        raise AssertionError("network access attempted during offline run")

    monkeypatch.setattr(remote_mod, "_send", no_network)

    store = tmp_path / "store"
    report = tmp_path / "report.csv"
    matrix = tmp_path / "matrix.csv"
    with Timer() as t:
        assert main(["index", "--corpus", str(MINI_CORPUS), "--out", str(store)]) == 0
        code = main(
            ["eval", "--store", str(store), "--records", str(MINI_QUESTIONS),
             "--out", str(report), "--matrix", str(matrix),
             "--judge", "lexical", "--generator", "echo"]
        )
        assert code == 0
    assert t.elapsed < 10.0, f"end-to-end run took {t.elapsed:.2f}s"

    report_lines = report.read_text().splitlines()
    assert report_lines[0] == "record,answer_relevancy,faithfulness,context_precision,context_recall,f1"
    assert report_lines[-1].startswith("MEAN,")
    n_questions = len(load_questions())
    assert len(report_lines) == 1 + n_questions + 1
    for line in report_lines[1:-1]:
        cells = line.split(",")
        assert len(cells) == 6
        for cell in cells[1:]:
            assert cell == "" or 0.0 <= float(cell) <= 1.0

    matrix_lines = matrix.read_text().splitlines()
    assert matrix_lines[0] == "question,answer_relevancy,faithfulness,context_precision,context_recall,f1"
    assert len(matrix_lines) == 1 + n_questions
    ok(11, f"offline index+eval, schema-valid report and matrix ({t.elapsed:.2f}s)")

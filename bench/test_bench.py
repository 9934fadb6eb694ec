"""Tests of the benchmark's own code: generator, oracle, tracing, arithmetic.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import corpus_gen  # noqa: E402
import kgrag.evaluation  # noqa: E402
import kgrag.pipeline  # noqa: E402
import kgrag.retriever  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from kgrag import LexicalJudge, QueryConfig, build_store, evaluate, open_store, run_query  # noqa: E402
from kgrag.vector_index import VectorStore  # noqa: E402

SMALL_DOCS = 40


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A 40-doc corpus and its store, built untraced."""
    work = tmp_path_factory.mktemp("small")
    corpus = corpus_gen.generate(5, n_docs=SMALL_DOCS)
    corpus.write_jsonl(work / "corpus" / "docs.jsonl")
    manifest = build_store(work / "corpus", work / "store")
    return corpus, work, manifest


def test_generator_is_deterministic_per_seed():
    a, b, c = (corpus_gen.generate(seed, n_docs=30) for seed in (11, 11, 12))
    assert a.docs == b.docs and a.facts == b.facts and a.questions == b.questions
    assert a.docs != c.docs


def test_generator_shape(small):
    corpus, _, manifest = small
    lengths = sorted(len(corpus_gen.generate(5, n_docs=SMALL_DOCS).docs[i][1].split(". ")) for i in range(SMALL_DOCS))
    assert 8 <= lengths[0] and lengths[-1] <= 76  # 8..75 sentences, plus at most one planted fact
    corpus_gen.check_boundaries(manifest.counts)
    for fact in corpus.facts:
        text = dict(corpus.docs)[fact.doc_id]
        assert text.count(fact.sentence) == 1
        mention = re.compile(rf"\b{re.escape(fact.subject)}\b")
        assert sum(len(mention.findall(t)) for _, t in corpus.docs) == 1  # the subject appears nowhere else
    with pytest.raises(RuntimeError):
        corpus_gen.check_boundaries({"documents": 3, "semantic_chunks": 3})


def test_answer_has_requested_statement_count():
    passages = ["Aa bb cc. Dd ee ff. Gg hh", "Ii jj kk."]
    for n in (1, 4, 9):
        assert len(kgrag.evaluation.split_statements(corpus_gen.answer_from_passages(passages, n))) == n
    assert sorted(corpus_gen.ANSWER_LENGTHS) == list(range(1, 31))


def test_oracle_agrees_and_catches_a_perturbed_ranking(small):
    corpus, work, _ = small
    store = open_store(work / "store")
    config = QueryConfig(mode="unstructured_only")
    oracle = checks.CosineOracle(work / "store")
    embedder = store.make_embedder()
    for question in corpus.questions[:6]:
        result = run_query(store, question.text, config)
        expected = oracle.top(embedder.embed(question.text), config.final_m_chunks)
        assert checks.oracle_errors(result.ranked_chunks, expected) == []
        assert checks.ranking_errors(result.ranked_chunks, config.beta) == []
        ranked = list(result.ranked_chunks)
        if ranked[0].cosine_score - ranked[1].cosine_score > checks.TIE_TOLERANCE:
            swapped = [ranked[1], ranked[0], *ranked[2:]]
            assert checks.oracle_errors(swapped, expected)
            assert checks.ranking_errors(swapped, config.beta)
        wrong_score = [replace(ranked[0], cosine_score=ranked[0].cosine_score + 1e-6), *ranked[1:]]
        assert checks.oracle_errors(wrong_score, expected)


def test_ranking_check_catches_bad_fusion_arithmetic(small):
    corpus, work, _ = small
    store = open_store(work / "store")
    result = run_query(store, corpus.questions[0].text)
    ranked = result.ranked_chunks
    assert checks.ranking_errors(ranked, 0.25) == []
    assert checks.ranking_errors([replace(ranked[0], final_score=ranked[0].final_score + 0.01), *ranked[1:]], 0.25)
    assert checks.ranking_errors([replace(ranked[0], boost=1.5, final_score=ranked[0].cosine_score + 0.375)], 0.25)


def test_self_time_arithmetic():
    # root [0, 100] with children [10, 20] (+5 counting) and [30, 50]; the
    # second child has a grandchild [35, 45].
    spans = [
        ["root", 0, 100, 100, -1, 1, None],
        ["a", 10, 20, 25, 0, 1, None],
        ["b", 30, 50, 50, 0, 1, None],
        ["c", 35, 45, 45, 2, 1, None],
    ]
    assert tracing.self_times(spans) == [100 - 15 - 20, 10, 20 - 10, 10]
    assert tracing.root_of(spans) == [0, 0, 0, 0]


def test_layer_metrics_divide_by_phase_units():
    ms = 1_000_000
    text = {"calls": 1, "tokens_scanned": 6, "text_hash": 1}  # one text scanned twice in one op
    spans = [
        ["pipeline.open_store", 0, 10 * ms, 10 * ms, -1, 1, None],
        ["vector_index.load", 1 * ms, 5 * ms, 5 * ms, 0, 1, None],
        ["pipeline.run_query", 20 * ms, 30 * ms, 30 * ms, -1, 2, None],
        ["vector_index.top_k", 21 * ms, 23 * ms, 23 * ms, 2, 2, {"rows_scanned": 7}],
        ["lexical.content_tokens", 24 * ms, 25 * ms, 25 * ms, 2, 2, text],
        ["lexical.content_tokens", 25 * ms, 26 * ms, 26 * ms, 2, 2, text],
        ["pipeline.run_query", 40 * ms, 44 * ms, 44 * ms, -1, 3, None],
        ["vector_index.top_k", 41 * ms, 42 * ms, 42 * ms, 6, 3, {"rows_scanned": 7}],
    ]
    m = layers.layer_metrics(spans, "op", (5.0, 6.0))
    assert m["vector_index.load_ms"] == (4.0, "ms")
    assert m["pipeline.open_unattributed_ms"] == (6.0, "ms")
    assert m["vector_index.top_k_ms"] == (1.5, "ms")
    assert m["vector_index.rows_scanned"] == (7.0, "count")
    assert m["lexical.content_tokens_calls"] == (1.0, "count")
    assert m["lexical.rescan_ratio"] == (2.0, "ratio")
    assert m["op.unattributed_ms"] == ((6 + 3) / 2, "ms")
    assert m["graph.render_ms"] == (0.0, "ms")
    assert m["trace.overhead_pct"] == (20.0, "%")
    assert [name for name, _ in layers.PER_LAYER_NAMES] == list(m)

    # on index the ops are builds: build-phase and op-phase figures coincide
    builds = [
        ["pipeline.build_store", 0, 10 * ms, 10 * ms, -1, 1, None],
        ["graph.upsert_triple", 1 * ms, 3 * ms, 3 * ms, 0, 1, None],
        ["pipeline.build_store", 20 * ms, 24 * ms, 24 * ms, -1, 2, None],
    ]
    m = layers.layer_metrics(builds, "build", (5.0, 6.0))
    assert m["graph.upsert_ms"] == (1.0, "ms")
    assert m["pipeline.build_unattributed_ms"] == m["op.unattributed_ms"] == ((8 + 4) / 2, "ms")


def test_tail_percentile_needs_ten_samples_beyond():
    assert workloads.tail_percentile(list(range(19))) is None
    assert workloads.tail_percentile(list(range(20)))[0] == 50
    assert workloads.tail_percentile(list(range(100)))[0] == 90
    assert workloads.tail_percentile(list(range(1, 1001))) == (95, 950)


def test_tracing_does_not_alter_return_values(small, tmp_path):
    corpus, work, _ = small
    tracer = tracing.Tracer()
    originals = {(owner, attr): owner.__dict__[attr] for _, owner, attr, _ in tracing.TARGETS}
    with tracer.installed():
        assert kgrag.pipeline.semantic_split is not originals[(kgrag.pipeline, "semantic_split")]
        build_store(work / "corpus", tmp_path / "traced")
    assert checks.store_digests(tmp_path / "traced") == checks.store_digests(work / "store")
    assert all(owner.__dict__[attr] is raw for (owner, attr), raw in originals.items())

    store = open_store(work / "store")
    embedder = store.make_embedder()
    judge = LexicalJudge()
    for question in corpus.questions[:3]:
        plain = run_query(store, question.text)
        record = kgrag.EvalRecord(
            question=question.text,
            ground_truth=question.fact.sentence,
            answer=corpus_gen.answer_from_passages([c.text for c in plain.ranked_chunks], 3),
            contexts=[plain.structured_text] + [c.text for c in plain.ranked_chunks],
        )
        plain_report = evaluate([record], judge, embedder)
        with tracer.installed():
            with tracer.span("pipeline.open_store"):
                traced_store = open_store(work / "store")
            with tracer.span("pipeline.run_query"):
                traced = run_query(traced_store, question.text)
            with tracer.span("evaluation.evaluate"):
                traced_report = evaluate([record], judge, embedder)
        assert traced == plain
        assert traced_report == plain_report
    assert VectorStore.__dict__["load"] is originals[(VectorStore, "load")]
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"chunking.semantic_split", "lexical.content_tokens", "evaluation.judge", "graph.load_json"} <= names
    # every span closed, children inside their parents
    for s in tracer.spans:
        assert s[tracing.START] <= s[tracing.END] <= s[tracing.COUNT_END]
        if s[tracing.PARENT] >= 0:
            parent = tracer.spans[s[tracing.PARENT]]
            assert parent[tracing.START] <= s[tracing.START] and s[tracing.COUNT_END] <= parent[tracing.END]


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    out = workloads.Outcome()
    workloads._report(out, "query", workloads.Timings([1.0], [1.0], 1.0), (0.1, 0.1), 10, 5)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, u) for k, (_, u) in out.metrics.items()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER_NAMES
    assert [w["name"] for w in spec["workloads"]] == list(workloads.DOCS)


def test_eval_check_flags_out_of_range_values():
    report = kgrag.MetricReport(per_record=[{"record_index": 0, "faithfulness": 1.2, "f1": None}], aggregate={})
    assert checks.eval_errors(report)
    report.per_record[0]["faithfulness"] = 0.5
    assert checks.eval_errors(report) == []

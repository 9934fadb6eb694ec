"""The traced run: per-layer self time, counts and the tracing overhead.

Phases: ``build`` (one ``build_store``), ``open`` (one ``open_store`` with its
providers) and ``op`` (one op of the workload; on ``index`` an op is a
build). Every metric is a total over its phase divided by the number of
traced phase units, so a layer a workload never calls reads 0.

Each entry names the end-to-end metric, and the workload, it is predicted
to move (``op_p50_cal_ms`` is the build time on index, query latency on the
query workloads and time per record on eval). The traced run prints the
prediction next to each value and writes it into the result file.
"""

from __future__ import annotations

import shutil
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import checks
import corpus_gen
import workloads
from tracing import COUNTS, END, NAME, OP, PARENT, START, Tracer, root_of, self_times

from kgrag import LexicalJudge, build_store, evaluate, run_query

OPENS = 3
ROOT_PHASE = {"pipeline.build_store": "build", "pipeline.open_store": "open"}
ROOT = ""  # stands for "any root span" in the phase index

# (metric, unit, phase, selector, predicted to move). Selectors:
# ("self", span, parent span or None), ("count", span, counts key or None
# for the number of calls), ("root_self",) for time no wrapped layer covers.
INDEX = "op_p50_cal_ms@index"
HYBRID = "op_p50_cal_ms@query_hybrid"
SEMANTIC = "op_p50_cal_ms@query_semantic"
EVAL = "op_p50_cal_ms@eval"
LEXICAL = "op_p50_cal_ms@query_hybrid,eval"
SETUP = "setup_s@all"
STORE = "store_bytes_per_corpus_byte@index"
PER_LAYER = [
    ("corpus.load_corpus_ms", "ms", "build", ("self", "corpus.load_corpus", None), INDEX),
    ("corpus.split_sentences_ms", "ms", "build", ("self", "corpus.split_sentences", None), INDEX),
    ("chunking.semantic_split_self_ms", "ms", "build", ("self", "chunking.semantic_split", None), INDEX),
    ("chunking.token_window_split_ms", "ms", "build", ("self", "chunking.token_window_split", None), INDEX),
    ("embedding.window_embed_ms", "ms", "build", ("self", "embedding.embed_batch", "chunking.semantic_split"), INDEX),
    ("embedding.chunk_embed_ms", "ms", "build", ("self", "embedding.embed_batch", "pipeline.build_store"), INDEX),
    ("embedding.tokens_hashed", "count", "build", ("count", "embedding.embed_batch", "tokens_hashed"), INDEX),
    # single-text embeds in an op: the question (on eval, question and answer)
    ("embedding.query_embed_ms", "ms", "op", ("self", "embedding.embed", None), SEMANTIC),
    ("vector_index.add_ms", "ms", "build", ("self", "vector_index.add", None), INDEX),
    ("vector_index.seal_ms", "ms", "build", ("self", "vector_index.seal", None), INDEX),
    ("vector_index.save_ms", "ms", "build", ("self", "vector_index.save", None), INDEX),
    ("vector_index.bytes_written", "B", "build", ("count", "vector_index.save", "bytes_written"), STORE),
    ("vector_index.load_ms", "ms", "open", ("self", "vector_index.load", None), SETUP),
    # predicted to have no visible effect on query_hybrid
    ("vector_index.top_k_ms", "ms", "op", ("self", "vector_index.top_k", None), SEMANTIC),
    ("vector_index.rows_scanned", "count", "op", ("count", "vector_index.top_k", "rows_scanned"), SEMANTIC),
    ("extraction.triples_ms", "ms", "build", ("self", "extraction.triples", None), INDEX),
    ("extraction.triples", "count", "build", ("count", "extraction.triples", "triples"), INDEX),
    ("extraction.query_ner_ms", "ms", "op", ("self", "extraction.query_ner", None), HYBRID),
    ("graph.upsert_ms", "ms", "build", ("self", "graph.upsert_triple", None), INDEX),
    ("graph.export_ms", "ms", "build", ("self", "graph.export", None), INDEX),
    ("graph.nodes", "count", "build", ("count", "graph.export", "nodes"), INDEX),
    ("graph.edges", "count", "build", ("count", "graph.export", "edges"), INDEX),
    ("graph.json_bytes", "B", "build", ("count", "graph.export", "json_bytes"), STORE),
    ("graph.load_json_ms", "ms", "open", ("self", "graph.load_json", None), SETUP),
    ("graph.match_entities_ms", "ms", "op", ("self", "graph.match_entities", None), HYBRID),
    ("graph.neighborhood_ms", "ms", "op", ("self", "graph.neighborhood", None), HYBRID),
    ("graph.render_ms", "ms", "op", ("self", "graph.render_subgraph", None), HYBRID),
    # the render's size sets the context tokens and the lexical work downstream
    ("graph.subgraph_nodes", "count", "op", ("count", "graph.neighborhood", "subgraph_nodes"), HYBRID),
    ("graph.subgraph_edges", "count", "op", ("count", "graph.neighborhood", "subgraph_edges"), HYBRID),
    ("graph.rendered_tokens", "count", "op", ("count", "graph.render_subgraph", "rendered_tokens"), HYBRID),
    ("pipeline.reconstruct_parent_texts_ms", "ms", "open", ("self", "pipeline.reconstruct_parent_texts", None),
     SETUP),
    # self time only: the boost's tokenisation shows in lexical.*; predicted
    # to have no effect on query_semantic
    ("retriever.boost_ms", "ms", "op", ("self", "retriever.confirmation_boost", None), HYBRID),
    ("retriever.rank_ms", "ms", "op", ("self", "retriever.rank_with_boosts", None), "op_p50_cal_ms@query_*"),
    ("retriever.assemble_ms", "ms", "op", ("self", "retriever.build_unified_context", None), "op_p50_cal_ms@query_*"),
    ("lexical.content_tokens_ms", "ms", "op", ("self", "lexical.content_tokens", None), LEXICAL),
    ("lexical.content_tokens_calls", "count", "op", ("count", "lexical.content_tokens", "calls"), LEXICAL),
    ("lexical.tokens_scanned", "count", "op", ("count", "lexical.content_tokens", "tokens_scanned"), LEXICAL),
    ("evaluation.judge_calls", "count", "op", ("count", "evaluation.judge", None), EVAL),
    ("evaluation.judge_ms", "ms", "op", ("self", "evaluation.judge", None), EVAL),
    ("evaluation.faithfulness_ms", "ms", "op", ("self", "evaluation.faithfulness", None), EVAL),
    ("evaluation.context_recall_ms", "ms", "op", ("self", "evaluation.context_recall", None), EVAL),
    ("evaluation.context_precision_ms", "ms", "op", ("self", "evaluation.context_precision", None), EVAL),
    ("evaluation.answer_relevancy_ms", "ms", "op", ("self", "evaluation.answer_relevancy", None), EVAL),
    ("pipeline.build_unattributed_ms", "ms", "build", ("root_self",), INDEX),
    ("pipeline.open_unattributed_ms", "ms", "open", ("root_self",), SETUP),
    ("op.unattributed_ms", "ms", "op", ("root_self",), "op_p50_cal_ms@all"),
]
DERIVED = [
    ("chunking.semantic_chunks_per_doc", "count", "must stay above 1"),
    # tokens scanned over the tokens of the distinct texts scanned, per op
    ("lexical.rescan_ratio", "ratio", LEXICAL),
    # tracing overhead: mean traced op time minus mean untraced op time
    ("trace.untraced_op_ms", "ms", None),
    ("trace.traced_op_ms", "ms", None),
    ("trace.overhead_ms", "ms", None),
    ("trace.overhead_pct", "%", None),
]
PREDICTIONS = {entry[0]: entry[-1] for entry in PER_LAYER + DERIVED}
PER_LAYER_NAMES = [(m, u) for m, u, *_ in PER_LAYER + DERIVED]


def layer_metrics(spans: list[list], op_phase: str, op_times: tuple[float, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from recorded spans; ``op_times`` is (untraced, traced) ms per op.

    ``op_phase`` is the phase whose roots are the workload's ops ("build" on index).
    """
    own = self_times(spans)
    phase_of = [ROOT_PHASE.get(spans[r][NAME], "op") for r in root_of(spans)]
    by_name: dict[tuple[str, str], list[int]] = defaultdict(list)  # (phase, span name) -> span indices
    for i, s in enumerate(spans):
        for phase in {phase_of[i], "op"} if phase_of[i] == op_phase else (phase_of[i],):
            by_name[(phase, s[NAME])].append(i)
            if s[PARENT] < 0:
                by_name[(phase, ROOT)].append(i)
    units = {phase: len(by_name[(phase, ROOT)]) for phase in ("build", "open", "op")}

    metrics: dict[str, tuple[float, str]] = {}
    for metric, unit, phase, selector, _ in PER_LAYER:
        kind = selector[0]
        if kind == "self":
            _, name, parent = selector
            members = by_name[(phase, name)]
            total = sum(own[i] for i in members if parent is None or spans[spans[i][PARENT]][NAME] == parent) / 1e6
        elif kind == "count":
            _, name, key = selector
            members = by_name[(phase, name)]
            total = sum(1 if key is None else spans[i][COUNTS][key] for i in members)
        else:
            total = sum(own[i] for i in by_name[(phase, ROOT)]) / 1e6
        metrics[metric] = (total / units[phase] if units[phase] else 0.0, unit)

    split = [spans[i][COUNTS] for i in by_name[("build", "chunking.semantic_split")]]
    documents = sum(c["documents"] for c in split)
    per_doc = sum(c["semantic_chunks"] for c in split) / documents if documents else 0.0
    metrics["chunking.semantic_chunks_per_doc"] = (per_doc, "count")
    scanned = 0
    distinct: dict[tuple[int, int], int] = {}  # (op id, text hash) -> tokens
    for i in by_name[("op", "lexical.content_tokens")]:
        counts = spans[i][COUNTS]
        scanned += counts["tokens_scanned"]
        distinct[(spans[i][OP], counts["text_hash"])] = counts["tokens_scanned"]
    covered = sum(distinct.values())
    metrics["lexical.rescan_ratio"] = (scanned / covered if covered else 0.0, "ratio")
    untraced, traced = op_times
    metrics["trace.untraced_op_ms"] = (untraced, "ms")
    metrics["trace.traced_op_ms"] = (traced, "ms")
    metrics["trace.overhead_ms"] = (traced - untraced, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced if untraced else 0.0, "%")
    return metrics


def run_traced(workload: str, work: Path, seed: int, seconds: float) -> workloads.Outcome:
    """One traced run: each op runs untraced, then traced, and both outputs must agree."""
    out = workloads.Outcome()
    tracer = Tracer()
    corpus = corpus_gen.generate(seed, n_docs=workloads.DOCS[workload])
    corpus.write_jsonl(workloads.corpus_dir(work) / "docs.jsonl")
    store_dir = work / "store"
    if workload == "index":
        manifest = build_store(workloads.corpus_dir(work), store_dir)  # warm-up; opened below
    else:
        with tracer.installed(), tracer.span("pipeline.build_store"):
            manifest = build_store(workloads.corpus_dir(work), store_dir)
    corpus_gen.check_boundaries(manifest.counts)
    for _ in range(OPENS):
        tracer.op_id += 1
        with tracer.installed(), tracer.span("pipeline.open_store"):
            store, embedder, extractor = workloads.open_with_providers(store_dir)

    def settle(result):
        return result

    if workload == "index":
        root = "pipeline.build_store"
        ops = [None]

        def run_one(_, tag):
            target = work / f"b{tag}"
            build_store(workloads.corpus_dir(work), target)
            return target

        def settle(target):
            digests = checks.store_digests(target)
            shutil.rmtree(target)
            return digests

    elif workload == "eval":
        root = "evaluation.evaluate"
        records, _ = workloads.eval_records(store, embedder, extractor, corpus)
        ops = records[: workloads.TRACE_OPS[workload]]
        judge = LexicalJudge()

        def run_one(record, _):
            return evaluate([record], judge, embedder)

    else:
        root = "pipeline.run_query"
        config = replace(store.manifest.query, mode=workloads.MODES[workload])
        ops = corpus.questions[: workloads.TRACE_OPS[workload]]

        def run_one(question, _):
            return run_query(store, question.text, config, embedder=embedder, extractor=extractor)

    untraced_ms: list[float] = []
    traced_ms: list[float] = []
    start = time.perf_counter()
    while not traced_ms or time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            plain = run_one(op, f"{i}u")
            untraced_ms.append((time.perf_counter() - t0) * 1000.0)
            tracer.op_id += 1
            with tracer.installed():
                with tracer.span(root) as record:
                    traced = run_one(op, f"{i}t")
            traced_ms.append((record[END] - record[START]) / 1e6)
            plain, traced = settle(plain), settle(traced)
            out.attempted += 2
            if traced != plain:
                out.fail([f"op {i}: traced output differs from untraced output"])

    op_times = (sum(untraced_ms) / len(untraced_ms), sum(traced_ms) / len(traced_ms))
    out.metrics = layer_metrics(tracer.spans, "build" if workload == "index" else "op", op_times)
    tracer.write_jsonl(workloads.OUT_DIR / f"trace-{workload}-seed{seed}.jsonl")
    out.report["spans"] = (len(tracer.spans), "count")
    out.report["traced_ops"] = (len(traced_ms), "count")
    return out

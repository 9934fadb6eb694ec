"""Outside tracing: spans recorded around calls into each kgrag layer.

``Tracer.installed()`` replaces public functions and methods where the
program looks them up (``kgrag.pipeline.semantic_split``,
``kgrag.retriever.content_tokens``, ``VectorStore.top_k`` ...) with wrappers
that record a span and hand back the wrapped call's own return value, and
restores the originals on exit. Nothing under ``src/`` changes, and an
untraced run pays nothing because the wrappers are gone.

A span is ``[name, start_ns, end_ns, count_end_ns, parent, op_id, counts]``.
Counters run after ``end_ns``; ``count_end_ns`` closes the interval the
counting took, which is subtracted from the parent like a child span, so a
layer's self time never includes the tracer's own bookkeeping. That time
shows up in the measured tracing overhead instead.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import kgrag.evaluation
import kgrag.pipeline
import kgrag.retriever
from kgrag.embedding import HashedEmbedder
from kgrag.evaluation import LexicalJudge
from kgrag.extraction import RuleExtractor
from kgrag.graph import KnowledgeGraph
from kgrag.vector_index import VectorStore

NAME, START, END, COUNT_END, PARENT, OP, COUNTS = range(7)


def _tokens(text: str) -> int:
    return len(text.split())


def _count_semantic(args, result) -> dict:
    return {"semantic_chunks": len(result), "documents": 1}


def _count_batch(args, result) -> dict:
    return {"tokens_hashed": sum(_tokens(t) for t in args[1])}


def _count_save(args, result) -> dict:
    path = Path(args[1])
    return {"bytes_written": path.stat().st_size + (path.parent / "chunks.jsonl").stat().st_size}


def _count_top_k(args, result) -> dict:
    return {"rows_scanned": len(args[0])}


def _count_triples(args, result) -> dict:
    return {"triples": len(result)}


def _count_export(args, result) -> dict:
    graph = args[0]
    return {"nodes": len(graph), "edges": graph.edge_count, "json_bytes": Path(args[1]).stat().st_size}


def _count_neighborhood(args, result) -> dict:
    return {"subgraph_nodes": len(result.nodes), "subgraph_edges": len(result.edges)}


def _count_render(args, result) -> dict:
    return {"rendered_tokens": _tokens(result)}


def _count_content_tokens(args, result) -> dict:
    text = args[0]
    return {"calls": 1, "tokens_scanned": _tokens(text), "text_hash": hash(text)}


# (span name, owner, attribute, counter). Module-level names are patched in
# the module that calls them, which is where Python looks them up.
TARGETS = [
    ("corpus.load_corpus", kgrag.pipeline, "load_corpus", None),
    ("corpus.split_sentences", kgrag.pipeline, "split_sentences", None),
    ("chunking.semantic_split", kgrag.pipeline, "semantic_split", _count_semantic),
    ("chunking.token_window_split", kgrag.pipeline, "token_window_split", None),
    ("embedding.embed_batch", HashedEmbedder, "embed_batch", _count_batch),
    ("embedding.embed", HashedEmbedder, "embed", None),
    ("vector_index.add", VectorStore, "add", None),
    ("vector_index.seal", VectorStore, "seal", None),
    ("vector_index.save", VectorStore, "save", _count_save),
    ("vector_index.load", VectorStore, "load", None),
    ("vector_index.top_k", VectorStore, "top_k", _count_top_k),
    ("extraction.triples", RuleExtractor, "triples", _count_triples),
    ("extraction.query_ner", kgrag.retriever, "query_ner", None),
    ("graph.upsert_triple", KnowledgeGraph, "upsert_triple", None),
    ("graph.export", KnowledgeGraph, "export", _count_export),
    ("graph.load_json", KnowledgeGraph, "load_json", None),
    ("graph.match_entities", KnowledgeGraph, "match_entities", None),
    ("graph.neighborhood", KnowledgeGraph, "neighborhood", _count_neighborhood),
    ("graph.render_subgraph", KnowledgeGraph, "render_subgraph", _count_render),
    ("pipeline.reconstruct_parent_texts", kgrag.pipeline, "reconstruct_parent_texts", None),
    ("retriever.confirmation_boost", kgrag.retriever, "confirmation_boost", None),
    ("retriever.rank_with_boosts", kgrag.retriever, "rank_with_boosts", None),
    ("retriever.build_unified_context", kgrag.retriever, "build_unified_context", None),
    ("lexical.content_tokens", kgrag.retriever, "content_tokens", _count_content_tokens),
    ("lexical.content_tokens", kgrag.evaluation, "content_tokens", _count_content_tokens),
    ("evaluation.judge", LexicalJudge, "supported", None),
    ("evaluation.faithfulness", kgrag.evaluation, "faithfulness", None),
    ("evaluation.context_recall", kgrag.evaluation, "context_recall", None),
    ("evaluation.context_precision", kgrag.evaluation, "context_precision", None),
    ("evaluation.answer_relevancy", kgrag.evaluation, "answer_relevancy", None),
]

# HashedEmbedder.embed_batch calls embed once per text; those inner calls are
# part of the batch span, not spans of their own.
_INNER_OF = {"embedding.embed": "embedding.embed_batch"}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = 0

    def _wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self._stack
        inner_of = _INNER_OF.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if inner_of is not None and parent >= 0 and spans[parent][NAME] == inner_of:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [name, 0, 0, 0, parent, self.op_id, None]
            spans.append(record)
            stack.append(index)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = record[COUNT_END] = clock()
                stack.pop()
            if counter is not None:
                record[COUNTS] = counter(args, result)
                record[COUNT_END] = clock()
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A root or intermediate span opened by the benchmark itself."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, 0, 0, 0, parent, self.op_id, None]
        self.spans.append(record)
        self._stack.append(index)
        record[START] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record[END] = record[COUNT_END] = time.perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for name, owner, attr, counter in TARGETS:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    # Bind to the class so the wrapper can stand in as a staticmethod.
                    replacement = staticmethod(self._wrap(name, getattr(owner, attr), counter))
                else:
                    replacement = self._wrap(name, raw, counter)
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, count_end, parent, op, counts) in enumerate(self.spans):
                row = {"id": i, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}
                if count_end != end:
                    row["count_end_ns"] = count_end
                if counts:
                    row["counts"] = counts
                fh.write(json.dumps(row) + "\n")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the intervals its direct children cover.

    A child covers ``[start, count_end]``: its own duration plus the tracer's
    counting after it, so neither is charged to the parent.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[COUNT_END] - s[START]
    return own


def root_of(spans: list[list]) -> list[int]:
    """Index of the outermost ancestor of every span (parents precede children)."""
    roots: list[int] = []
    for i, s in enumerate(spans):
        roots.append(i if s[PARENT] < 0 else roots[s[PARENT]])
    return roots

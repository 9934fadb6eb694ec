"""Hybrid retrieval: graph traversal fused with cosine top-k.

The structured retriever runs query NER, matches entities into the graph,
and renders the bounded neighborhood within a token budget: context chunks
first, those the matched entities share most ahead, then edges. The
unstructured retriever embeds the question and scans the vector store.
Fusion boosts each candidate chunk's cosine score by beta times its token
overlap with the structured text (shared tokens act as confirmation
signals), re-ranks, and assembles one unified context for the generator.
The structured text is never tokenized: in hybrid mode, the one with
candidates to boost, the render hands back its content tokens, the union
of its kept chunks' token tuples. Each candidate's tokens come from the
same table, ``KnowledgeGraph.text_tokens``, which makes a text's tuple the
first time a hybrid query scores it, so a warm query tokenizes only its
kept edge lines. With no structured text every boost is 0.0 and nothing
is tokenized.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass, field

from .exceptions import InputError
from .extraction import query_ner
from .graph import DEFAULT_HOPS, DEFAULT_MAX_STRUCTURED_TOKENS, KnowledgeGraph
from .lexical import content_tokens, coverage  # noqa: F401 (content_tokens: the bench tracer patches it here)
from .remote import ChatClient
from .vector_index import VectorStore

MODES = ("hybrid", "unstructured_only", "structured_only")
GRAPH_MODES = ("hybrid", "structured_only")  # the modes that read the graph

KG_SECTION_HEADER = "KNOWLEDGE GRAPH:"
PASSAGES_SECTION_HEADER = "PASSAGES:"
PASSAGE_SEPARATOR = "\n---\n"

ANSWER_SYSTEM_PROMPT = (
    "Answer strictly from the provided context. If the context is insufficient, say so."
)
ANSWER_USER_TEMPLATE = "Context:\n{unified_context}\n\nQuestion: {question}"


@dataclass
class QueryConfig:
    top_n_candidates: int = 8
    final_m_chunks: int = 4
    hops: int = DEFAULT_HOPS
    beta: float = 0.25
    mode: str = "hybrid"

    def __post_init__(self) -> None:
        if self.top_n_candidates < 1:
            raise ValueError("top_n_candidates must be >= 1")
        if not 0 <= self.final_m_chunks <= self.top_n_candidates:
            raise ValueError("final_m_chunks must be in [0, top_n_candidates]")
        if self.hops < 1:
            raise ValueError("hops must be >= 1")
        if not 0 <= self.beta < math.inf:  # also false for NaN
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


@dataclass(frozen=True)
class ScoredChunk:
    chunk_id: str
    text: str
    cosine_score: float
    boost: float
    final_score: float


@dataclass
class RetrievalResult:
    structured_text: str
    ranked_chunks: list[ScoredChunk]
    unified_context: str
    diagnostics: dict = field(default_factory=dict)


class EchoGenerator:
    """Offline generator: the answer is the context itself."""

    def generate(self, question: str, unified_context: str) -> str:
        return unified_context


class RemoteGenerator:
    """Chat-backed generator using the fixed answer prompt."""

    def __init__(self, client: ChatClient):
        self.client = client

    def generate(self, question: str, unified_context: str) -> str:
        messages = [
            {"role": "system", "content": ANSWER_SYSTEM_PROMPT},
            {
                "role": "user",
                "content": ANSWER_USER_TEMPLATE.format(
                    unified_context=unified_context, question=question
                ),
            },
        ]
        return self.client.chat(messages)


def _structured_parts(
    question: str, extractor, graph: KnowledgeGraph, config: QueryConfig
) -> tuple[list[str], list[str], str, dict]:
    """Query NER -> entity match -> bounded neighborhood -> text within the token budget.

    Returns the matched entities' names, sorted, the unmatched mention
    surfaces, the text, and the subgraph's node count (``subgraph_nodes``)
    with the line and token counts ``render_subgraph`` fills in and, in
    hybrid mode, the text's ``content_tokens`` (``None`` in the others:
    only the boost reads them), or ``{}`` when nothing matched. Each
    mention is matched once. No entity match is not an error: the text is
    then an empty string.
    """
    matched: set[int] = set()
    unmatched: list[str] = []
    for mention in query_ner(question, extractor):
        ids = graph.match_entities([mention])
        if ids:
            matched |= ids
        else:
            unmatched.append(mention.surface)
    if not matched:
        return [], unmatched, "", {}
    subgraph = graph.neighborhood(matched, hops=config.hops)
    kept: dict = {}
    content = set() if config.mode == "hybrid" else None
    text = graph.render_subgraph(subgraph, kept=kept, content=content)
    names = sorted(map(graph.name, matched))
    return names, unmatched, text, {"subgraph_nodes": len(subgraph.nodes), **kept, "content_tokens": content}


def retrieve_unstructured(
    question: str, embedder, store: VectorStore, config: QueryConfig
) -> list[tuple[str, str, float]]:
    """Cosine top-k over the chunk index: (chunk_id, text, score) by rank."""
    query = embedder.embed(question)
    hits = store.top_k(query, config.top_n_candidates)
    return [(chunk_id, store.metadata[chunk_id].text, score) for chunk_id, score in hits]


def confirmation_boost(chunk_tokens: Collection[str], structured_tokens: set[str]) -> float:
    """Fraction of the chunk's distinct content tokens confirmed by the structured text."""
    return coverage(chunk_tokens, structured_tokens)


def rank_with_boosts(
    candidates: list[tuple[str, str, float]], boosts: list[float], beta: float
) -> list[ScoredChunk]:
    """Re-rank candidates by cosine + beta * boost; ties keep cosine order."""
    scored = [
        ScoredChunk(
            chunk_id=cid,
            text=text,
            cosine_score=cos,
            boost=boost,
            final_score=cos + beta * boost,
        )
        for (cid, text, cos), boost in zip(candidates, boosts)
    ]
    order = sorted(range(len(scored)), key=lambda i: (-scored[i].final_score, i))
    return [scored[i] for i in order]


def build_unified_context(structured_text: str, chunk_texts: list[str]) -> str:
    sections = []
    if structured_text:
        sections.append(f"{KG_SECTION_HEADER}\n{structured_text}")
    if chunk_texts:
        sections.append(f"{PASSAGES_SECTION_HEADER}\n{PASSAGE_SEPARATOR.join(chunk_texts)}")
    return "\n\n".join(sections)


def retrieve_hybrid(
    question: str,
    *,
    embedder,
    store: VectorStore,
    extractor,
    graph: KnowledgeGraph | None,
    config: QueryConfig | None = None,
) -> RetrievalResult:
    """Run both retrievers (subject to mode), fuse, and assemble the context.

    Only the modes in ``GRAPH_MODES`` touch ``extractor`` and ``graph``; the
    unstructured mode may pass None for both. A question without tokens
    (empty or only whitespace) raises ``InputError`` in every mode.
    """
    if not question.strip():
        raise InputError("question must hold at least one token")
    config = config or QueryConfig()

    matched_names: list[str] = []
    unmatched: list[str] = []
    structured_text = ""
    shape: dict = {}
    if config.mode in GRAPH_MODES:
        matched_names, unmatched, structured_text, shape = _structured_parts(question, extractor, graph, config)

    candidates: list[tuple[str, str, float]] = []
    if config.mode in ("hybrid", "unstructured_only"):
        candidates = retrieve_unstructured(question, embedder, store, config)

    if structured_text:
        structured_tokens = shape["content_tokens"]  # content_tokens(structured_text), from the render's chunk tables
        # each candidate's tuple, made the first time a hybrid query boosts its text
        boosts = [confirmation_boost(graph.text_tokens[text], structured_tokens) for _, text, _ in candidates]
    else:
        boosts = [0.0] * len(candidates)  # nothing can confirm a chunk
    ranked = rank_with_boosts(candidates, boosts, config.beta)[: config.final_m_chunks]

    unified = build_unified_context(structured_text, [c.text for c in ranked])
    return RetrievalResult(
        structured_text=structured_text,
        ranked_chunks=ranked,
        unified_context=unified,
        diagnostics={
            "matched_entities": matched_names,
            "unmatched_mentions": unmatched,
            "candidate_count": len(candidates),
            "empty": unified == "",
            "structured_token_budget": DEFAULT_MAX_STRUCTURED_TOKENS,
            "structured_tokens": shape.get("tokens", 0),
            "context_lines_kept": shape.get("context_lines", 0),
            "edge_lines_kept": shape.get("edge_lines", 0),
            "subgraph_nodes": shape.get("subgraph_nodes", 0),
        },
    )

"""Hybrid retrieval: graph traversal fused with cosine top-k.

The structured retriever runs query NER, matches entities into the graph,
and renders the bounded neighborhood. The unstructured retriever embeds the
question and scans the vector store. Fusion boosts each candidate chunk's
cosine score by beta times its token overlap with the structured text
(shared tokens act as confirmation signals), re-ranks, and assembles one
unified context for the generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .extraction import query_ner
from .graph import DEFAULT_HOPS, DEFAULT_MAX_NODES, KnowledgeGraph
from .lexical import content_tokens
from .remote import ChatClient
from .vector_index import VectorStore

MODES = ("hybrid", "unstructured_only", "structured_only")

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
    max_nodes: int = DEFAULT_MAX_NODES

    def __post_init__(self) -> None:
        if self.top_n_candidates < 1:
            raise ValueError("top_n_candidates must be >= 1")
        if not 0 <= self.final_m_chunks <= self.top_n_candidates:
            raise ValueError("final_m_chunks must be in [0, top_n_candidates]")
        if self.hops < 1:
            raise ValueError("hops must be >= 1")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
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
) -> tuple[set[int], list[str], str]:
    """Query NER -> entity match -> bounded neighborhood -> rendered text.

    Each mention is matched once. No entity match is not an error: the
    result is an empty string.
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
        return matched, unmatched, ""
    subgraph = graph.neighborhood(matched, hops=config.hops, max_nodes=config.max_nodes)
    return matched, unmatched, graph.render_subgraph(subgraph)


def retrieve_unstructured(
    question: str, embedder, store: VectorStore, config: QueryConfig
) -> list[tuple[str, str, float]]:
    """Cosine top-k over the chunk index: (chunk_id, text, score) by rank."""
    query = embedder.embed(question)
    hits = store.top_k(query, config.top_n_candidates)
    return [(chunk_id, store.metadata[chunk_id].text, score) for chunk_id, score in hits]


def confirmation_boost(chunk_text: str, structured_text: str) -> float:
    """Fraction of the chunk's content tokens confirmed by the structured text."""
    chunk_tokens = content_tokens(chunk_text)
    structured_tokens = content_tokens(structured_text)
    if not chunk_tokens or not structured_tokens:
        return 0.0
    return len(chunk_tokens & structured_tokens) / len(chunk_tokens)


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
    graph: KnowledgeGraph,
    config: QueryConfig | None = None,
) -> RetrievalResult:
    """Run both retrievers (subject to mode), fuse, and assemble the context."""
    config = config or QueryConfig()

    matched: set[int] = set()
    unmatched: list[str] = []
    structured_text = ""
    if config.mode in ("hybrid", "structured_only"):
        matched, unmatched, structured_text = _structured_parts(question, extractor, graph, config)

    candidates: list[tuple[str, str, float]] = []
    if config.mode in ("hybrid", "unstructured_only"):
        candidates = retrieve_unstructured(question, embedder, store, config)

    boosts = [confirmation_boost(text, structured_text) for _, text, _ in candidates]
    ranked = rank_with_boosts(candidates, boosts, config.beta)[: config.final_m_chunks]

    unified = build_unified_context(structured_text, [c.text for c in ranked])
    matched_names = sorted(graph.node(nid).name for nid in matched)
    return RetrievalResult(
        structured_text=structured_text,
        ranked_chunks=ranked,
        unified_context=unified,
        diagnostics={
            "matched_entities": matched_names,
            "unmatched_mentions": unmatched,
            "candidate_count": len(candidates),
            "empty": unified == "",
        },
    )


def generate_answer(question: str, unified_context: str, generator) -> str:
    """Delegate to the configured generator; remote failures propagate."""
    return generator.generate(question, unified_context)

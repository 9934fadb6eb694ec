"""Hybrid retrieval over text corpora: semantic chunks fused with a knowledge graph."""

from .chunking import Chunk, ChunkerConfig, SemanticChunk, semantic_split, token_window_split
from .corpus import Document, Sentence, load_corpus, split_sentences, tokenize
from .embedding import HashedEmbedder, ProviderConfig, RemoteEmbedder, cosine_similarity, embed_hashed
from .evaluation import (
    EvalRecord,
    LexicalJudge,
    MetricReport,
    RemoteJudge,
    answer_relevancy,
    context_precision,
    context_recall,
    evaluate,
    f1_context,
    faithfulness,
)
from .exceptions import InputError, KgragError, ProviderError, StoreCorruptError
from .extraction import (
    EntityMention,
    RemoteExtractor,
    RuleExtractor,
    Triple,
    extract_entities_rule,
    extract_triples_rule,
    query_ner,
)
from .graph import Edge, EntityNode, KnowledgeGraph, Subgraph
from .pipeline import Store, StoreManifest, build_store, open_store, run_query
from .retriever import (
    EchoGenerator,
    QueryConfig,
    RemoteGenerator,
    RetrievalResult,
    ScoredChunk,
    confirmation_boost,
    generate_answer,
    retrieve_hybrid,
    retrieve_unstructured,
)
from .vector_index import VectorStore

__version__ = "0.1.0"

__all__ = [
    "Chunk",
    "ChunkerConfig",
    "Document",
    "EchoGenerator",
    "Edge",
    "EntityMention",
    "EntityNode",
    "EvalRecord",
    "HashedEmbedder",
    "InputError",
    "KgragError",
    "KnowledgeGraph",
    "LexicalJudge",
    "MetricReport",
    "ProviderConfig",
    "ProviderError",
    "QueryConfig",
    "RemoteEmbedder",
    "RemoteExtractor",
    "RemoteGenerator",
    "RemoteJudge",
    "RetrievalResult",
    "RuleExtractor",
    "ScoredChunk",
    "SemanticChunk",
    "Sentence",
    "Store",
    "StoreCorruptError",
    "StoreManifest",
    "Subgraph",
    "Triple",
    "VectorStore",
    "answer_relevancy",
    "build_store",
    "confirmation_boost",
    "context_precision",
    "context_recall",
    "cosine_similarity",
    "embed_hashed",
    "evaluate",
    "extract_entities_rule",
    "extract_triples_rule",
    "f1_context",
    "faithfulness",
    "generate_answer",
    "load_corpus",
    "open_store",
    "query_ner",
    "retrieve_hybrid",
    "retrieve_unstructured",
    "run_query",
    "semantic_split",
    "split_sentences",
    "token_window_split",
    "tokenize",
]

"""Index-build and store-open orchestration.

A store directory holds four files, written in this order with the manifest
last so an interrupted build is detectable: chunks.jsonl, vectors.skvx,
graph.json, manifest.json. A store without a valid manifest is corrupt.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .chunking import Chunk, ChunkerConfig, SemanticChunk, semantic_split, token_window_split
from .corpus import Document, load_corpus, split_sentences, tokenize
from .embedding import HashedEmbedder, ProviderConfig, RemoteEmbedder, fnv1a64, make_embedder
from .evaluation import EvalRecord
from .exceptions import InputError, StoreCorruptError
from .extraction import RemoteExtractor, RuleExtractor
from .graph import KnowledgeGraph
from .remote import ChatClient
from .retriever import (
    EchoGenerator,
    QueryConfig,
    RemoteGenerator,
    RetrievalResult,
    generate_answer,
    retrieve_hybrid,
)
from .vector_index import VectorStore

STORE_FORMAT_VERSION = 1
VECTORS_FILE = "vectors.skvx"
GRAPH_FILE = "graph.json"
MANIFEST_FILE = "manifest.json"
CHUNKS_FILE = "chunks.jsonl"

CHAT_PATH = "/chat/completions"
EMBEDDINGS_PATH = "/embeddings"


@dataclass
class ExtractorConfig:
    kind: str = "rule"  # "rule" | "remote"
    api_base: str = ""
    chat_model: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("rule", "remote"):
            raise ValueError(f"unknown extractor kind {self.kind!r}")


@dataclass
class StoreManifest:
    format_version: int
    corpus_fingerprint: str
    chunker: ChunkerConfig
    provider: ProviderConfig
    extractor: ExtractorConfig
    query: QueryConfig
    counts: dict[str, int] = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "format_version": self.format_version,
            "corpus_fingerprint": self.corpus_fingerprint,
            "config": {
                "chunker": asdict(self.chunker),
                "provider": asdict(self.provider),
                "extractor": asdict(self.extractor),
                "query": asdict(self.query),
            },
            "counts": dict(self.counts),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "StoreManifest":
        try:
            config = obj["config"]
            return cls(
                format_version=int(obj["format_version"]),
                corpus_fingerprint=str(obj["corpus_fingerprint"]),
                chunker=ChunkerConfig(**config["chunker"]),
                provider=ProviderConfig(**config["provider"]),
                extractor=ExtractorConfig(**config["extractor"]),
                query=QueryConfig(**config["query"]),
                counts=dict(obj["counts"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreCorruptError(f"invalid manifest: {exc}") from exc


def corpus_fingerprint(documents: list[Document]) -> str:
    """Order-sensitive 64-bit content hash over (doc_id, text) pairs."""
    h = fnv1a64(b"")
    for doc in documents:
        for piece in (doc.doc_id, "\x00", doc.text, "\x00"):
            h = fnv1a64(piece.encode("utf-8"), h)
    return f"{h:016x}"


def make_chat_client(config: ExtractorConfig, role: str) -> ChatClient:
    """The chat client every remote role (extractor, generator, judge) talks through."""
    if not config.api_base or not config.chat_model:
        raise InputError(
            f"remote {role} requires api_base and chat_model (index with --api-base/--chat-model)"
        )
    return ChatClient(endpoint_url=config.api_base.rstrip("/") + CHAT_PATH, model_name=config.chat_model)


def make_extractor(config: ExtractorConfig):
    if config.kind == "rule":
        return RuleExtractor()
    return RemoteExtractor(make_chat_client(config, "extractor"))


def chunk_document(
    doc: Document, embedder, chunker: ChunkerConfig
) -> tuple[list[SemanticChunk], list[Chunk]]:
    """Sentence split -> semantic split -> token windows, for one document."""
    sentences = split_sentences(doc)
    if not sentences:
        return [], []
    semantic_chunks = semantic_split(sentences, embedder, chunker)
    chunks: list[Chunk] = []
    for sem in semantic_chunks:
        chunks.extend(token_window_split(sem, chunker.chunk_size, chunker.overlap))
    return semantic_chunks, chunks


def build_store(
    corpus_path: str | Path,
    out_dir: str | Path,
    *,
    chunker: ChunkerConfig | None = None,
    provider: ProviderConfig | None = None,
    extractor_config: ExtractorConfig | None = None,
    query_defaults: QueryConfig | None = None,
) -> StoreManifest:
    """Index a corpus into a complete store directory, atomically.

    On any error the partially written directory is removed (if this call
    created or populated it), so a store either exists whole or not at all.
    """
    chunker = chunker or ChunkerConfig()
    provider = provider or ProviderConfig()
    extractor_config = extractor_config or ExtractorConfig()
    query_defaults = query_defaults or QueryConfig()

    out = Path(out_dir)
    if out.exists() and any(out.iterdir()):
        raise InputError(f"output directory {out} exists and is not empty")
    created = not out.exists()
    out.mkdir(parents=True, exist_ok=True)

    try:
        documents = load_corpus(corpus_path)
        embedder = make_embedder(provider)
        extractor = make_extractor(extractor_config)

        all_semantic: list[SemanticChunk] = []
        all_chunks: list[Chunk] = []
        for doc in documents:
            semantic_chunks, chunks = chunk_document(doc, embedder, chunker)
            all_semantic.extend(semantic_chunks)
            all_chunks.extend(chunks)

        vectors = VectorStore(embedder.dimension)
        embeddings = embedder.embed_batch([c.text for c in all_chunks])
        for chunk, vector in zip(all_chunks, embeddings):
            vectors.add(chunk, vector)
        vectors.seal()
        vectors.save(out / VECTORS_FILE)

        graph = KnowledgeGraph()
        for sem in all_semantic:
            # Snippets are stored whitespace-canonical so a reloaded store can
            # reconstruct them exactly from the token chunks (see open_store).
            snippet = " ".join(tokenize(sem.text))
            for triple in extractor.triples(sem.text, provenance=sem.chunk_id):
                graph.upsert_triple(triple, context_snippet=snippet)
        graph.seal()
        graph.export(out / GRAPH_FILE, "json")

        manifest = StoreManifest(
            format_version=STORE_FORMAT_VERSION,
            corpus_fingerprint=corpus_fingerprint(documents),
            chunker=chunker,
            provider=provider,
            extractor=extractor_config,
            query=query_defaults,
            counts={
                "documents": len(documents),
                "semantic_chunks": len(all_semantic),
                "chunks": len(all_chunks),
                "nodes": len(graph),
                "edges": graph.edge_count,
            },
        )
        manifest_text = json.dumps(manifest.to_json_obj(), ensure_ascii=False, indent=2) + "\n"
        (out / MANIFEST_FILE).write_text(manifest_text, encoding="utf-8")
        return manifest
    except BaseException:
        if created:
            shutil.rmtree(out, ignore_errors=True)
        else:
            for name in (VECTORS_FILE, CHUNKS_FILE, GRAPH_FILE, MANIFEST_FILE):
                (out / name).unlink(missing_ok=True)
        raise


@dataclass
class Store:
    """A sealed, validated store: everything the query path needs."""

    path: Path
    manifest: StoreManifest
    vectors: VectorStore
    graph: KnowledgeGraph

    def make_embedder(self) -> HashedEmbedder | RemoteEmbedder:
        return make_embedder(self.manifest.provider)

    def make_extractor(self):
        return make_extractor(self.manifest.extractor)

    def make_generator(self, kind: str) -> EchoGenerator | RemoteGenerator:
        if kind == "echo":
            return EchoGenerator()
        return RemoteGenerator(make_chat_client(self.manifest.extractor, "generator"))


def reconstruct_parent_texts(chunks: list[Chunk]) -> dict[str, str]:
    """Rebuild each semantic chunk's canonical text from its token chunks.

    Token windows of one parent cover [0, total_tokens) with known spans, so
    concatenating each chunk's non-overlapping suffix restores the exact
    space-joined token sequence the snippets were stored as.
    """
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


def open_store(store_dir: str | Path) -> Store:
    """Validate and load a store directory; raises StoreCorruptError."""
    path = Path(store_dir)
    manifest_path = path / MANIFEST_FILE
    if not manifest_path.is_file():
        raise StoreCorruptError(f"missing manifest in {path} (incomplete or foreign directory)")
    try:
        manifest_obj = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreCorruptError(f"unreadable manifest in {path}: {exc}") from exc
    manifest = StoreManifest.from_json_obj(manifest_obj)
    if manifest.format_version != STORE_FORMAT_VERSION:
        raise StoreCorruptError(f"unsupported store format version {manifest.format_version}")

    vectors = VectorStore.load(path / VECTORS_FILE)
    if vectors.dimension != manifest.provider.dimension:
        raise StoreCorruptError(
            f"manifest dimension {manifest.provider.dimension} does not match "
            f"{VECTORS_FILE} dimension {vectors.dimension}"
        )
    if manifest.counts.get("chunks") != len(vectors):
        raise StoreCorruptError(
            f"manifest counts {manifest.counts.get('chunks')} chunks but {VECTORS_FILE} "
            f"holds {len(vectors)}"
        )
    chunks = [vectors.metadata[cid] for cid in vectors.chunk_ids]
    snippet_texts = {cid: chunk.text for cid, chunk in vectors.metadata.items()}
    snippet_texts.update(reconstruct_parent_texts(chunks))
    graph = KnowledgeGraph.load_json(path / GRAPH_FILE, snippet_texts)
    return Store(path=path, manifest=manifest, vectors=vectors, graph=graph)


def run_query(
    store: Store,
    question: str,
    config: QueryConfig | None = None,
    *,
    embedder=None,
    extractor=None,
) -> RetrievalResult:
    """One hybrid retrieval over an open store with its manifest providers."""
    return retrieve_hybrid(
        question,
        embedder=embedder or store.make_embedder(),
        store=store.vectors,
        extractor=extractor or store.make_extractor(),
        graph=store.graph,
        config=config or store.manifest.query,
    )


def answer_records(
    store: Store, records: list[EvalRecord], config: QueryConfig, generator, embedder
) -> int:
    """Fill each record's missing contexts and answer from one retrieval.

    Records that already carry both are left untouched; ``generator`` may be
    None when every record has an answer. Contexts are the structured text
    (when non-empty) followed by the ranked chunk texts. Returns the number
    of retrievals run.
    """
    extractor = store.make_extractor()
    runs = 0
    for record in records:
        if record.contexts and record.answer:
            continue
        result = run_query(store, record.question, config, embedder=embedder, extractor=extractor)
        runs += 1
        if not record.contexts:
            record.contexts = (
                [result.structured_text] if result.structured_text else []
            ) + [c.text for c in result.ranked_chunks]
        if not record.answer:
            record.answer = generate_answer(record.question, result.unified_context, generator)
    return runs

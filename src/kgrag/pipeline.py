"""Index-build and store-open orchestration.

A store directory holds the four ``STORE_FILES``, written in that order
with the manifest last so an interrupted build is detectable. A store
without a valid manifest is corrupt, and so is one whose manifest names
another format version than ``STORE_FORMAT_VERSION``; version 7 stores a
chunk record as its id, span and text, the graph as integer columns (see
``chunking`` and ``graph``), and in the manifest only the config values a
``kgrag`` flag sets; a version 1 to 6 store must be rebuilt.
Opening a store reads and checks every file but graph.json. That file, and
the parent texts the graph renders (rebuilt from the chunk records, whose
spans must tile each parent), are read and checked the first time
``Store.graph`` is read: a semantic query reads neither.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from operator import attrgetter
from pathlib import Path

import numpy as np

from .chunking import (
    Chunk,
    ChunkerConfig,
    SemanticChunk,
    hashed_window_distances,
    semantic_split,
    token_window_split,
    window_distances,
)
from .corpus import Document, load_corpus, split_sentences
from .embedding import HashedEmbedder, HashedTokens, ProviderConfig, RemoteEmbedder, make_embedder
from .evaluation import EvalRecord
from .exceptions import InputError, StoreCorruptError
from .extraction import RemoteExtractor, RuleExtractor
from .graph import KnowledgeGraph
from .remote import ChatClient
from .retriever import (
    GRAPH_MODES,
    EchoGenerator,
    QueryConfig,
    RemoteGenerator,
    RetrievalResult,
    retrieve_hybrid,
)
from .vector_index import CHUNKS_SIDECAR, VectorStore

STORE_FORMAT_VERSION = 7
VECTORS_FILE = "vectors.skvx"
GRAPH_FILE = "graph.json"
MANIFEST_FILE = "manifest.json"
STORE_FILES = (VECTORS_FILE, CHUNKS_SIDECAR, GRAPH_FILE, MANIFEST_FILE)
_parent = attrgetter("parent_semantic_chunk")

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


def check_config_block(section: str, cls, block) -> None:
    """Raise TypeError naming ``section`` unless ``block`` is a dict whose every key is a field of ``cls``."""
    if not isinstance(block, dict):
        raise TypeError(f"config section {section!r} must be a JSON object, got {type(block).__name__}")
    known = {f.name for f in fields(cls)}
    for key in block:
        if key not in known:
            raise TypeError(f"config section {section!r}: unknown key {key!r}")


def make_config(section: str, cls, values: dict):
    """``cls(**values)`` once ``check_config_block`` passes and each value has its field's default type.

    Raises TypeError: an ``int`` field takes only ``int`` (not ``bool`` or
    ``float``), a ``float`` field ``int`` or ``float``, and a ``str`` field
    only ``str``. The store manifest and a ``--config`` file are both read
    through here.
    """
    check_config_block(section, cls, values)
    for f in fields(cls):
        if f.name in values:
            kind, got = type(f.default), type(values[f.name])
            if got is not kind and not (kind is float and got is int):
                raise TypeError(f"{f.name!r} must be {kind.__name__}, got {got.__name__}")
    return cls(**values)


@dataclass
class StoreManifest:
    format_version: int
    chunker: ChunkerConfig
    provider: ProviderConfig
    extractor: ExtractorConfig
    query: QueryConfig
    counts: dict[str, int] = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "format_version": self.format_version,
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
            config, counts = obj["config"], obj["counts"]
            for key, kind in (("format_version", int), ("counts", dict)):
                if type(obj[key]) is not kind:
                    raise TypeError(f"{key!r} must be {kind.__name__}, got {type(obj[key]).__name__}")
            if not {*map(type, counts.values())} <= {int}:
                raise TypeError(f"'counts' values must be int, got {counts!r}")
            return cls(
                format_version=obj["format_version"],
                chunker=make_config("chunker", ChunkerConfig, config["chunker"]),
                provider=make_config("provider", ProviderConfig, config["provider"]),
                extractor=make_config("extractor", ExtractorConfig, config["extractor"]),
                query=make_config("query", QueryConfig, config["query"]),
                counts=counts,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreCorruptError(f"invalid manifest: {exc}") from exc


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


def chunk_documents(
    documents: list[Document], embedder, chunker: ChunkerConfig
) -> tuple[list[SemanticChunk], list[Chunk], np.ndarray]:
    """Sentence split -> semantic split -> token windows -> chunk rows, in document order.

    Returns the semantic chunks, the token chunks and one float32 row per
    token chunk, as ``embedder.embed_batch`` of the chunk texts gives it.
    The hashed embedder lowercases, splits and hashes every sentence of the
    build once, into one ``HashedTokens``. Every document's window distances
    come from it, and so does each chunk's row: the chunk's ``token_span``
    shifted by the token offset of its semantic chunk's first sentence, since
    ``" ".join(sentences).split()`` is the sentences' own splits in turn. Any
    other embedder embeds each document's windows and then every chunk text
    in one ``embed_batch`` call. The percentile threshold stays per document.
    """
    doc_sentences = [(doc.doc_id, sentences) for doc in documents if (sentences := split_sentences(doc.text))]
    tokens = None
    if isinstance(embedder, HashedEmbedder):
        tokens = HashedTokens([s for _, sentences in doc_sentences for s in sentences], embedder.dimension)
        lengths = [len(sentences) for _, sentences in doc_sentences]
        distances = hashed_window_distances(tokens, lengths, chunker.window_k)
    else:
        distances = window_distances(doc_sentences, embedder, chunker.window_k)
    all_semantic: list[SemanticChunk] = []
    all_chunks: list[Chunk] = []
    first_sentences: list[int] = []  # per chunk, the build-wide index of its semantic chunk's first sentence
    base = 0  # build-wide index of the document's first sentence
    for (doc_id, sentences), doc_distances in zip(doc_sentences, distances):
        for sem in semantic_split(doc_id, sentences, doc_distances, chunker):
            windows = token_window_split(sem, chunker.chunk_size, chunker.overlap)
            all_semantic.append(sem)
            all_chunks.extend(windows)
            first_sentences.extend([base + sem.sentence_span[0]] * len(windows))
        base += len(sentences)
    if tokens is None:
        return all_semantic, all_chunks, embedder.embed_batch([c.text for c in all_chunks])
    first = tokens.offsets[first_sentences]
    spans = np.array([c.token_span for c in all_chunks], dtype=np.int64).reshape(-1, 2)
    return all_semantic, all_chunks, tokens.rows(first + spans[:, 0], first + spans[:, 1])


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
    An output path that is a file, or lies under one, and a corpus without
    documents raise ``InputError``.
    """
    chunker = chunker or ChunkerConfig()
    provider = provider or ProviderConfig()
    extractor_config = extractor_config or ExtractorConfig()
    query_defaults = query_defaults or QueryConfig()

    out = Path(out_dir)
    created = not out.exists()
    try:
        if not created and any(out.iterdir()):
            raise InputError(f"output directory {out} exists and is not empty")
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or above it
        raise InputError(f"cannot use {out} as the output directory: {exc}") from exc

    try:
        documents = load_corpus(corpus_path)
        if not documents:
            raise InputError(f"no documents in corpus {corpus_path}")
        embedder = make_embedder(provider)
        extractor = make_extractor(extractor_config)

        all_semantic, all_chunks, rows = chunk_documents(documents, embedder, chunker)

        vectors = VectorStore(embedder.dimension)
        vectors.add(all_chunks, rows)
        del rows  # seal copies the rows into its matrix and drops them; nothing here should hold them on
        vectors.seal()
        vectors.save(out / VECTORS_FILE)
        del vectors  # saved; the graph phase below should not hold its matrix

        graph = KnowledgeGraph({})  # exported, never rendered, so it needs no chunk texts
        for sem in all_semantic:
            for triple in extractor.triples(sem.sentences, provenance=sem.chunk_id):
                graph.upsert_triple(triple)
        del extractor  # its tables serve this loop only; seal and export should not hold them
        graph.seal()
        graph.export(out / GRAPH_FILE, "json")

        manifest = StoreManifest(
            format_version=STORE_FORMAT_VERSION,
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
            for name in STORE_FILES:
                (out / name).unlink(missing_ok=True)
        raise


@dataclass
class Store:
    """An open store: its manifest and vectors checked at open, its graph on first read."""

    manifest: StoreManifest
    vectors: VectorStore
    path: Path

    @cached_property
    def graph(self) -> KnowledgeGraph:
        """``graph.json`` over the chunk records' parent texts, checked on first read; raises StoreCorruptError."""
        texts = reconstruct_parent_texts(list(self.vectors.metadata.values()))
        graph = KnowledgeGraph.load_json(self.path / GRAPH_FILE, texts)
        _check_counts(self.manifest, (("nodes", GRAPH_FILE, len(graph)), ("edges", GRAPH_FILE, graph.edge_count)))
        return graph

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

    A parent's token windows (whose types ``read_chunks_jsonl`` checked), in
    span order, must tile it: each span is ``0 <= start < end``, the first
    starts at token 0 and each later one at or before the end covered so
    far, else the store is corrupt. The
    first window's text is kept whole; from each later one only the part
    after the overlap, ``text.split(" ", skip)[skip]`` with ``skip = covered
    - start``, is appended. The pieces joined with single spaces are the
    semantic chunk's tokens joined the same way, as if every window were
    split into tokens and re-joined. ``Store.graph`` takes its
    ``chunk_id -> text`` map from here.
    """
    by_parent: dict[str, list[Chunk]] = {}
    for chunk in chunks:
        by_parent.setdefault(chunk.parent_semantic_chunk, []).append(chunk)
    texts: dict[str, str] = {}
    for parent, members in by_parent.items():
        members.sort(key=lambda c: c.token_span[0])
        pieces: list[str] = []
        covered = 0
        for member in members:
            start, end = member.token_span
            if not 0 <= start < end:
                raise StoreCorruptError(
                    f"chunk {member.chunk_id!r} starts at token {start} and ends at token {end}: "
                    "a span must satisfy 0 <= start < end"
                )
            skip = covered - start
            if skip < 0:
                raise StoreCorruptError(
                    f"chunk {member.chunk_id!r} starts at token {start}, past the {covered} tokens "
                    f"covered of parent {parent!r}"
                )
            rest = member.text.split(" ", skip)
            if member.text and len(rest) > skip:  # else the window adds no token
                pieces.append(rest[skip])
            covered = max(covered, end)
        texts[parent] = " ".join(pieces)
    return texts


def _check_counts(manifest: StoreManifest, loaded) -> None:
    """Each ``(key, file name, count)`` of ``loaded`` must be the manifest's count; raises StoreCorruptError."""
    for key, name, count in loaded:
        if manifest.counts.get(key) != count:
            raise StoreCorruptError(f"manifest counts {manifest.counts.get(key)} {key} but {name} holds {count}")


def open_store(store_dir: str | Path) -> Store:
    """Validate and load a store directory but its graph; raises StoreCorruptError.

    Each file is read, and checked, in one pass: the manifest; the vectors
    with their chunk records (one decoder call and type check per line,
    rows finite and one per record). The manifest's counts of chunks and
    semantic chunks (the distinct parents the records name) must match
    what was loaded. The graph waits for the first read of ``Store.graph``,
    which also rebuilds the parent texts it renders from the chunks'
    overlap cuts, whose spans must tile each parent. The graph's
    node names are checked in file order, its edge columns are checked
    whole (every provenance must name one of those parents), and its node
    and edge counts must match the manifest's.
    """
    path = Path(store_dir)
    manifest_path = path / MANIFEST_FILE
    if not manifest_path.is_file():
        raise StoreCorruptError(f"missing manifest in {path} (incomplete or foreign directory)")
    try:
        manifest_obj = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreCorruptError(f"unreadable manifest in {path}: {exc}") from exc
    # The version is checked first: an older store's config blocks may hold keys this one lacks.
    version = manifest_obj.get("format_version") if type(manifest_obj) is dict else None
    if type(version) is int and version != STORE_FORMAT_VERSION:
        raise StoreCorruptError(
            f"store format version {version} is not {STORE_FORMAT_VERSION}; rebuild the store with `kgrag index`"
        )
    manifest = StoreManifest.from_json_obj(manifest_obj)

    vectors = VectorStore.load(path / VECTORS_FILE)
    if vectors.dimension != manifest.provider.dimension:
        raise StoreCorruptError(
            f"manifest dimension {manifest.provider.dimension} does not match "
            f"{VECTORS_FILE} dimension {vectors.dimension}"
        )
    # Every semantic chunk has a token, so it has a window naming it as parent.
    parents = len(set(map(_parent, vectors.metadata.values())))
    _check_counts(manifest, (("chunks", VECTORS_FILE, len(vectors)), ("semantic_chunks", CHUNKS_SIDECAR, parents)))
    return Store(manifest=manifest, vectors=vectors, path=path)


def run_query(
    store: Store,
    question: str,
    config: QueryConfig | None = None,
    *,
    embedder=None,
    extractor=None,
) -> RetrievalResult:
    """One hybrid retrieval over an open store with its manifest providers.

    Only the modes in ``GRAPH_MODES`` read ``store.graph`` or build an extractor.
    Pass one ``embedder`` (``store.make_embedder()``) across calls to reuse
    what it keeps: a hashed embedder's token table, so each question hashes
    only tokens it has not seen. Without one, each call makes a fresh
    embedder and hashes every token of the question again.
    """
    config = config or store.manifest.query
    reads_graph = config.mode in GRAPH_MODES
    return retrieve_hybrid(
        question,
        embedder=embedder or store.make_embedder(),
        store=store.vectors,
        extractor=extractor or (store.make_extractor() if reads_graph else None),
        graph=store.graph if reads_graph else None,
        config=config,
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
    extractor = store.make_extractor() if config.mode in GRAPH_MODES else None
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
            record.answer = generator.generate(record.question, result.unified_context)
    return runs

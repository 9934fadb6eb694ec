"""Two-stage chunking: semantic boundary detection, then token windows.

Stage one groups each sentence with its neighbors (window size k), embeds
the windows, takes the cosine distance between each window and the next,
and closes a chunk wherever that distance strictly exceeds the
nearest-rank percentile threshold of the document's distances. With the
hashed embedder each window is one token range of the build's one
``HashedTokens`` coding of every sentence, counted the way a chunk row is,
in one pass over all documents of a build. Stage two bounds chunk length
with a fixed-stride token window (default 100 tokens, 16 overlap); a
semantic chunk's tokens are its sentences' tokens in turn. Chunk j of
semantic chunk ``<doc>#s<i>`` is ``<doc>#s<i>#t<j>``, so ``chunks.jsonl``
holds only each chunk's id, span and text, streamed as f-string rows whose
strings the C ``encode_basestring`` escapes, byte for byte what
``json.dumps`` gives, and read back one C ``raw_decode`` call per line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import embedding
from .corpus import holds_escape, lone_surrogate
from .embedding import HashedTokens, cosine_rows
from .exceptions import ProviderError, StoreCorruptError


_BLOCK_TOKENS = 1 << 20  # about the most tokens one block of window rows counts


@dataclass
class ChunkerConfig:
    window_k: int = 1
    percentile: float = 95.0
    chunk_size: int = 100
    overlap: int = 16

    def __post_init__(self) -> None:
        if self.window_k < 0:
            raise ValueError("window_k must be >= 0")
        if not 0.0 < self.percentile <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        if self.chunk_size < 2:
            raise ValueError("chunk_size must be >= 2")
        if not 0 <= self.overlap < self.chunk_size:
            raise ValueError("overlap must satisfy 0 <= overlap < chunk_size")


@dataclass(frozen=True)
class SemanticChunk:
    """A contiguous run of a document's sentences, its only text, forming one coherent unit."""

    chunk_id: str  # <doc id>#s<i>
    sentence_span: tuple[int, int]  # inclusive
    sentences: tuple[str, ...]


class Chunk(NamedTuple):
    """A token-bounded slice of a semantic chunk; the unit that gets indexed."""

    chunk_id: str  # <semantic chunk id>#t<j>
    token_span: tuple[int, int]  # half-open
    text: str

    @property
    def parent_semantic_chunk(self) -> str:
        """The id of the semantic chunk this slice belongs to: ``chunk_id`` up to its last ``#t``."""
        return self.chunk_id.rpartition("#t")[0]


# Builds a Chunk from its 3-tuple in C, skipping NamedTuple's Python-level __new__.
_chunk = partial(tuple.__new__, Chunk)


def build_windows(sentences: list[str], k: int) -> list[str]:
    """Window i = sentences max(0, i-k) .. min(n-1, i+k), space-joined."""
    if not sentences:
        raise ValueError("build_windows requires at least one sentence")
    n = len(sentences)
    return [" ".join(sentences[max(0, i - k) : min(n - 1, i + k) + 1]) for i in range(n)]


def sequential_distances(embeddings: np.ndarray) -> list[float]:
    """Cosine distance between each row of an (n, D) matrix and the next; empty if n < 2."""
    matrix = np.asarray(embeddings)
    if len(matrix) < 2:
        return []
    return (1.0 - cosine_rows(matrix[:-1], matrix[1:])).tolist()


def percentile_threshold(distances: list[float], p: float) -> float:
    """Nearest-rank percentile: sorted value at index ceil(p/100 * n) - 1."""
    if not distances:
        raise ValueError("no distances")
    if not 0.0 < p <= 100.0:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(distances)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[rank - 1]


def window_distances(documents: list[tuple[str, list[str]]], embedder, k: int) -> list[list[float]]:
    """Each ``(doc_id, sentences)`` document's sequential window distances, in order.

    For a document this is ``sequential_distances`` over the embeddings of
    ``build_windows(sentences, k)``, from one ``embed_batch`` call per
    document; a document of fewer than two sentences has none.
    ``hashed_window_distances`` gives the hashed embedder's distances bit for
    bit, from sentences it has already hashed.
    """
    distances: list[list[float]] = []
    for doc_id, sentences in documents:
        try:
            embeddings = embedder.embed_batch(build_windows(sentences, k)) if len(sentences) > 1 else []
        except ProviderError as exc:
            # The provider message already pinpoints the failing window batch.
            raise ProviderError(f"window embedding failed for doc {doc_id!r}: {exc}") from exc
        distances.append(sequential_distances(embeddings))
    return distances


def hashed_window_distances(tokens: HashedTokens, lengths: list[int], k: int) -> list[list[float]]:
    """``window_distances`` with a hashed embedder, over sentences already hashed.

    ``tokens`` holds the sentences of consecutive documents, ``lengths[j]``
    of them for document j. Window i of the document [a, b) is the token
    range of its sentences ``max(a, i-k) .. min(b, i+k+1) - 1``, counted by
    ``tokens.rows`` one block at a time; consecutive blocks share one row.
    A block holds at most ``_BLOCK_ROWS`` windows and, unless one window is
    longer, about ``_BLOCK_TOKENS`` tokens, however wide the windows are.
    """
    if k < 0:
        raise ValueError("window size k must be >= 0")
    total = len(tokens.offsets) - 1
    k = min(k, total)  # a window never reaches past its document
    counts = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(counts)
    sentence = np.arange(total)
    starts = tokens.offsets[np.maximum(np.repeat(ends - counts, counts), sentence - k)]
    stops = tokens.offsets[np.minimum(np.repeat(ends, counts), sentence + k + 1)]
    distances = np.empty(max(total - 1, 0))  # row i to row i+1, across documents too
    step = max(min(embedding._BLOCK_ROWS - 1, _BLOCK_TOKENS // int((stops - starts).max(initial=1))), 1)
    for i in range(0, total - 1, step):
        rows = tokens.rows(starts[i : i + step + 1], stops[i : i + step + 1])
        distances[i : i + len(rows) - 1] = 1.0 - cosine_rows(rows[:-1], rows[1:])
    return [distances[end - n : max(end - n, end - 1)].tolist() for end, n in zip(ends.tolist(), lengths)]


def semantic_split(doc_id: str, sentences: list[str], distances: list[float], config: ChunkerConfig) -> list[SemanticChunk]:
    """Split document ``doc_id``'s sentences into semantically coherent chunks.

    ``distances`` are the document's sequential window distances (see
    ``window_distances``), one fewer than there are sentences. The greedy
    scan closes the running chunk after sentence i whenever the window
    distance d_i strictly exceeds the percentile threshold, so the number of
    chunks is always 1 + |{i : d_i > T}|.
    """
    if not sentences:
        raise ValueError("semantic_split requires at least one sentence")
    if len(distances) != len(sentences) - 1:
        raise ValueError(f"expected {len(sentences) - 1} window distances, got {len(distances)}")

    boundaries: list[int] = []
    if distances:
        threshold = percentile_threshold(distances, config.percentile)
        boundaries = [i for i, d in enumerate(distances) if d > threshold]

    chunks: list[SemanticChunk] = []
    start = 0
    for seq, boundary in enumerate([*boundaries, len(sentences) - 1]):
        span = (start, boundary)
        chunks.append(
            SemanticChunk(
                chunk_id=f"{doc_id}#s{seq}",
                sentence_span=span,
                sentences=tuple(sentences[start : boundary + 1]),
            )
        )
        start = boundary + 1
    return chunks


def token_window_split(semantic_chunk: SemanticChunk, chunk_size: int, overlap: int) -> list[Chunk]:
    """Fixed-stride token windows over one semantic chunk's space-joined sentences.

    Chunk j covers tokens [j*stride, j*stride + chunk_size) clipped to the
    end; emission stops as soon as the final token is covered.
    """
    if not 0 <= overlap < chunk_size:
        raise ValueError("overlap must satisfy 0 <= overlap < chunk_size")
    tokens = " ".join(semantic_chunk.sentences).split()
    total = len(tokens)
    if total == 0:
        return []

    stride = chunk_size - overlap
    parent = semantic_chunk.chunk_id
    chunks: list[Chunk] = []
    start = 0
    j = 0
    while True:
        end = min(start + chunk_size, total)
        chunks.append(_chunk((f"{parent}#t{j}", (start, end), " ".join(tokens[start:end]))))
        if end >= total:
            return chunks
        start += stride
        j += 1


def chunk_to_json(chunk: Chunk) -> str:
    """The chunk's record, byte for byte ``json.dumps(record, ensure_ascii=False)``.

    An f-string row whose strings are escaped by the C ``encode_basestring``
    that ``ensure_ascii=False`` uses; the keys are in the record's order,
    with the default separators.
    """
    esc = encode_basestring
    start, end = chunk.token_span
    return f'{{"chunk_id": {esc(chunk.chunk_id)}, "span": [{start}, {end}], "text": {esc(chunk.text)}}}'


# The C decoder behind json.loads; chunk_from_json repeats the checks that
# json.loads wraps around it, without its per-call Python overhead.
_decode_record = json.JSONDecoder().raw_decode
_JSON_WHITESPACE = " \t\n\r"


def chunk_from_json(line: str, lineno: int) -> Chunk:
    """Line ``lineno``'s chunk record: a string id and text, a span of two ints; else StoreCorruptError.

    It rejects every line ``json.loads`` would: only JSON whitespace may
    surround the record (so a BOM or ``\\xa0`` before it is rejected), and
    anything after it is "Extra data". A ``bool`` is not an int here, and
    no string may hold a lone surrogate. The id must hold a parent before its last ``#t``.
    """
    try:
        record = line.strip(_JSON_WHITESPACE)
        obj, end = _decode_record(record)
        if end != len(record):
            raise json.JSONDecodeError("Extra data", record, end)
        chunk_id, span, text = obj["chunk_id"], obj["span"], obj["text"]
        if type(chunk_id) is not str or not chunk_id.rpartition("#t")[0]:
            raise ValueError(f"chunk_id must be a string '<parent>#t<j>' with a non-empty parent, got {chunk_id!r}")
        if type(span) is not list or [*map(type, span), type(text)] != [int, int, str]:
            raise TypeError(f"chunk {chunk_id!r} has a non-integer span or a non-string text")
        if holds_escape(record) and (problem := lone_surrogate((repr(key), obj[key]) for key in ("chunk_id", "text"))):
            raise ValueError(problem)
        return _chunk((chunk_id, (span[0], span[1]), text))
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreCorruptError(f"line {lineno}: bad chunk record: {exc}") from exc


def write_chunks_jsonl(chunks: list[Chunk], path: Path) -> None:
    """One ``chunk_to_json`` record per line, in pipeline order (doc, semantic chunk, span start)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{chunk_to_json(chunk)}\n" for chunk in chunks)


def read_chunks_jsonl(path: Path) -> list[Chunk]:
    """The chunk records of a JSONL file, in line order; raises StoreCorruptError naming the file.

    Lines end only at ``"\\n"`` (U+2028 and kin are valid raw inside a JSON
    string); lines that are blank after ``str.strip`` are skipped, and every
    other line is checked by ``chunk_from_json`` (one C decoder call), its
    error naming the line.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise StoreCorruptError(f"cannot read chunk file {path}: {exc}") from exc
    try:
        return [chunk_from_json(line, n) for n, line in enumerate(lines, start=1) if line.strip()]
    except StoreCorruptError as exc:
        raise StoreCorruptError(f"{path} {exc}") from exc

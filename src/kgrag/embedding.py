"""Text embedding providers behind one interface.

Two providers: a deterministic signed-feature-hashing embedder for offline
and test use, and a remote HTTP provider speaking the common embeddings wire
shape (POST {"model", "input": [...]} -> {"data": [{"index", "embedding"}]}).
Vectors are float32, unit-normalized; empty text maps to the zero vector.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from .exceptions import ProviderError
from .remote import post_json

Vector = np.ndarray

MAX_BATCH_SIZE = 64
_BLOCK_ROWS = 256  # texts per accumulation block in embed_hashed_many

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64_MASK = 0xFFFFFFFFFFFFFFFF


@dataclass
class ProviderConfig:
    kind: str = "hashed"  # "hashed" | "remote"
    dimension: int = 256
    endpoint_url: str = ""
    model_name: str = ""
    timeout: float = 30.0
    max_retries: int = 3
    parallelism: int = 4

    def __post_init__(self) -> None:
        if self.kind not in ("hashed", "remote"):
            raise ValueError(f"unknown provider kind {self.kind!r}")
        if self.dimension < 8:
            raise ValueError("embedding dimension must be >= 8")


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _U64_MASK
    return h


def embed_hashed_many(texts: list[str], dimension: int = 256) -> np.ndarray:
    """Signed feature hashing over lowercased whitespace tokens, one row per text.

    Each token hashes to one coordinate (FNV-1a mod D) with sign taken from
    the hash's top bit; each row is L2-normalized, and a text without tokens
    is the zero row. Disjoint vocabularies land on (near-)orthogonal vectors,
    which is what the chunk-boundary tests rely on.

    Each distinct token of the batch is hashed once; nothing is kept across
    calls. The signed counts are small integers, so sums and norms are exact
    in any order and a row does not depend on the rest of the batch. Rows are
    accumulated ``_BLOCK_ROWS`` texts at a time, which bounds the temporary
    arrays of a large batch. Returns float32, shape (len(texts), D).
    """
    if dimension < 8:
        raise ValueError("embedding dimension must be >= 8")
    token_ids: defaultdict[str, int] = defaultdict(count().__next__)  # first sight -> next id
    hashes: list[int] = []  # fnv1a64 of each token, by id
    out = np.empty((len(texts), dimension), dtype=np.float32)
    for start in range(0, len(texts), _BLOCK_ROWS):
        block = texts[start : start + _BLOCK_ROWS]
        occurrences = array("q")  # token id of every token occurrence, text by text
        lengths: list[int] = []
        for text in block:
            tokens = text.lower().split()
            occurrences.extend(map(token_ids.__getitem__, tokens))
            lengths.append(len(tokens))
        hashes.extend(fnv1a64(token.encode("utf-8")) for token in islice(token_ids, len(hashes), None))
        ids = np.frombuffer(occurrences, dtype=np.int64)
        out[start : start + len(block)] = _normalized_counts(hashes, ids, lengths, dimension)
    return out


def _normalized_counts(hashes: list[int], ids: np.ndarray, lengths: list[int], dimension: int) -> np.ndarray:
    """Float64 rows of signed token counts, each divided by its L2 norm.

    Row i counts the next ``lengths[i]`` token ids of ``ids``.
    """
    hashed = np.array(hashes, dtype=np.uint64)
    columns = (hashed % np.uint64(dimension)).astype(np.int64)
    signs = np.where(hashed >> np.uint64(63), -1.0, 1.0)
    flat = np.repeat(np.arange(len(lengths), dtype=np.int64) * dimension, lengths) + columns[ids]
    # bincount gives int64 when there are no tokens at all, hence the cast.
    values = np.bincount(flat, weights=signs[ids], minlength=len(lengths) * dimension)
    values = values.astype(np.float64, copy=False).reshape(len(lengths), dimension)
    norms = np.sqrt(np.einsum("ij,ij->i", values, values))[:, None]
    np.divide(values, norms, out=values, where=norms > 0.0)
    return values


def embed_hashed(text: str, dimension: int = 256) -> Vector:
    """``embed_hashed_many([text], dimension)[0]``."""
    return embed_hashed_many([text], dimension)[0]


def cosine_similarity(a: Vector, b: Vector) -> float:
    """Cosine of the angle between two vectors; 0.0 if either is all-zero."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    a64 = np.asarray(a, dtype=np.float64)
    b64 = np.asarray(b, dtype=np.float64)
    denom = float(np.linalg.norm(a64) * np.linalg.norm(b64))
    if denom == 0.0:
        return 0.0
    return float(np.clip(np.dot(a64, b64) / denom, -1.0, 1.0))


def embed_remote(texts: list[str], config: ProviderConfig) -> list[Vector]:
    """Embed texts through the remote endpoint, preserving input order.

    Requests are batched at most MAX_BATCH_SIZE texts each and issued
    concurrently up to ``config.parallelism``. Responses are re-normalized
    to unit length; a dimension disagreement within the reply is an error.
    """
    if not texts:
        return []
    batches = [texts[i : i + MAX_BATCH_SIZE] for i in range(0, len(texts), MAX_BATCH_SIZE)]
    offsets = [i * MAX_BATCH_SIZE for i in range(len(batches))]

    def fetch(batch: list[str], offset: int) -> list[Vector]:
        try:
            data = post_json(
                config.endpoint_url,
                {"model": config.model_name, "input": batch},
                timeout=config.timeout,
                max_retries=config.max_retries,
            )
        except ProviderError as exc:
            raise ProviderError(f"embedding batch at input {offset} failed: {exc}") from exc
        try:
            items = sorted(data["data"], key=lambda item: item["index"])
            vectors = [np.asarray(item["embedding"], dtype=np.float64) for item in items]
        except (KeyError, TypeError) as exc:
            raise ProviderError(f"malformed embedding response at input {offset}") from exc
        if len(vectors) != len(batch):
            raise ProviderError(
                f"embedding count mismatch at input {offset}: sent {len(batch)}, got {len(vectors)}"
            )
        dims = {v.shape for v in vectors}
        if len(dims) > 1:
            raise ProviderError(f"dimension mismatch across batch at input {offset}: {sorted(dims)}")
        out = []
        for vec in vectors:
            norm = float(np.linalg.norm(vec))
            out.append((vec / norm if norm > 0.0 else vec).astype(np.float32))
        return out

    if len(batches) == 1:
        return fetch(batches[0], 0)
    with ThreadPoolExecutor(max_workers=max(1, config.parallelism)) as pool:
        results = list(pool.map(fetch, batches, offsets))
    merged = [vec for block in results for vec in block]
    dims = {v.shape for v in merged}
    if len(dims) > 1:
        raise ProviderError(f"dimension mismatch across batches: {sorted(dims)}")
    return merged


class HashedEmbedder:
    """Deterministic local embedder; pure and safe to share across threads.

    ``embed_batch`` hashes each distinct token of the batch once; no state
    is kept between calls.
    """

    kind = "hashed"

    def __init__(self, dimension: int = 256):
        if dimension < 8:
            raise ValueError("embedding dimension must be >= 8")
        self.dimension = dimension

    def embed(self, text: str) -> Vector:
        return embed_hashed(text, self.dimension)

    def embed_batch(self, texts: list[str]) -> list[Vector]:
        return list(embed_hashed_many(texts, self.dimension))


class RemoteEmbedder:
    """Remote embedder bound to a ProviderConfig."""

    kind = "remote"

    def __init__(self, config: ProviderConfig):
        self.config = config
        self.dimension = config.dimension

    def embed(self, text: str) -> Vector:
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: list[str]) -> list[Vector]:
        vectors = embed_remote(texts, self.config)
        for vec in vectors:
            if vec.shape[0] != self.config.dimension:
                raise ProviderError(
                    f"provider returned dimension {vec.shape[0]}, expected {self.config.dimension}"
                )
        return vectors


def make_embedder(config: ProviderConfig) -> HashedEmbedder | RemoteEmbedder:
    if config.kind == "hashed":
        return HashedEmbedder(config.dimension)
    return RemoteEmbedder(config)

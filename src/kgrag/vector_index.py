"""Flat exact-scan vector store with binary persistence.

Single-writer build, then seal: a sealed store is immutable and safe for
arbitrarily many concurrent readers. Retrieval is an exact cosine scan over
all entries (no approximation), so the brute-force oracle in the tests must
agree with it identically.

On-disk layout ("SKVX" file): magic "SKVX", format version u16, dimension
u32, count u64, then count rows of dimension little-endian float32 in
insertion order. Chunk metadata lives in a sibling chunks.jsonl whose line
order matches the entry order.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .chunking import Chunk, read_chunks_jsonl, write_chunks_jsonl
from .embedding import Vector
from .exceptions import StoreCorruptError

MAGIC = b"SKVX"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIQ")

CHUNKS_SIDECAR = "chunks.jsonl"


class VectorStore:
    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self._ids: list[str] = []
        self._pending: list[np.ndarray] = []  # float32 rows added before seal
        self.metadata: dict[str, Chunk] = {}
        self._sealed = False
        self._matrix: np.ndarray | None = None
        self._norms: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def chunk_ids(self) -> list[str]:
        return list(self._ids)

    def add(self, chunk: Chunk, vector: Vector) -> None:
        if self._sealed:
            raise ValueError("store is sealed; adds are only allowed during build")
        if vector.shape != (self.dimension,):
            raise ValueError(f"dimension mismatch: got {vector.shape}, store is {self.dimension}")
        if chunk.chunk_id in self.metadata:
            raise ValueError(f"duplicate chunk_id {chunk.chunk_id!r}")
        self._ids.append(chunk.chunk_id)
        self._pending.append(np.asarray(vector, dtype=np.float32))
        self.metadata[chunk.chunk_id] = chunk

    def seal(self) -> None:
        """Freeze the store; the scan matrix becomes the only copy of the vectors."""
        if self._sealed:
            return
        rows = self._pending or [np.zeros((0, self.dimension), dtype=np.float32)]
        self._freeze(np.vstack(rows))

    def _freeze(self, rows: np.ndarray) -> None:
        # float32 -> float64 is exact, so save() recovers the stored rows bit for bit.
        self._matrix = rows.astype(np.float64)
        self._norms = np.linalg.norm(self._matrix, axis=1)
        self._pending = []
        self._sealed = True

    def top_k(self, query: Vector, k: int) -> list[tuple[str, float]]:
        """Exact top-k by cosine, descending; ties break by insertion order."""
        if not self._sealed:
            raise ValueError("store must be sealed before querying")
        if k < 1:
            raise ValueError("k must be >= 1")
        if query.shape != (self.dimension,):
            raise ValueError(f"dimension mismatch: got {query.shape}, store is {self.dimension}")
        n = len(self._ids)
        if n == 0:
            return []
        q = np.asarray(query, dtype=np.float64)
        qnorm = float(np.linalg.norm(q))
        if qnorm == 0.0:
            scores = np.zeros(n, dtype=np.float64)
        else:
            denom = self._norms * qnorm
            scores = np.divide(
                self._matrix @ q, denom, out=np.zeros(n, dtype=np.float64), where=denom > 0.0
            )
        order = np.argsort(-scores, kind="stable")[: min(k, n)]
        return [(self._ids[i], float(scores[i])) for i in order]

    def save(self, path: str | Path) -> None:
        """Write vectors to ``path`` and chunk metadata to a sibling JSONL."""
        if not self._sealed:
            raise ValueError("seal the store before saving")
        path = Path(path)
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, self.dimension, len(self._ids)))
            fh.write(self._matrix.astype("<f4").tobytes())
        write_chunks_jsonl([self.metadata[cid] for cid in self._ids], path.parent / CHUNKS_SIDECAR)

    @classmethod
    def load(cls, path: str | Path) -> "VectorStore":
        """Reconstruct a sealed store; round-trips bit-exactly."""
        path = Path(path)
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise StoreCorruptError(f"cannot read vector file {path}: {exc}") from exc
        if len(blob) < _HEADER.size:
            raise StoreCorruptError(f"truncated vector file {path}: {len(blob)} bytes of header")
        magic, version, dimension, count = _HEADER.unpack_from(blob)
        if magic != MAGIC:
            raise StoreCorruptError(f"bad magic in {path}: {magic!r}")
        if version != FORMAT_VERSION:
            raise StoreCorruptError(f"unsupported format version {version} in {path}")
        if dimension < 1:
            raise StoreCorruptError(f"invalid dimension {dimension} in {path}")
        expected = _HEADER.size + count * dimension * 4
        if len(blob) != expected:
            raise StoreCorruptError(
                f"truncated vector file {path}: expected {expected} bytes, got {len(blob)} "
                f"(offset {len(blob)})"
            )
        sidecar = path.parent / CHUNKS_SIDECAR
        chunks = read_chunks_jsonl(sidecar)
        if len(chunks) != count:
            raise StoreCorruptError(
                f"vector/metadata mismatch: {count} vectors vs {len(chunks)} chunk records"
            )
        store = cls(dimension)
        for chunk in chunks:
            if chunk.chunk_id in store.metadata:
                raise StoreCorruptError(f"duplicate chunk_id {chunk.chunk_id!r} in {sidecar}")
            store._ids.append(chunk.chunk_id)
            store.metadata[chunk.chunk_id] = chunk
        rows = np.frombuffer(blob, dtype="<f4", count=count * dimension, offset=_HEADER.size)
        store._freeze(rows.reshape(count, dimension))
        return store

"""Flat exact-scan vector store with binary persistence.

Single-writer build, then seal: ``add`` takes chunks with their vector
matrix, ``seal`` stacks everything added into one float64 scan matrix, and a
sealed store is immutable and safe for arbitrarily many concurrent readers.
``load`` fills a store through the same ``add`` and ``seal``, and ``seal``
rejects a row that is not finite, so every stored row and its norm are
finite. Retrieval is an exact cosine scan over all entries (no
approximation), so the brute-force oracle in the tests must agree with it
identically. ``top_k`` selects rather than sorts: ``np.partition`` finds the
k-th largest score, and only the rows scoring at least that much are
stable-sorted, which gives the ids, order and scores of a full stable sort.

On-disk layout ("SKVX" file): magic "SKVX", format version u16, dimension
u32, count u64, then count rows of dimension little-endian float32 in
insertion order. Chunk metadata lives in a sibling chunks.jsonl whose line
order matches the entry order.
"""

from __future__ import annotations

import struct
from operator import attrgetter
from pathlib import Path

import numpy as np

from .chunking import Chunk, read_chunks_jsonl, write_chunks_jsonl
from .embedding import Vector, _scaled_out_of_range_rows
from .exceptions import StoreCorruptError

MAGIC = b"SKVX"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIQ")

CHUNKS_SIDECAR = "chunks.jsonl"
_chunk_id = attrgetter("chunk_id")


class VectorStore:
    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self._pending: list[np.ndarray] = []  # float32 rows added before seal
        self.metadata: dict[str, Chunk] = {}  # insertion order is the row order
        self._sealed = False
        self._ids: list[str] | None = None  # row -> chunk id, from seal
        self._matrix: np.ndarray | None = None
        self._norms: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.metadata)

    def add(self, chunks: list[Chunk], rows: np.ndarray) -> None:
        """Append ``chunks`` with their vectors, one row each: shape ``(len(chunks), D)``.

        A chunk id already stored, or repeated in ``chunks``, raises
        ``ValueError`` naming the first repeat, and nothing is added.
        """
        if self._sealed:
            raise ValueError("store is sealed; adds are only allowed during build")
        rows = np.asarray(rows, dtype=np.float32)
        if rows.shape != (len(chunks), self.dimension):
            raise ValueError(f"dimension mismatch: got {rows.shape}, expected {(len(chunks), self.dimension)}")
        added = dict(zip(map(_chunk_id, chunks), chunks))
        if len(added) != len(chunks) or not self.metadata.keys().isdisjoint(added):
            seen = set(self.metadata)
            for chunk_id in map(_chunk_id, chunks):  # only to name the first repeat
                if chunk_id in seen:
                    raise ValueError(f"duplicate chunk_id {chunk_id!r}")
                seen.add(chunk_id)
        self._pending.append(rows)
        self.metadata.update(added)

    def seal(self) -> None:
        """Freeze the store; the scan matrix becomes the only copy of the vectors.

        Raises ``ValueError`` if a row holds a NaN or an infinity. A float32
        row widened to float64 has a finite norm exactly when it is finite,
        so the check reads the norms that seal keeps anyway and adds no
        (n, D) temporary.
        """
        if self._sealed:
            return
        # float32 -> float64 is exact, so save() recovers the stored rows bit for bit.
        matrix = np.concatenate([np.zeros((0, self.dimension)), *self._pending], dtype=np.float64)
        norms = np.linalg.norm(matrix, axis=1)
        ids = list(self.metadata)
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            raise ValueError(f"vector row {bad[0]} (chunk {ids[bad[0]]!r}) is not finite")
        self._ids, self._matrix, self._norms = ids, matrix, norms
        self._pending = []
        self._sealed = True

    def top_k(self, query: Vector, k: int) -> list[tuple[str, float]]:
        """Exact top-k by cosine, descending; ties break by insertion order.

        The result equals ``np.argsort(-scores, kind="stable")[:k]``. Every row
        scoring at least the k-th largest score, ties across the cut included,
        is stable-sorted in insertion order, then cut to k. Rows and query are
        finite, so no score is NaN: a query that is not finite raises
        ``ValueError``. A query whose squared norm would underflow or overflow
        is first rescaled by a power of two, as ``cosine_rows`` rescales a
        row, so it scores as it would at any other scale; any other query is
        used as given.
        """
        if not self._sealed:
            raise ValueError("store must be sealed before querying")
        if k < 1:
            raise ValueError("k must be >= 1")
        if query.shape != (self.dimension,):
            raise ValueError(f"dimension mismatch: got {query.shape}, store is {self.dimension}")
        q = _scaled_out_of_range_rows(np.asarray(query, dtype=np.float64)[None, :])[0][0]
        qnorm = float(np.linalg.norm(q))
        if not np.isfinite(qnorm):
            raise ValueError("query vector is not finite")
        n = len(self._ids)
        if n == 0:
            return []
        if qnorm == 0.0:
            scores = np.zeros(n, dtype=np.float64)
        else:
            denom = self._norms * qnorm
            scores = np.divide(
                self._matrix @ q, denom, out=np.zeros(n, dtype=np.float64), where=denom > 0.0
            )
        k = min(k, n)
        kth = np.partition(scores, n - k)[n - k]
        rows = np.flatnonzero(scores >= kth)
        order = rows[np.argsort(-scores[rows], kind="stable")[:k]]
        return [(self._ids[i], float(scores[i])) for i in order]

    def save(self, path: str | Path) -> None:
        """Write vectors to ``path`` and chunk metadata to a sibling JSONL."""
        if not self._sealed:
            raise ValueError("seal the store before saving")
        path = Path(path)
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, self.dimension, len(self.metadata)))
            fh.write(self._matrix.astype("<f4").tobytes())
        write_chunks_jsonl(list(self.metadata.values()), path.parent / CHUNKS_SIDECAR)

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
        rows = np.frombuffer(blob, dtype="<f4", count=count * dimension, offset=_HEADER.size)
        store = cls(dimension)
        try:
            store.add(chunks, rows.reshape(count, dimension))
        except ValueError as exc:
            raise StoreCorruptError(f"{exc} in {sidecar}") from exc
        try:
            store.seal()
        except ValueError as exc:
            raise StoreCorruptError(f"{exc} in {path}") from exc
        return store

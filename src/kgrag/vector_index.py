"""Flat exact-scan vector store with binary persistence.

Single-writer build, then seal: ``add`` takes chunks with their vector
matrix, and ``seal`` copies everything added into one C-contiguous ``(D, n)``
float32 matrix, the stored rows transposed, so that the n values of one
coordinate lie next to each other. A sealed store is immutable and safe for
arbitrarily many concurrent readers. ``load`` fills a store through the same
``add`` and ``seal``, and ``seal`` rejects a row that is not finite, so every
stored row and its norm are finite.

Retrieval is an exact cosine scan over all entries (no approximation). A
row's score is its float64 dot product with the query, summed left to right
over the query's nonzero coordinates only, starting from +0.0, divided by
the row's float64 norm times the query's norm (0.0 where that product is
0.0). A zero coordinate adds nothing to such a sum, so only the order of the
terms differs from a dense product, and a query with few nonzeros (a hashed
query has ~10 of 256) reads only those columns. Each product of a float32
query value and a float32 stored value is exact in float64, so the sum's
additions are the only rounding. A hashed question's ~10 nonzero values are
small signed counts over one norm, so its products share a few significands
and add up exactly in any order: hashed questions score bit for bit as a
dense float64 product ``rows @ q`` would. A long hashed text (~60 nonzeros)
or a dense float32 query can differ from that product in the last bit. ``top_k``
selects rather than sorts: ``np.partition`` finds the k-th largest score,
and only the rows scoring at least that much are stable-sorted, which gives
the ids, order and scores of a full stable sort.

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

# seal widens this many rows at a time to take their float64 norms.
_SEAL_ROWS = 256
# top_k gathers the query's nonzero columns over as many rows at a time as
# keep the gathered float32 block at or below this many values (1 MiB).
_GATHER_VALUES = 1 << 18


class VectorStore:
    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self._pending: list[np.ndarray] = []  # float32 rows added before seal
        self.metadata: dict[str, Chunk] = {}  # insertion order is the row order
        self._sealed = False
        self._ids: list[str] | None = None  # row -> chunk id, from seal
        self._columns: np.ndarray | None = None  # (D, n) float32, from seal
        self._norms: np.ndarray | None = None  # (n,) float64, from seal

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
        """Freeze the store; the column matrix becomes the only copy of the vectors.

        Raises ``ValueError`` if a row holds a NaN or an infinity. A float32
        row widened to float64 has a finite norm exactly when it is finite,
        so the check reads the norms that seal keeps anyway. Rows are widened
        ``_SEAL_ROWS`` at a time, so no (n, D) float64 temporary is made.
        """
        if self._sealed:
            return
        ids = list(self.metadata)
        columns = np.empty((self.dimension, len(ids)), dtype=np.float32)
        norms = np.empty(len(ids), dtype=np.float64)
        start = 0
        for rows in self._pending:
            for offset in range(0, len(rows), _SEAL_ROWS):
                block = rows[offset : offset + _SEAL_ROWS]
                stop = start + len(block)
                columns[:, start:stop] = block.T
                norms[start:stop] = np.linalg.norm(block.astype(np.float64), axis=1)
                start = stop
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            raise ValueError(f"vector row {bad[0]} (chunk {ids[bad[0]]!r}) is not finite")
        self._ids, self._columns, self._norms = ids, columns, norms
        self._pending = []
        self._sealed = True

    def _dots(self, q: np.ndarray) -> np.ndarray:
        """Float64 dot of every row with ``q``, summed left to right over ``q``'s nonzeros.

        ``q`` has at least one nonzero. Consecutive nonzero coordinates (a
        dense query) are read as one view of the column matrix; scattered
        ones are gathered, as many rows at a time as keep the float32 copy
        within ``_GATHER_VALUES``. ``einsum`` widens a block to float64 as it
        sums, and adds the coordinates of a block of two or more rows in
        order, one coordinate at a time across the rows.
        """
        nonzero = np.flatnonzero(q)
        first, stop = nonzero[0], nonzero[-1] + 1
        n = len(self._ids)
        if stop - first == len(nonzero):
            coordinates, step = slice(first, stop), n
        else:
            coordinates, step = nonzero, max(1, _GATHER_VALUES // len(nonzero))
        weights = q[coordinates]
        dots = np.empty(n, dtype=np.float64)
        for start in range(0, n, step):
            block = self._columns[coordinates, start : start + step]
            width = block.shape[1]
            if width == 1:  # einsum would sum one row as a dot product, in an order of its own
                block = np.repeat(block, 2, axis=1)
            dots[start : start + width] = np.einsum("j,ji->i", weights, block, dtype=np.float64)[:width]
        return dots

    def top_k(self, query: Vector, k: int) -> list[tuple[str, float]]:
        """Exact top-k by cosine, descending; ties break by insertion order.

        Scores follow the rule in the module docstring. The result equals
        ``np.argsort(-scores, kind="stable")[:k]``. Every row
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
            scores = np.divide(self._dots(q), denom, out=np.zeros(n, dtype=np.float64), where=denom > 0.0)
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
            fh.write(self._columns.T.astype("<f4", copy=False).tobytes())
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

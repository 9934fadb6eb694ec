"""Text embedding providers behind one interface.

Two providers: a deterministic signed-feature-hashing embedder for offline
and test use, and a remote HTTP provider speaking the common embeddings wire
shape (POST {"model", "input": [...]} -> {"data": [{"index", "embedding"}]}).
Each provider's ``embed`` (one text) and ``embed_batch`` (one float32 (n, D)
matrix) are its one entry point. Vectors are float32 and unit-normalized;
the hashed embedder maps a text without tokens to the zero vector, while the
remote one sends every text as given. ``cosine_rows`` is the one cosine rule
applied to such rows. ``HashedTokens`` is the hashed batch core: it
lowercases, splits and hashes a list of texts once into one int64 array of
signed columns, and ``rows`` counts any token ranges of it. An index build
codes every sentence once, and each of its sentence windows and chunks is
one token range of that array. ``HashedEmbedder.embed`` counts one question
straight into one row, since the batch bookkeeping (a flat ``repeat`` index
over all rows) cost more than the counting itself; both paths count the
same signed columns in token order, so their rows agree bit for bit.
"""

from __future__ import annotations

import math
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .corpus import Table
from .exceptions import InputError, ProviderError
from .remote import post_json

Vector = np.ndarray

MAX_BATCH_SIZE = 64
MAX_PARALLEL_REQUESTS = 4
MAX_DIMENSION = 2**32 - 1  # vectors.skvx records the dimension as a u32
MAX_KEPT_TOKENS = 2**16  # entries HashedEmbedder.embed keeps; ~7 MB when the tokens are 3-12 letters
_BLOCK_ROWS = 256  # rows per counting block in HashedTokens.rows and hashed_window_distances

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64_MASK = 0xFFFFFFFFFFFFFFFF


@dataclass
class ProviderConfig:
    """The embedder a store is built and queried with; each field is set by a ``kgrag index`` flag.

    Transport is not config: every remote call takes ``post_json``'s policy.
    """

    kind: str = "hashed"  # "hashed" | "remote"
    dimension: int = 256
    endpoint_url: str = ""
    model_name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("hashed", "remote"):
            raise ValueError(f"unknown provider kind {self.kind!r}")
        check_dimension(self.dimension)


def check_dimension(dimension: int) -> None:
    """Raise ValueError unless ``dimension`` is an embedding dimension: 8 to ``MAX_DIMENSION``."""
    if dimension < 8:
        raise ValueError("embedding dimension must be >= 8")
    if dimension > MAX_DIMENSION:
        raise ValueError(f"embedding dimension must be <= {MAX_DIMENSION}, got {dimension}")


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _U64_MASK
    return h


def _signed_column(dimension: int, token: str) -> int:
    """``2 * column + sign bit`` of ``token``'s FNV-1a hash: column ``h mod dimension``, sign its top bit."""
    h = fnv1a64(token.encode("utf-8"))
    return (h % dimension) << 1 | h >> 63


class HashedTokens:
    """The signed column of every lowercased whitespace token of some texts, in order.

    ``codes[j]`` is ``2 * column + sign bit`` of token j, text by text, and
    text i's tokens are ``offsets[i]:offsets[i + 1]``. Each text is
    lowercased and split once, each distinct token hashed once, and the token
    strings are dropped as soon as their text is coded. ``rows`` counts any
    token ranges from ``codes``, which is all a row needs: a row is the same
    whichever texts its tokens were split from.
    """

    __slots__ = ("dimension", "codes", "offsets")

    def __init__(self, texts: list[str], dimension: int):
        check_dimension(dimension)
        table = Table(partial(_signed_column, dimension))
        codes = array("q")
        lengths = [0]
        for text in texts:
            tokens = text.lower().split()
            codes.extend(map(table.__getitem__, tokens))
            lengths.append(len(tokens))
        self.dimension = dimension
        self.codes = np.frombuffer(codes, dtype=np.int64)
        self.offsets = np.cumsum(lengths, dtype=np.int64)

    def rows(self, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
        """Float32 unit rows of signed token counts, row i over tokens [starts[i], stops[i]).

        The ranges may overlap, and a range without tokens is the zero row.
        Counts are small integers, exact in float64 in any order. Rows are
        counted ``_BLOCK_ROWS`` at a time, so the float64 counts and the
        per-token temporaries stay bounded however many rows there are.
        """
        dimension = self.dimension
        out = np.empty((len(starts), dimension), dtype=np.float32)
        for i in range(0, len(starts), _BLOCK_ROWS):
            block = slice(i, i + _BLOCK_ROWS)
            lengths = stops[block] - starts[block]
            ends = np.cumsum(lengths)
            # Position of every counted token, range by range.
            positions = np.arange(ends[-1]) + np.repeat(starts[block] - ends + lengths, lengths)
            signed = self.codes[positions]
            flat = np.repeat(np.arange(len(lengths), dtype=np.int64) * dimension, lengths) + (signed >> 1)
            # bincount gives int64 when there are no tokens at all, hence the cast.
            values = np.bincount(flat, weights=1.0 - 2.0 * (signed & 1), minlength=len(lengths) * dimension)
            out[block] = _normalized(values.astype(np.float64, copy=False).reshape(len(lengths), dimension))
        return out


def _normalized(values: np.ndarray) -> np.ndarray:
    """Float32 copy of float64 rows divided in place by their L2 norms; all-zero rows stay zero.

    Both providers' rows come here. Squared norms are ``_row_dots``, exact for a hashed row's integer counts.
    """
    norms = np.sqrt(_row_dots(values, values))[:, None]
    np.divide(values, norms, out=values, where=norms > 0.0)
    return values.astype(np.float32)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with the same row of ``b``.

    Each row pair is a vector-vector ``matmul``, which runs the same BLAS dot
    as ``np.dot``, so for C-contiguous float64 rows, row i is bit for bit
    ``np.dot(a[i], b[i])``. A plain ``(a * b).sum(axis=1)`` sums in another
    order without fused multiply-add and differs in the last bit.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


# Below this squared norm a row's squares fall into the subnormal range (or to
# zero) by more than rounding, so its norm and cosines lose bits.
MIN_EXACT_SQUARED_NORM = 2.0**-969


def _scaled_out_of_range_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and its squared row norms, each row too small or too large rescaled.

    A row whose squared norm is below ``MIN_EXACT_SQUARED_NORM`` or not finite
    is multiplied by the power of two that brings its largest magnitude into
    [0.5, 1). That scaling is exact and leaves every cosine of the row as it
    is; all other rows are untouched, bit for bit.
    """
    with np.errstate(over="ignore"):
        squares = _row_dots(x, x)
    out = (squares < MIN_EXACT_SQUARED_NORM) | ~np.isfinite(squares)
    if not out.any():
        return x, squares
    x, squares = x.copy(), squares.copy()
    _, exponents = np.frexp(np.abs(x[out]).max(axis=1, initial=0.0))
    x[out] = np.ldexp(x[out], -exponents[:, None])
    squares[out] = _row_dots(x[out], x[out])
    return x, squares


def cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of row i of ``a`` with row i of ``b``, float64, clipped to [-1, 1].

    A row pair where either row is all-zero gives 0.0. A row so small or so
    large that its squared norm would underflow or overflow is first rescaled
    by a power of two, so the cosine is the same at any scale. This is the one
    cosine rule of the package; ``VectorStore.top_k`` alone keeps its own
    cached-norm form, over a query rescaled the same way.
    """
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    a, a_squares = _scaled_out_of_range_rows(np.ascontiguousarray(a, dtype=np.float64))
    b, b_squares = _scaled_out_of_range_rows(np.ascontiguousarray(b, dtype=np.float64))
    denom = np.sqrt(a_squares) * np.sqrt(b_squares)
    cosines = np.divide(_row_dots(a, b), denom, out=np.zeros(len(a)), where=denom != 0.0)
    return np.clip(cosines, -1.0, 1.0)


class HashedEmbedder:
    """Deterministic local embedder; safe to share across threads.

    Each lowercased whitespace token hashes to one coordinate (FNV-1a mod D)
    with sign taken from the hash's top bit; each row is L2-normalized, and a
    text without tokens is the zero row. Disjoint vocabularies land on
    (near-)orthogonal vectors, which is what the chunk-boundary tests rely on.

    ``embed`` counts one text through the embedder's token -> signed column
    table, so each distinct token is hashed once per embedder, not once per
    call; the table is cleared whenever a call leaves it holding
    ``MAX_KEPT_TOKENS`` entries. The table only caches a pure function, so
    threads that race on a missing token store the same int, and a row never
    depends on what the embedder saw before. ``embed_batch`` hashes each
    distinct token of the batch once and keeps nothing between calls.
    """

    def __init__(self, dimension: int = 256):
        check_dimension(dimension)
        self.dimension = dimension
        self._columns = Table(partial(_signed_column, dimension))

    def embed(self, text: str) -> Vector:
        """``embed_batch([text])[0]``, bit for bit, without the batch index.

        The counts are small integers, so their sum of squares is exact in
        any order and the norm matches the batch path's.
        """
        tokens = text.lower().split()
        if not tokens:
            return np.zeros(self.dimension, dtype=np.float32)
        columns = self._columns
        signed = np.fromiter(map(columns.__getitem__, tokens), dtype=np.int64, count=len(tokens))
        if len(columns) >= MAX_KEPT_TOKENS:
            columns.clear()
        row = np.bincount(signed >> 1, weights=1.0 - 2.0 * (signed & 1), minlength=self.dimension)
        norm = math.sqrt(row @ row)
        if norm > 0.0:
            row /= norm
        return row.astype(np.float32)

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """Float32 rows, shape (len(texts), D): row i is ``HashedTokens.rows`` over text i's tokens.

        That is how an index build counts its chunk rows, so a row does not
        depend on the rest of the batch.
        """
        tokens = HashedTokens(texts, self.dimension)
        return tokens.rows(tokens.offsets[:-1], tokens.offsets[1:])


class RemoteEmbedder:
    """Remote embedder bound to a ProviderConfig; it sends every text as given."""

    def __init__(self, config: ProviderConfig):
        self.config = config
        self.dimension = config.dimension

    def embed(self, text: str) -> Vector:
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """Embed texts through the remote endpoint, preserving input order.

        Requests are batched at most MAX_BATCH_SIZE texts each, issued on at
        most MAX_PARALLEL_REQUESTS workers, and sent with ``post_json``'s
        defaults, the one policy of every remote call. Each reply must hold one
        item per text sent, indexed 0 to n - 1, each a vector of
        ``config.dimension`` finite JSON numbers; its rows are re-normalized to
        unit length. Returns float32, shape (len(texts), D).
        """
        config = self.config
        if not texts:
            return np.zeros((0, config.dimension), dtype=np.float32)
        batches = [texts[i : i + MAX_BATCH_SIZE] for i in range(0, len(texts), MAX_BATCH_SIZE)]
        offsets = [i * MAX_BATCH_SIZE for i in range(len(batches))]

        def fetch(batch: list[str], offset: int) -> np.ndarray:
            try:
                data = post_json(config.endpoint_url, {"model": config.model_name, "input": batch})
            except ProviderError as exc:
                raise ProviderError(f"embedding batch at input {offset} failed: {exc}") from exc
            try:
                items = sorted(data["data"], key=lambda item: item["index"])
                indices = [item["index"] for item in items]
                # JSON true and 1.0 compare equal to 1, so the index type is checked too.
                if indices != list(range(len(batch))) or {*map(type, indices)} - {int}:
                    raise ValueError("reply indices are not one per input text")
                # dtype=object keeps a ragged reply as a 1-D array, so the shape check names it.
                rows = np.array([item["embedding"] for item in items], dtype=object)
            except (KeyError, TypeError, ValueError) as exc:
                raise ProviderError(f"malformed embedding response at input {offset}") from exc
            expected = (len(batch), config.dimension)
            if rows.shape != expected:
                raise ProviderError(
                    f"embedding dimension mismatch at input {offset}: expected shape {expected}, got {rows.shape}"
                )
            try:
                # JSON numbers parse to int or float; astype would also accept "1.5" and true.
                if not {type(v) for v in rows.flat} <= {int, float}:
                    raise TypeError("item that is not a JSON number")
                rows = rows.astype(np.float64)
                if not np.isfinite(rows).all():
                    raise ValueError("NaN or infinite item")
            except (TypeError, ValueError, OverflowError) as exc:
                raise ProviderError(f"non-numeric embedding value at input {offset}: {exc}") from exc
            return _normalized(rows)

        if len(batches) == 1:
            return fetch(batches[0], 0)
        with ThreadPoolExecutor(max_workers=MAX_PARALLEL_REQUESTS) as pool:
            return np.concatenate(list(pool.map(fetch, batches, offsets)))


def make_embedder(config: ProviderConfig) -> HashedEmbedder | RemoteEmbedder:
    if config.kind == "hashed":
        return HashedEmbedder(config.dimension)
    if not config.endpoint_url:
        raise InputError("remote embedder requires endpoint_url (index with --api-base)")
    return RemoteEmbedder(config)

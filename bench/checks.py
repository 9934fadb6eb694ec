"""Output checks, run outside the timed region.

The oracle reads ``vectors.skvx`` and ``chunks.jsonl`` straight from disk
with numpy and json, so it shares no code with ``VectorStore``.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

STORE_FILES = ("vectors.skvx", "chunks.jsonl", "graph.json")
_HEADER = struct.Struct("<4sHIQ")
# Two cosines closer than this are a tie, and either order of the tied chunks
# is accepted; the oracle and the program compute the same float64 expression.
TIE_TOLERANCE = 1e-12


def store_digests(store_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((store_dir / name).read_bytes()).hexdigest() for name in STORE_FILES}


def store_bytes(store_dir: Path) -> int:
    return sum(p.stat().st_size for p in store_dir.iterdir() if p.is_file())


class CosineOracle:
    """Brute-force exact cosine ranking over a store's vector file."""

    def __init__(self, store_dir: Path):
        blob = (store_dir / "vectors.skvx").read_bytes()
        magic, _, dimension, count = _HEADER.unpack_from(blob)
        if magic != b"SKVX":
            raise ValueError(f"bad vector file magic {magic!r}")
        rows = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size, count=count * dimension)
        self.matrix = rows.reshape(count, dimension).astype(np.float64)
        self.norms = np.linalg.norm(self.matrix, axis=1)
        lines = (store_dir / "chunks.jsonl").read_text(encoding="utf-8").splitlines()
        self.ids = [json.loads(line)["chunk_id"] for line in lines if line.strip()]
        if len(self.ids) != count:
            raise ValueError(f"{count} vectors but {len(self.ids)} chunk records")

    def top(self, query: np.ndarray, k: int) -> list[tuple[str, float]]:
        q = np.asarray(query, dtype=np.float64)
        denom = self.norms * float(np.linalg.norm(q))
        scores = np.divide(self.matrix @ q, denom, out=np.zeros(len(self.ids)), where=denom > 0.0)
        order = np.lexsort((np.arange(len(scores)), -scores))[:k]
        return [(self.ids[i], float(scores[i])) for i in order]


def ranking_errors(ranked, beta: float) -> list[str]:
    """``final = cosine + beta * boost``, boost in [0, 1], descending finals."""
    errors = []
    for i, chunk in enumerate(ranked):
        expected = chunk.cosine_score + beta * chunk.boost
        if not math.isclose(chunk.final_score, expected, rel_tol=0.0, abs_tol=TIE_TOLERANCE):
            errors.append(f"rank {i}: final {chunk.final_score!r} != cosine + beta*boost {expected!r}")
        if not 0.0 <= chunk.boost <= 1.0:
            errors.append(f"rank {i}: boost {chunk.boost!r} outside [0, 1]")
        if i and chunk.final_score > ranked[i - 1].final_score:
            errors.append(f"rank {i}: final score rises from {ranked[i - 1].final_score!r}")
    return errors


def oracle_errors(ranked, expected: list[tuple[str, float]]) -> list[str]:
    """Semantic-only hits must be the oracle's top-k, in order, ties aside."""
    if len(ranked) != len(expected):
        return [f"{len(ranked)} hits, oracle has {len(expected)}"]
    scores = dict(expected)
    errors = []
    for i, (chunk, (want_id, want_score)) in enumerate(zip(ranked, expected)):
        if not math.isclose(chunk.cosine_score, scores.get(chunk.chunk_id, math.nan), abs_tol=TIE_TOLERANCE):
            errors.append(f"rank {i}: {chunk.chunk_id} cosine {chunk.cosine_score!r} not the oracle's")
        elif chunk.chunk_id != want_id and abs(chunk.cosine_score - want_score) > TIE_TOLERANCE:
            errors.append(f"rank {i}: got {chunk.chunk_id}, oracle ranks {want_id} here")
    return errors


def eval_errors(report) -> list[str]:
    errors = []
    for row in report.per_record:
        for name, value in row.items():
            if name != "record_index" and value is not None and not 0.0 <= value <= 1.0:
                errors.append(f"record {row['record_index']}: {name}={value!r} outside [0, 1]")
    return errors

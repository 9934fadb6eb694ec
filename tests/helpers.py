"""Shared test utilities: stub embedders, synthetic documents, fake HTTP, call recording."""

from __future__ import annotations

import math
import random

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays


# Where each named edge field sits in graph.json: a node is its name, an
# endpoint a cell of the sources or targets column, and a relation or
# provenance an entry of the relations or chunks table.
EDGE_FIELD = {"source": ("edges", 0), "target": ("edges", 1), "relation": ("relations",), "provenance": ("chunks",)}


# The start of the load error for edges that are not four lists.
EDGE_LAYOUT = "graph edges are not the four columns [sources, targets, relations, chunks]"


def set_graph_field(graph: dict, section: str, key: str, value) -> None:
    """Set field ``key`` of node or edge 0 in a ``graph.json``-shaped object; a node's one field is its name."""
    if section == "nodes":
        assert key == "name"
        graph["nodes"][0] = value
    else:
        cells = graph
        for step in EDGE_FIELD[key]:
            cells = cells[step]
        cells[0] = value


def graph_object(names, edges) -> dict:
    """The ``graph.json`` object of node names and ``(source, target, relation, provenance)`` edges.

    Its tables are the distinct relations and provenances, ascending, and its
    columns the sorted edges, the last two as indices into those tables.
    """
    edges = sorted(edges)
    relations, chunks = sorted({edge[2] for edge in edges}), sorted({edge[3] for edge in edges})
    relation_ids, chunk_ids = {r: i for i, r in enumerate(relations)}, {c: i for i, c in enumerate(chunks)}
    rows = [(s, t, relation_ids[r], chunk_ids[c]) for s, t, r, c in edges]
    columns = list(map(list, zip(*rows))) or [[], [], [], []]
    return {"nodes": list(names), "relations": relations, "chunks": chunks, "edges": columns}


def tuple_edges(graph: dict) -> list[tuple]:
    """The edges of a ``graph.json``-shaped object, in file order, as ``(source, target, relation, provenance)``."""
    sources, targets, relations, chunks = graph["edges"]
    labels = [graph["relations"][i] for i in relations]
    return list(zip(sources, targets, labels, [graph["chunks"][i] for i in chunks]))


class SeqEmbedder:
    """Returns prescribed vectors positionally; for driving the chunker."""

    def __init__(self, vectors):
        self.vectors = [np.asarray(v, dtype=np.float64) for v in vectors]
        self.dimension = len(self.vectors[0])

    def embed_batch(self, texts):
        assert len(texts) == len(self.vectors), "one vector per window expected"
        return list(self.vectors)

    def embed(self, text):
        return self.vectors[0]


def _reference_rescaled(v) -> np.ndarray:
    """``v`` as float64, times the power of two that brings its largest magnitude
    into [0.5, 1) when its squared norm is below 2**-969 or not finite."""
    v64 = np.asarray(v, dtype=np.float64)
    squared = float(np.dot(v64, v64))
    if squared >= 2.0**-969 and math.isfinite(squared):
        return v64
    largest = float(np.max(np.abs(v64), initial=0.0))
    return np.ldexp(v64, -math.frexp(largest)[1])


def reference_cosine(a, b) -> float:
    """The one-pair cosine rule ``cosine_rows`` replaced, kept as its reference.

    Like ``cosine_rows``, a vector whose squared norm would underflow or
    overflow is first rescaled by a power of two.
    """
    a64 = _reference_rescaled(a)
    b64 = _reference_rescaled(b)
    denom = float(np.linalg.norm(a64) * np.linalg.norm(b64))
    if denom == 0.0:
        return 0.0
    return float(np.clip(np.dot(a64, b64) / denom, -1.0, 1.0))


@st.composite
def embedding_matrices(draw, max_rows: int = 12, max_dim: int = 260) -> np.ndarray:
    """(n, D) float32 or float64 matrices with negative values, all-zero rows and rescaled rows."""
    n = draw(st.integers(0, max_rows))
    dim = draw(st.integers(1, max_dim))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = 32 if dtype == np.float32 else 64
    elements = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False, width=width)
    matrix = draw(arrays(dtype, (n, dim), elements=elements))
    for i in range(n):
        kind = draw(st.sampled_from(["drawn", "zero", "scaled"]))
        if kind == "zero":
            matrix[i] = 0.0
        elif kind == "scaled" and i > 0:
            matrix[i] = matrix[i - 1] * draw(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    return matrix


def vectors_with_consecutive_similarities(sims: list[float]) -> list[np.ndarray]:
    """Unit 2-D vectors whose consecutive cosines equal ``sims`` exactly-ish."""
    angles = [0.0]
    for s in sims:
        angles.append(angles[-1] + math.acos(s))
    return [np.array([math.cos(a), math.sin(a)]) for a in angles]


def two_topic_sentences(rng: random.Random, per_topic: int = 11) -> tuple[list[str], int]:
    """A document that switches topic exactly once, with disjoint vocabularies.

    Each topic has its own random vocabulary (distinct letter ranges keep the
    two disjoint); every sentence repeats three topic anchor words so
    within-topic windows stay similar while cross-topic windows are near
    orthogonal under the hashing embedder.
    """

    def vocab(letters: str) -> list[str]:
        return ["".join(rng.choice(letters) for _ in range(7)) for _ in range(12)]

    def sentences(words: list[str]) -> list[str]:
        anchors = words[:3]
        return [
            " ".join(anchors + rng.choices(words, k=5)) for _ in range(per_topic)
        ]

    first = sentences(vocab("abcdefghijklm"))
    second = sentences(vocab("nopqrstuvwxyz"))
    return first + second, len(first)


class FakeResponse:
    def __init__(self, status_code: int, payload=None, text: str = "", headers: dict | None = None):
        self.status_code = status_code
        self._payload = payload
        self.text = text if text else repr(payload)
        self.headers = {} if headers is None else headers

    def json(self):
        if self._payload is None:
            raise ValueError("no JSON body")
        return self._payload


class FakePost:
    """Swap in for ``remote._send``: pops scripted responses, records calls."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls: list[dict] = []

    def __call__(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        if not self.responses:
            raise AssertionError("FakePost ran out of scripted responses")
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


def embedding_payload(vectors) -> dict:
    return {"data": [{"index": i, "embedding": list(map(float, v))} for i, v in enumerate(vectors)]}


def chat_payload(content: object) -> dict:
    return {"choices": [{"message": {"content": content}}]}


def record_texts(monkeypatch, module, name: str = "content_tokens") -> list:
    """Wrap ``module.name`` so every argument it is called with lands in the returned list."""
    texts: list[str] = []
    original = getattr(module, name)

    def recorded(text):
        texts.append(text)
        return original(text)

    monkeypatch.setattr(module, name, recorded)
    return texts

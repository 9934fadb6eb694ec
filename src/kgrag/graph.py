"""Knowledge graph: named entity nodes and labeled edges with provenance chunk ids, held as integer columns.

Nodes merge on the normalized entity name. A node is its id, its position
in the node list: ``name(i)`` reads its name, ``contexts(i)`` its chunk ids,
and a ``Subgraph`` maps each admitted id to its hop. A build collects each
edge as the tuple ``(source, target, relation, provenance)`` in a set;
``seal`` turns it into the graph's one sealed form, which a load reads
straight from ``graph.json``: the distinct relations and provenance chunk
ids as two ascending tables, and four int32 edge columns (node ids, then
table indices) in sorted edge order. Index order is string order, so the
columns list the edges in their tuples' order.

A node's distinct neighbour ids and its contexts, its edges' distinct chunk
ids, each ascending, are derived the first time they are read, then kept in
one table each: its out-edges are one ``searchsorted`` range of the source
column, its in-edges one range of a stable argsort by target. A traversal is
a seeded breadth-first expansion that merges the frontier's neighbour lists
lazily, bounded by hop count and node budget, so a hub costs what the budget
admits. A neighborhood renders as text within a token budget: its context
chunks, read through the graph's one chunk_id -> text map, those the seed
nodes share most ahead, then its edges, collected from the columns only if
the budget reaches them. Asked for its text's content tokens, a render
hands back the union of the kept chunks' token tuples, each made from its
text the first time a render keeps it and kept in ``text_tokens``, with the
header's and the kept edge lines' tokens; the boost reads its candidate
chunks' tuples from the same table. Same lifecycle as the vector
store: single-writer build (or load), seal, then lock-free concurrent
reads. ``export`` writes ``graph.json`` one piece at a time; a load checks
it whole, in C or numpy.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Iterator
from functools import cached_property
from heapq import merge
from itertools import chain, filterfalse, islice
from operator import ge, itemgetter, lt
from pathlib import Path

import numpy as np

from .corpus import Table, holds_escape, lone_surrogate
from .extraction import EntityMention, Triple, normalize_entity
from .exceptions import InputError, StoreCorruptError
from .lexical import content_tokens

MIN_PREFIX_LEN = 3
DEFAULT_HOPS = 2
DEFAULT_MAX_NODES = 50
DEFAULT_MAX_STRUCTURED_TOKENS = 1024

# The one graph.json writer: compact, non-ASCII kept, run by the C encoder.
_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode

# The first context line opens with this header.
_CONTEXTS_HEADER = "Contexts:\n"
_HEADER_TOKENS = frozenset(content_tokens(_CONTEXTS_HEADER))

# The graph.json edge columns, in edge field order; the last two index the tables of the same names.
EDGE_COLUMNS = ("sources", "targets", "relations", "chunks")


class Subgraph:
    """Admitted node ids, each mapped to its hop, and the edges induced on them, as tuples collected on first read."""

    __slots__ = ("nodes", "_edges", "_graph")

    def __init__(self, nodes: dict[int, int], graph: KnowledgeGraph) -> None:
        self.nodes = nodes
        self._edges: set[tuple] | None = None
        self._graph = graph

    @property
    def edges(self) -> set[tuple]:
        if self._edges is None:
            self._edges = self._graph._induced_edges(self.nodes)
        return self._edges


class KnowledgeGraph:
    def __init__(self, chunk_texts: dict[str, str]) -> None:
        self._chunk_texts = chunk_texts  # semantic chunk id -> text, shared by every node
        self._names: list[str] = []
        self._by_normalized: dict[str, int] = {}
        self._edges: set[tuple] | None = set()  # a build's tuples; seal turns them into the tables and columns
        self._relations: list[str] = []
        self._chunks: list[str] = []
        self._columns = np.zeros((4, 0), np.int32)  # EDGE_COLUMNS, one row each
        self._sealed = False

    def __len__(self) -> int:
        return len(self._names)

    @property
    def edge_count(self) -> int:
        return self._columns.shape[1] if self._sealed else len(self._edges)

    def name(self, node_id: int) -> str:
        """The node's name: the first surface that resolved to it."""
        return self._names[node_id]

    def contexts(self, node_id: int) -> list[str]:
        """The node's edges' distinct provenance chunk ids, ascending, derived on first read."""
        if not self._sealed:
            raise ValueError("graph must be sealed before reading a node's contexts")
        return self._contexts[node_id]

    def seal(self) -> None:
        """Freeze a build: turn its edge set, checked by ``upsert_triple``, into the tables and the sorted columns.

        Index order is string order, so one ``np.lexsort`` of the columns sorts
        the edges as their tuples sort. A load is sealed as it is read.
        """
        if self._sealed:
            return
        if self._edges:
            edges = list(self._edges)
            sources, targets, *labels = (list(map(itemgetter(k), edges)) for k in range(4))
            self._relations, self._chunks = tables = [sorted(set(column)) for column in labels]
            ids = [list(map({label: i for i, label in enumerate(t)}.__getitem__, c)) for t, c in zip(tables, labels)]
            columns = np.array((sources, targets, *ids), np.int32)
            self._columns = columns[:, np.lexsort(columns[::-1])]  # the last key sorts first
        self._edges = None
        self._sealed = True

    @cached_property
    def _target_order(self) -> tuple[np.ndarray, np.ndarray]:
        """The edge indices stably sorted by target, and the targets in that order, so a node's in-edges are one range."""
        order = np.argsort(self._columns[1], kind="stable")
        return order, self._columns[1][order]

    def _distinct(self, node: int, out: int, into: int) -> list[int]:
        """The distinct values, ascending, of column ``out`` of a node's out-edges and ``into`` of its in-edges."""
        start, stop = np.searchsorted(self._columns[0], (node, node + 1))
        order, targets = self._target_order
        first, last = np.searchsorted(targets, (node, node + 1))
        return sorted({*self._columns[out, start:stop].tolist(), *self._columns[into, order[first:last]].tolist()})

    @cached_property
    def _neighbours(self) -> Table:
        """Node id -> its distinct neighbour ids in both directions, ascending, each list derived on first read."""
        return Table(lambda node: self._distinct(node, 1, 0))

    @cached_property
    def _contexts(self) -> Table:
        """Node id -> its edges' distinct chunk ids, ascending, each list derived on first read."""
        chunks = self._chunks
        return Table(lambda node: [chunks[i] for i in self._distinct(node, 3, 3)])

    @cached_property
    def text_tokens(self) -> Table:
        """Text -> its distinct content tokens, made the first time a hybrid query scores the text, then kept.

        The one table of the texts a hybrid query scores: a render filling
        ``content`` fills it for the semantic chunks it keeps, keyed by the
        text it has just read for the line, and the boost for its candidate
        chunks' texts. So it holds no text but the store's own. Each value is
        a tuple, not a set, of interned strings, so a token many texts hold
        is one string: with every text made, the table is about the size of
        the texts.
        """
        return Table(lambda text: tuple(map(sys.intern, content_tokens(text))))

    def _induced_edges(self, nodes: Iterable[int]) -> set[tuple]:
        """The edges with both ends in ``nodes``, as ``(source, target, relation, provenance)`` tuples."""
        admitted = np.zeros(len(self._names), bool)
        admitted[list(nodes)] = True
        columns = self._columns
        sources, targets, relations, chunks = columns[:, admitted[columns[0]] & admitted[columns[1]]].tolist()
        labels = map(self._relations.__getitem__, relations)
        return set(zip(sources, targets, labels, map(self._chunks.__getitem__, chunks)))

    def _resolve(self, surface: str) -> int:
        """The node id of ``surface``'s normalized name, a new node (named ``surface``) if none.

        Every key is a normalized name and ``normalize_entity`` is idempotent,
        so a surface that is itself a key names that key's node, and only a
        miss is normalized. The rule extractor's names are normalized already,
        so once a name has a node its later lookups never normalize it.
        """
        node_id = self._by_normalized.get(surface)
        if node_id is not None:
            return node_id
        normalized = normalize_entity(surface)
        node_id = self._by_normalized.get(normalized)
        if node_id is None:
            node_id = len(self._names)
            self._names.append(surface)
            self._by_normalized[normalized] = node_id
        return node_id

    def upsert_triple(self, triple: Triple) -> tuple[int, int]:
        """Merge a triple into the graph; returns (source, target) node ids.

        Endpoint nodes are resolved or created by normalized name, and the
        edge enters the build's set; ``seal`` turns the set into the tables
        and columns. A relation or provenance that is not a string raises
        ``ValueError``, changing nothing.
        """
        if self._sealed:
            raise ValueError("graph is sealed; upserts are only allowed during build")
        subject, relation, obj, provenance = triple
        if type(relation) is not str or type(provenance) is not str:
            raise ValueError(f"triple relation and provenance must be strings: {triple}")
        if not subject.strip() or not obj.strip():
            raise ValueError(f"triple with empty endpoint rejected: {triple}")
        if not relation.strip():
            raise ValueError(f"triple with empty relation rejected: {triple}")
        source = self._resolve(subject)
        target = self._resolve(obj)
        self._edges.add((source, target, relation, provenance))
        return source, target

    def match_entities(self, mentions: list[EntityMention]) -> set[int]:
        """Resolve mentions to node ids: exact normalized match, then unique prefix.

        A prefix match requires one string to be a prefix of the other with
        the shorter side at least MIN_PREFIX_LEN characters; an ambiguous
        prefix (several candidate nodes) matches nothing.
        """
        if not self._sealed:
            raise ValueError("graph must be sealed before matching")
        matched: set[int] = set()
        for mention in mentions:
            m = mention.normalized
            node_id = self._by_normalized.get(m)
            if node_id is not None:
                matched.add(node_id)
                continue
            candidates = [
                nid
                for norm, nid in self._by_normalized.items()
                if (len(m) >= MIN_PREFIX_LEN and norm.startswith(m))
                or (len(norm) >= MIN_PREFIX_LEN and m.startswith(norm))
            ]
            if len(candidates) == 1:
                matched.add(candidates[0])
        return matched

    def neighborhood(self, seeds: set[int], hops: int = DEFAULT_HOPS, max_nodes: int = DEFAULT_MAX_NODES) -> Subgraph:
        """Breadth-first expansion from the seeds, both edge directions.

        Each depth reads the frontier's sorted neighbour lists (one list, or
        a lazy merge of several), skips nodes already admitted and stops at
        ``max_nodes``, so lower node ids win a truncated frontier and a hub
        costs what the budget admits, not its parallel edges. Edges are the
        graph edges induced on the admitted node set, collected when
        ``Subgraph.edges`` is first read, so a caller that never reads them
        never pays for them.
        """
        if not self._sealed:
            raise ValueError("graph must be sealed before traversal")
        if hops < 1:
            raise ValueError("hops must be >= 1")
        if max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        if not seeds:
            return Subgraph({}, self)

        neighbours = self._neighbours
        frontier = sorted(seeds)
        hop_of: dict[int, int] = dict.fromkeys(frontier, 0)
        for depth in range(1, hops + 1):
            if len(hop_of) >= max_nodes or not frontier:
                break
            reached = neighbours[frontier[0]] if len(frontier) == 1 else merge(*map(neighbours.__getitem__, frontier))
            frontier = []
            for node in islice(filterfalse(hop_of.__contains__, reached), max_nodes - len(hop_of)):
                hop_of[node] = depth  # admitted now, so a repeat later in the merge is skipped
                frontier.append(node)
        return Subgraph(hop_of, self)

    # -- rendering and export ------------------------------------------------

    def render_subgraph(
        self,
        sub: Subgraph,
        max_tokens: int = DEFAULT_MAX_STRUCTURED_TOKENS,
        *,
        kept: dict | None = None,
        content: set[str] | None = None,
    ) -> str:
        """Deterministic text form within ``max_tokens`` whitespace tokens.

        The ``Contexts:`` header and each context chunk's text once come
        first, then a blank line and the edge lines (see ``_lines`` for the
        order). Lines are taken in that order until the first one that would
        push ``len(text.split())`` past the budget; it and every later line
        are left out. The header is taken with the first context line and the
        blank line with the first edge line, so a cut text never ends in
        either. Lines are produced lazily, so the cost is the seed nodes'
        contexts plus what the budget keeps: a hop level's contexts are
        collected only once every lower level's lines fit, and the edges
        sorted only once every context line fits. ``kept``, when given, is
        filled with ``context_lines`` and ``edge_lines`` (the lines kept of
        each section) and ``tokens`` (the tokens rendered). ``content``, when
        given, is filled with ``content_tokens`` of the text, made without
        tokenizing a context line: a kept chunk's tokens are made from its
        text the first time a render keeps it, then kept in ``text_tokens``.
        """
        lines: list[str] = []
        texts: list[str] = []  # the kept context lines' chunk texts
        used = 0
        for text, line in self._lines(sub):
            cost = len(line.split())
            if used + cost > max_tokens:
                break
            used += cost
            lines.append(line)
            if text is not None:
                texts.append(text)
        if kept is not None:
            kept.update(context_lines=len(texts), edge_lines=len(lines) - len(texts), tokens=used)
        if content is not None:
            # Lines join on whitespace, which never merges or splits a word, so the
            # text's tokens are its lines': the header's, each kept chunk's, the edges'.
            content.update(*map(self.text_tokens.__getitem__, texts), content_tokens("\n".join(lines[len(texts) :])))
            if texts:
                content.update(_HEADER_TOKENS)
        return "\n".join(lines)

    def _lines(self, sub: Subgraph) -> Iterator[tuple[str | None, str]]:
        """Every line of the unbounded render, lazily, as (chunk text, line) pairs; an edge line's text is None.

        Context chunks are ordered by the number of seed (hop 0) nodes whose
        contexts name them, descending, then by their least hop, then by
        chunk id; each appears once. Edge lines follow in (hop of source,
        source name, relation, target name) order. The first context line
        carries the ``Contexts:`` header and the first edge line, after any
        context, the blank line.
        """
        header = _CONTEXTS_HEADER
        for chunk_id in self._context_order(sub):
            text = self._chunk_texts[chunk_id]
            yield text, f"{header}- {text}"
            header = ""
        hop_of, names = sub.nodes, self._names
        edge_keys = sorted(
            (hop_of[source], names[source], relation, names[target]) for source, target, relation, _ in sub.edges
        )
        separator = "" if header else "\n"
        for _, source, relation, target in edge_keys:
            yield None, f"{separator}{source} -[{relation}]-> {target}"
            separator = ""

    def _context_order(self, sub: Subgraph) -> Iterator[str]:
        """Context chunk ids in render order, one hop level at a time, from the nodes' sorted contexts.

        A level's chunks are those its nodes name and no lower level did, so
        their least hop is the level's. Hop 0 yields the ids several seeds
        share first (``_shared_ids``); every level then yields the rest
        ascending, from its one list or a lazy merge, so a reader that stops
        early, or before a later level, never reads the rest. A level's
        contexts are read only when it is reached.
        """
        levels: dict[int, list[int]] = {}
        for node_id, hop in sub.nodes.items():
            levels.setdefault(hop, []).append(node_id)
        seen: set[str] = set()
        for hop in sorted(levels):
            lists = list(map(self.contexts, levels[hop]))
            if hop == 0 and len(lists) > 1:
                shared = _shared_ids(lists)
                seen.update(shared)
                yield from shared
            for chunk_id in filterfalse(seen.__contains__, lists[0] if len(lists) == 1 else merge(*lists)):
                seen.add(chunk_id)
                yield chunk_id

    def to_json_obj(self) -> dict:
        """The sealed graph as ``graph.json`` holds it: node names, the relation and chunk tables, the four edge columns."""
        if not self._sealed:
            raise ValueError("seal the graph before exporting")
        return {"nodes": [*self._names], "relations": [*self._relations], "chunks": [*self._chunks],
                "edges": self._columns.tolist()}

    def _json_pieces(self) -> Iterator[str]:
        """``_encode(self.to_json_obj()) + "\\n"``, made as written: the names and tables, then one piece per column."""
        yield f'{{"nodes":{_encode(self._names)},"relations":{_encode(self._relations)},"chunks":{_encode(self._chunks)}'
        for k, column in enumerate(self._columns):
            yield (',"edges":[' if k == 0 else ",") + _encode(column.tolist())
        yield "]}\n"

    def to_dot(self) -> str:
        if not self._sealed:
            raise ValueError("seal the graph before exporting")

        def esc(text: str) -> str:
            return text.replace("\\", "\\\\").replace('"', '\\"')

        lines = ["digraph knowledge_graph {"]
        lines += [f'  n{node_id} [label="{esc(name)}"];' for node_id, name in enumerate(self._names)]
        labels = list(map(esc, self._relations))
        sources, targets, relations, _ = self._columns.tolist()
        lines += [f'  n{s} -> n{t} [label="{labels[r]}"];' for s, t, r in zip(sources, targets, relations)]
        return "\n".join([*lines, "}\n"])

    def export(self, path: str | Path, fmt: str = "json") -> None:
        if not self._sealed:
            raise ValueError("seal the graph before exporting")
        if fmt == "json":
            pieces = self._json_pieces()
        elif fmt == "dot":
            pieces = [self.to_dot()]
        else:
            raise ValueError(f"unknown export format {fmt!r}")
        try:
            with Path(path).open("w", encoding="utf-8") as out:
                out.writelines(pieces)
        except OSError as exc:
            raise InputError(f"cannot write graph export to {path}: {exc}") from exc

    @classmethod
    def from_json_obj(cls, obj: dict, chunk_texts: dict[str, str]) -> "KnowledgeGraph":
        """Rebuild a sealed graph from the ``graph.json`` layout; raises StoreCorruptError naming the first fault.

        Node ``i`` is the ``i``-th name, a string that no earlier name
        normalizes alike (``_resolve`` would give it the earlier id). The two
        tables are strings, strictly ascending, and every chunk id is a key of
        ``chunk_texts``; then ``_edge_columns``. Every check but the node walk
        runs whole, in C or numpy, and a fault is found by ``np.flatnonzero``.
        """
        if type(obj) is not dict or any(type(obj.get(k)) is not list for k in ("nodes", "relations", "chunks", "edges")):
            raise StoreCorruptError("malformed graph: not an object of 'nodes', 'relations', 'chunks' and 'edges' lists")
        graph = cls(chunk_texts)
        for node_id, name in enumerate(obj["nodes"]):
            if type(name) is not str:
                raise StoreCorruptError(f"graph node {node_id} is a {type(name).__name__}, not a name string")
            if graph._resolve(name) != node_id:
                raise StoreCorruptError(f"graph node {node_id} repeats an earlier node's name: {name!r}")
        relations, chunks = obj["relations"], obj["chunks"]
        for key, table in (("relations", relations), ("chunks", chunks)):
            if not {*map(type, table)} <= {str}:
                i = np.flatnonzero(np.array([*map(type, table)], object) != str)[0]
                raise StoreCorruptError(f"graph {key}[{i}] is {table[i]!r}, not a string")
            if not all(map(lt, table, islice(table, 1, None))):
                i = np.flatnonzero(list(map(ge, table, islice(table, 1, None))))[0] + 1
                how = "repeats" if table[i] == table[i - 1] else "sorts before"
                raise StoreCorruptError(f"graph {key}[{i}] {how} {key}[{i - 1}]: a table must be sorted and unique")
        if not chunk_texts.keys() >= set(chunks):
            i = np.flatnonzero(~np.fromiter(map(chunk_texts.__contains__, chunks), bool, len(chunks)))[0]
            raise StoreCorruptError(f"graph chunks[{i}] is {chunks[i]!r}, which names no stored chunk")
        graph._columns = _edge_columns(obj["edges"], (len(graph), len(graph), len(relations), len(chunks)))
        graph._relations, graph._chunks, graph._edges, graph._sealed = relations, chunks, None, True
        return graph

    @classmethod
    def load_json(cls, path: str | Path, chunk_texts: dict[str, str]) -> "KnowledgeGraph":
        """``from_json_obj`` of the file at ``path``, names and relations free of lone surrogates; errors name the file."""
        try:
            text = Path(path).read_text(encoding="utf-8")
            obj, escaped = json.loads(text), holds_escape(text)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StoreCorruptError(f"cannot load graph from {path}: {exc}") from exc
        del text  # a load should not hold the file's text and its rows at once
        try:
            graph = cls.from_json_obj(obj, chunk_texts)
            if escaped:
                names = ((f"graph node {i} name", name) for i, name in enumerate(obj["nodes"]))
                # Chunk ids name stored chunks, whose ids chunks.jsonl's reader checked.
                relations = ((f"graph relations[{i}]", label) for i, label in enumerate(obj["relations"]))
                if problem := lone_surrogate(chain(names, relations)):
                    raise StoreCorruptError(problem)
        except StoreCorruptError as exc:
            raise StoreCorruptError(f"{path}: {exc}") from exc
        return graph


def _shared_ids(lists: list[list[str]]) -> list[str]:
    """The ids two or more of the sorted, repeat-free ``lists`` hold, by (lists holding it descending, id).

    Only the ids of the lists other than the largest are counted; each is
    then looked up in the largest by bisection.
    """
    k = max(range(len(lists)), key=lambda i: len(lists[i]))
    largest = lists[k]
    counts = Counter(chain.from_iterable(lists[:k] + lists[k + 1 :]))
    for chunk_id in counts:
        i = bisect_left(largest, chunk_id)
        counts[chunk_id] += i < len(largest) and largest[i] == chunk_id
    return [chunk_id for _, chunk_id in sorted((-n, chunk_id) for chunk_id, n in counts.items() if n > 1)]


def _edge_columns(columns: list, bounds: tuple[int, ...]) -> np.ndarray:
    """``graph.json`` edge columns as one (4, edges) int32 array; raises StoreCorruptError naming the first fault.

    Four lists of equal length, of ints only (``true`` and ``1.0`` fail), each
    in ``[0, bound)`` of its column, listing strictly ascending edges: checked
    in that order, the first failed check naming its first bad edge and column.
    """
    layout = "graph edges are not the four columns [sources, targets, relations, chunks]"
    for k, column in enumerate(EDGE_COLUMNS):
        if k >= len(columns):
            raise StoreCorruptError(f"{layout}: column {k} ({column}) is missing")
        if type(columns[k]) is not list:
            raise StoreCorruptError(f"{layout}: column {k} ({column}) is not a list")
    if len(columns) > 4:
        raise StoreCorruptError(f"{layout}: there are {len(columns)} columns")
    lengths = list(map(len, columns))
    if min(lengths) != max(lengths):
        short, long = lengths.index(min(lengths)), lengths.index(max(lengths))
        missing = f"{EDGE_COLUMNS[short]}[{lengths[short]}] is missing"
        raise StoreCorruptError(f"graph edge {missing}: {EDGE_COLUMNS[long]} holds {lengths[long]} edges")
    if all({*map(type, column)} <= {int} for column in columns):
        try:
            array = np.array(columns, np.int64)
            bad = (array < 0) | (array >= np.array(bounds)[:, None])
        except OverflowError:  # a value past int64, so out of range; compare as Python ints
            array = np.array(columns, object)
            bad = ((array < 0) | (array >= np.array(bounds, object)[:, None])).astype(bool)
    else:
        bad = np.array([[*map(type, column)] for column in columns], object) != int
    if bad.any():
        i = np.flatnonzero(bad.any(axis=0))[0]
        k = np.flatnonzero(bad[:, i])[0]
        what = "a node id" if k < 2 else f"an index of the {EDGE_COLUMNS[k]} table"
        raise StoreCorruptError(f"graph edge {EDGE_COLUMNS[k]}[{i}] is {columns[k][i]!r}, not {what} in [0, {bounds[k]})")
    array = array.astype(np.int32)
    steps = np.diff(array, axis=1)
    first = (steps != 0).argmax(axis=0)  # the first column where each edge differs from the one before
    step = np.take_along_axis(steps, first[None], axis=0)[0]
    if (step <= 0).any():
        i = np.flatnonzero(step <= 0)[0] + 1
        if step[i - 1] == 0:
            raise StoreCorruptError(f"graph edge {i} repeats edge {i - 1}: edges must be sorted and unique")
        raise StoreCorruptError(
            f"graph edge {EDGE_COLUMNS[first[i - 1]]}[{i}] sorts before edge {i - 1}: edges must be sorted and unique"
        )
    return array

"""Knowledge graph: entity nodes with provenance chunk ids, labeled edges.

Nodes merge on the normalized entity name; every node keeps the ids of the
chunks its triples came from, read through the graph's one chunk_id -> text
map, so a traversal can hand back both structure and supporting context. A
node's id is its position in the node list. An edge is the plain tuple
``(source, target, relation, provenance)``, node ids then labels, so edges
sort plainly. A build collects edges in a set; ``seal`` puts the graph in
canonical form, once, for a build and a load alike: one sorted edge list,
and each node's contexts, its edges' distinct provenances, ascending. A
node's distinct neighbour ids in both directions, ascending, are derived
the first time a traversal expands it: its targets from its source range of
the edge list, its sources from its range of one target-ordered copy of
that list, which the first traversal sorts in C. A traversal is a seeded
breadth-first expansion that merges the frontier's neighbour lists lazily,
bounded by hop count and node budget, so a hub costs what the budget
admits, not its parallel edges. A neighborhood is its admitted nodes and
their hops; the edges it induces are only ever collected, when first read,
from each admitted node's source range of the edge list. It renders as text
within a token budget: its context chunks first, those the seed nodes share
most ahead, merged lazily from the sorted context lists, then its edges, so
a hub seed costs what the budget keeps, and a render cut inside the
contexts never collects the edges at all. Same lifecycle as the vector
store: single-writer build (or load), seal, then lock-free concurrent
reads. ``export`` writes the store's ``graph.json``: each node's name (its
id is its position) and the sorted edges as four columns, ``[sources,
targets, relations, provenances]``; no contexts, which ``seal`` derives. A
load checks the columns whole, in C, and zips them back into the sorted
list of tuples.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator, Set
from dataclasses import dataclass, field
from functools import cached_property
from heapq import merge
from itertools import chain, filterfalse, islice
from operator import itemgetter, lt
from pathlib import Path

from .corpus import holds_escape, lone_surrogate
from .extraction import EntityMention, Triple, normalize_entity
from .exceptions import InputError, StoreCorruptError

MIN_PREFIX_LEN = 3
DEFAULT_HOPS = 2
DEFAULT_MAX_NODES = 50
DEFAULT_MAX_STRUCTURED_TOKENS = 1024

# The one graph.json writer: compact, non-ASCII kept, run by the C encoder.
_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


@dataclass
class EntityNode:
    name: str  # canonical = first surface seen
    contexts: list[str] = field(default_factory=list)  # its edges' provenance chunk ids, ascending, each once; set by seal


# The graph.json edge columns, in edge field order.
EDGE_COLUMNS = ("sources", "targets", "relations", "provenances")
_source = itemgetter(0)
_target = itemgetter(1)


class Subgraph:
    """Admitted nodes by id, each node's hop, and the edges induced on them.

    ``edges`` is collected on first read, from each admitted node's range of
    the graph's sorted edge list as a source, and kept.
    """

    __slots__ = ("nodes", "hop_of", "_edges", "_graph_edges")

    def __init__(self, nodes: dict[int, EntityNode], *, hop_of: dict[int, int], graph_edges: list[tuple]) -> None:
        self.nodes = nodes
        self.hop_of = hop_of
        self._edges: set[tuple] | None = None
        self._graph_edges = graph_edges

    @property
    def edges(self) -> set[tuple]:
        if self._edges is None:
            hop_of, edges = self.hop_of, self._graph_edges
            induced = set()
            for node in hop_of:
                start = bisect_left(edges, node, key=_source)
                stop = bisect_left(edges, node + 1, start, key=_source)
                induced.update(e for e in edges[start:stop] if e[1] in hop_of)
            self._edges = induced
        return self._edges


class _NeighbourLists(dict):
    """Node id -> its distinct neighbour ids in both directions, ascending, each derived on first read.

    A node's targets are its source range of the sorted edge list; its
    sources are its target range of ``_by_target``, the same edges stably
    sorted by target in one C call, so they ascend too. Both ranges are
    found by bisection, and one sort of the union gives the list, a
    neighbour on both sides or a self-loop once. A derived list is kept, so
    a later read is the C ``dict.__getitem__``; two readers that miss the
    same node derive the same list, so concurrent reads need no lock.
    """

    __slots__ = ("_edges", "_by_target")

    def __init__(self, edges: list[tuple]) -> None:
        super().__init__()
        self._edges = edges
        self._by_target = sorted(edges, key=_target)

    def __missing__(self, node: int) -> list[int]:
        edges, by_target = self._edges, self._by_target
        start = bisect_left(edges, node, key=_source)
        stop = bisect_left(edges, node + 1, start, key=_source)
        first = bisect_left(by_target, node, key=_target)
        last = bisect_left(by_target, node + 1, first, key=_target)
        ids = self[node] = sorted({*map(_target, edges[start:stop]), *map(_source, by_target[first:last])})
        return ids


class KnowledgeGraph:
    def __init__(self, chunk_texts: dict[str, str]) -> None:
        self._chunk_texts = chunk_texts  # semantic chunk id -> text, shared by every node
        self._nodes: list[EntityNode] = []
        self._by_normalized: dict[str, int] = {}
        self._edges: set[tuple] | list[tuple] = set()  # a build's dedup set; sorted into one list at seal
        self._sealed = False

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def node(self, node_id: int) -> EntityNode:
        return self._nodes[node_id]

    def seal(self) -> None:
        """Freeze the graph: sort a build's edge set into the edge list, and derive each node's contexts.

        A node's contexts, its edges' distinct provenances ascending, are
        made here only, for a build and a load alike. Each edge was checked
        as it entered, by ``upsert_triple`` or by ``from_json_obj``. Neighbour
        lists wait for a traversal, which a build never makes. A second seal does nothing.
        """
        if self._sealed:
            return
        if type(self._edges) is set:
            self._edges = sorted(self._edges)
        provenances: list[list[str]] = [[] for _ in self._nodes]
        for source, target, _, provenance in self._edges:
            provenances[source].append(provenance)
            provenances[target].append(provenance)
        for node, ids in zip(self._nodes, provenances):
            node.contexts = sorted(set(ids))
        self._sealed = True

    @cached_property
    def _neighbours(self) -> _NeighbourLists:
        """Node id -> its distinct neighbour ids in both directions, ascending, each list derived on first read."""
        return _NeighbourLists(self._edges)

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
            node_id = len(self._nodes)
            self._nodes.append(EntityNode(name=surface))
            self._by_normalized[normalized] = node_id
        return node_id

    def upsert_triple(self, triple: Triple) -> tuple[int, int]:
        """Merge a triple into the graph; returns (source, target) node ids.

        Endpoint nodes are resolved or created by normalized name, and the
        edge enters the build's set; ``seal`` derives the nodes' contexts from
        the edges. A relation or provenance that is not a string raises
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
            return Subgraph(nodes={}, hop_of={}, graph_edges=self._edges)

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

        nodes = {nid: self._nodes[nid] for nid in hop_of}
        return Subgraph(nodes=nodes, hop_of=hop_of, graph_edges=self._edges)

    # -- rendering and export ------------------------------------------------

    def render_subgraph(
        self, sub: Subgraph, max_tokens: int = DEFAULT_MAX_STRUCTURED_TOKENS, *, kept: dict | None = None
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
        each section) and ``tokens`` (the tokens rendered).
        """
        lines: list[str] = []
        counts = {"context_lines": 0, "edge_lines": 0}
        used = 0
        for section, line in self._lines(sub):
            cost = len(line.split())
            if used + cost > max_tokens:
                break
            used += cost
            lines.append(line)
            counts[section] += 1
        if kept is not None:
            kept.update(counts, tokens=used)
        return "\n".join(lines)

    def _lines(self, sub: Subgraph) -> Iterator[tuple[str, str]]:
        """Every line of the unbounded render, lazily, as (section, line) pairs.

        Context chunks are ordered by the number of seed (hop 0) nodes whose
        contexts name them, descending, then by their least hop, then by
        chunk id; each appears once. Edge lines follow in (hop of source,
        source name, relation, target name) order. The first context line
        carries the ``Contexts:`` header and the first edge line, after any
        context, the blank line.
        """
        header = "Contexts:\n"
        for chunk_id in self._context_order(sub):
            yield "context_lines", f"{header}- {self._chunk_texts[chunk_id]}"
            header = ""
        edge_keys = sorted(
            (sub.hop_of[source], sub.nodes[source].name, relation, sub.nodes[target].name)
            for source, target, relation, _ in sub.edges
        )
        separator = "" if header else "\n"
        for _, source, relation, target in edge_keys:
            yield "edge_lines", f"{separator}{source} -[{relation}]-> {target}"
            separator = ""

    def _context_order(self, sub: Subgraph) -> Iterator[str]:
        """Context chunk ids in render order, one hop level at a time, from the nodes' sorted contexts.

        A level's chunks are those its nodes name and no lower level did, so
        their least hop is the level's. Hop 0 yields the ids several seeds
        share first (``_shared_ids``); every level then yields the rest
        ascending, from its one list or a lazy merge, so a reader that stops
        early, or before a later level, never reads the rest.
        """
        levels: dict[int, list[list[str]]] = {}
        for node_id, hop in sub.hop_of.items():
            levels.setdefault(hop, []).append(sub.nodes[node_id].contexts)
        seen: set[str] = set()
        for hop in sorted(levels):
            lists = levels[hop]
            if hop == 0 and len(lists) > 1:
                shared = _shared_ids(lists)
                seen.update(shared)
                yield from shared
            for chunk_id in filterfalse(seen.__contains__, lists[0] if len(lists) == 1 else merge(*lists)):
                seen.add(chunk_id)
                yield chunk_id

    def to_json_obj(self) -> dict:
        """The sealed graph as ``graph.json`` holds it: the name of each node id, then the four edge columns."""
        if not self._sealed:
            raise ValueError("seal the graph before exporting")
        return {
            "nodes": [node.name for node in self._nodes],
            "edges": list(map(list, zip(*self._edges))) or [[], [], [], []],
        }

    def to_dot(self) -> str:
        if not self._sealed:
            raise ValueError("seal the graph before exporting")

        def esc(text: str) -> str:
            return text.replace("\\", "\\\\").replace('"', '\\"')

        lines = ["digraph knowledge_graph {"]
        for node_id, node in enumerate(self._nodes):
            lines.append(f'  n{node_id} [label="{esc(node.name)}"];')
        for source, target, relation, _ in self._edges:
            lines.append(f'  n{source} -> n{target} [label="{esc(relation)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def export(self, path: str | Path, fmt: str = "json") -> None:
        if not self._sealed:
            raise ValueError("seal the graph before exporting")
        path = Path(path)
        if fmt == "json":
            payload = _encode(self.to_json_obj()) + "\n"
        elif fmt == "dot":
            payload = self.to_dot()
        else:
            raise ValueError(f"unknown export format {fmt!r}")
        try:
            path.write_text(payload, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write graph export to {path}: {exc}") from exc

    @classmethod
    def from_json_obj(cls, obj: dict, chunk_texts: dict[str, str]) -> "KnowledgeGraph":
        """Rebuild a sealed graph from the ``graph.json`` layout; raises StoreCorruptError.

        Node ``i`` is the ``i``-th name, a string that no earlier name
        normalizes alike (``_resolve`` would give it the earlier id); the
        first bad node raises, naming its index. The edges are four columns
        of equal length, ``EDGE_COLUMNS``: sources and targets are node ids,
        relations strings, provenances keys of ``chunk_texts`` (the graph's
        chunk id -> text map), and the zipped edges strictly ascend, as
        ``export`` writes them, so the list needs no dedup and no sort. The
        columns are checked whole, in C (``_column_edges``); only when a
        check fails does ``_edge_fault`` walk them to name the first bad
        column and index. ``seal`` then derives the contexts, as for a build.
        """
        if type(obj) is not dict or type(obj.get("nodes")) is not list or type(obj.get("edges")) is not list:
            raise StoreCorruptError("malformed graph: not an object of a 'nodes' list and an 'edges' list")
        graph = cls(chunk_texts)
        for node_id, name in enumerate(obj["nodes"]):
            if type(name) is not str:
                raise StoreCorruptError(f"graph node {node_id} is a {type(name).__name__}, not a name string")
            if graph._resolve(name) != node_id:
                raise StoreCorruptError(f"graph node {node_id} repeats an earlier node's name: {name!r}")
        n, known = len(graph), chunk_texts.keys()
        edges = _column_edges(obj["edges"], n, known)
        if edges is None:
            raise StoreCorruptError(_edge_fault(obj["edges"], n, known))
        graph._edges = edges
        graph.seal()
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
                # Provenances name stored chunks, whose ids chunks.jsonl's reader checked.
                relations = ((f"graph edge relations[{i}]", label) for i, label in enumerate(obj["edges"][2]))
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


def _column_edges(columns: list, n: int, known: Set[str]) -> list[tuple] | None:
    """The edges of ``graph.json`` edge columns that pass ``from_json_obj``'s rules, each checked in C; else None.

    The graph has ``n`` nodes, and ``known`` holds the stored chunk ids, which
    every provenance must be. ``_edge_fault`` walks the same rules one value at a time.
    """
    if len(columns) != 4 or not all(type(column) is list for column in columns):
        return None
    sources, targets, relations, provenances = columns
    if not (
        len(sources) == len(targets) == len(relations) == len(provenances)
        and {*map(type, sources), *map(type, targets)} <= {int}
        and {*map(type, relations), *map(type, provenances)} <= {str}
        and set(provenances) <= known
        and (not sources or -1 < min(min(sources), min(targets)) and max(max(sources), max(targets)) < n)
    ):
        return None
    edges = list(zip(*columns))
    return edges if all(map(lt, edges, islice(edges, 1, None))) else None


def _edge_fault(columns: list, n: int, known: Set[str]) -> str:
    """Why ``graph.json`` edge columns that ``_column_edges`` rejected are bad, naming the first bad column and index."""
    layout = "graph edges are not the four columns [sources, targets, relations, provenances]"
    for k, column in enumerate(EDGE_COLUMNS):
        if k >= len(columns):
            return f"{layout}: column {k} ({column}) is missing"
        if type(columns[k]) is not list:
            return f"{layout}: column {k} ({column}) is not a list"
    if len(columns) > 4:
        return f"{layout}: there are {len(columns)} columns"
    lengths = list(map(len, columns))
    if min(lengths) != max(lengths):
        short, long = lengths.index(min(lengths)), lengths.index(max(lengths))
        return (
            f"graph edge {EDGE_COLUMNS[short]}[{lengths[short]}] is missing: "
            f"{EDGE_COLUMNS[long]} holds {lengths[long]} edges"
        )
    previous = None
    for i, edge in enumerate(zip(*columns)):
        for column, value in zip(EDGE_COLUMNS[:2], edge[:2]):
            if not (type(value) is int and -1 < value < n):
                return f"graph edge {column}[{i}] is {value!r}, not a node id in [0, {n})"
        for column, value in zip(EDGE_COLUMNS[2:], edge[2:]):
            if type(value) is not str:
                return f"graph edge {column}[{i}] is {value!r}, not a string"
        if edge[3] not in known:
            return f"graph edge provenances[{i}] is {edge[3]!r}, which names no stored chunk"
        if previous is not None and not previous < edge:
            if previous == edge:
                return f"graph edge {i} repeats edge {i - 1}: edges must be sorted and unique"
            column = next(c for c, a, b in zip(EDGE_COLUMNS, previous, edge) if a != b)
            return f"graph edge {column}[{i}] sorts before edge {i - 1}: edges must be sorted and unique"
        previous = edge
    raise AssertionError("_column_edges rejected edge columns in which _edge_fault finds no fault")

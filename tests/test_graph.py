from __future__ import annotations

import json
import random
import re
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kgrag.exceptions import StoreCorruptError
from kgrag.extraction import EntityMention, Triple, normalize_entity
from kgrag.graph import EDGE_COLUMNS, MIN_PREFIX_LEN, KnowledgeGraph, Subgraph, _encode
from kgrag.lexical import content_tokens
from kgrag.pipeline import build_store, open_store, run_query
from kgrag.retriever import QueryConfig, retrieve_unstructured

from helpers import EDGE_LAYOUT, graph_object, set_graph_field, tuple_edges


def mention(text: str) -> EntityMention:
    return EntityMention(surface=text, normalized=text.lower())


def triple(s: str, r: str, o: str, prov: str = "c0") -> Triple:
    return Triple(subject=s, relation=r, object=o, provenance=prov)


def chain_graph() -> KnowledgeGraph:
    graph = KnowledgeGraph({"c0": "ctx-ab", "c1": "ctx-bc"})
    graph.upsert_triple(triple("a", "r1", "b"))
    graph.upsert_triple(triple("b", "r2", "c", prov="c1"))
    graph.seal()
    return graph


class TestUpsert:
    def test_shared_subject_merges(self):
        graph = KnowledgeGraph({"c0": "s"})
        graph.upsert_triple(triple("rome", "capital_of", "italy"))
        graph.upsert_triple(triple("Rome", "hosts", "vatican"))
        graph.seal()
        assert len(graph) == 3  # rome, italy, vatican
        assert graph.edge_count == 2
        assert graph.name(0) == "rome"  # first surface seen wins

    @pytest.mark.parametrize("first, later", [("rome", "  Rome,"), ("  Rome,", "rome"), ("rome", "rome")])
    def test_surface_resolves_to_the_node_of_its_normalized_name(self, first, later):
        graph = KnowledgeGraph({"c0": "s", "c1": "t"})
        source, _ = graph.upsert_triple(triple(first, "in", "italy"))
        again, _ = graph.upsert_triple(triple(later, "near", "ostia", prov="c1"))
        assert again == source and len(graph) == 3
        with pytest.raises(ValueError, match="must be sealed"):
            graph.contexts(source)
        graph.seal()
        assert graph.name(source) == first  # first surface seen wins
        assert graph.contexts(source) == ["c0", "c1"]

    def test_identical_triple_dedup(self):
        graph = KnowledgeGraph({"c0": "ctx"})
        for _ in range(2):
            graph.upsert_triple(triple("a", "r", "b"))
        assert graph.edge_count == 1

    def test_chain_counts(self):
        graph = chain_graph()
        assert len(graph) == 3
        assert graph.edge_count == 2

    def test_empty_endpoint_rejected(self):
        graph = KnowledgeGraph({"c0": "ctx"})
        with pytest.raises(ValueError):
            graph.upsert_triple(triple("", "r", "b"))
        with pytest.raises(ValueError):
            graph.upsert_triple(triple("a", "r", "  "))

    def test_context_dedup_by_chunk_id(self):
        graph = KnowledgeGraph({"c0": "snippet one", "c1": "snippet two"})
        graph.upsert_triple(triple("a", "r", "b", prov="c1"))
        graph.upsert_triple(triple("a", "r2", "b", prov="c0"))
        graph.upsert_triple(triple("a", "r3", "b", prov="c1"))
        graph.seal()
        assert graph.contexts(0) == graph.contexts(1) == ["c0", "c1"]  # ascending, each once
        text = graph.render_subgraph(graph.neighborhood({0}, hops=1))
        assert text.startswith("Contexts:\n- snippet one\n- snippet two\n\n")

    def test_non_string_label_rejected_before_any_change(self):
        graph = KnowledgeGraph({"c0": "ctx"})
        graph.upsert_triple(triple("a", "r", "b"))

        def state():
            return list(graph._names), set(graph._edges)

        before = state()
        for bad in (Triple("a", 5, "c"), Triple("c", None, "d"), Triple("c", "r", "d", 5), Triple("a", "r", "b", None)):
            with pytest.raises(ValueError, match="relation and provenance must be strings"):
                graph.upsert_triple(bad)
            assert state() == before and len(graph) == 2 and graph.edge_count == 1

    def test_upsert_after_seal_rejected(self):
        graph = chain_graph()
        with pytest.raises(ValueError, match="sealed"):
            graph.upsert_triple(triple("x", "r", "y"))

    def test_build_order_insensitive_node_and_edge_sets(self):
        triples = [
            triple("a", "r1", "b"),
            triple("b", "r2", "c"),
            triple("c", "r3", "a"),
            triple("a", "r4", "c"),
        ]
        baselines = None
        for seed in range(4):
            shuffled = triples[:]
            random.Random(seed).shuffle(shuffled)
            graph = KnowledgeGraph({"c0": "ctx"})
            for t in shuffled:
                graph.upsert_triple(t)
            graph.seal()
            names = {graph.name(i) for i in range(len(graph))}
            obj = graph.to_json_obj()
            id_to_name = obj["nodes"]
            edges = {(id_to_name[s], r, id_to_name[t]) for s, t, r, _ in tuple_edges(obj)}
            if baselines is None:
                baselines = (names, edges)
            else:
                assert (names, edges) == baselines


def pair_set_upsert(triples: list[Triple]) -> tuple[list[str], list[list[str]], set[tuple]]:
    """Names, contexts and edges as the ``(node id, chunk id)`` pair-set upsert kept them."""
    by_normalized: dict[str, int] = {}
    names: list[str] = []
    contexts: list[list[str]] = []
    edges: set[tuple] = set()
    pairs: set[tuple[int, str]] = set()
    for t in triples:
        ends = []
        for surface in (t.subject, t.object):
            key = normalize_entity(surface)
            if key not in by_normalized:
                by_normalized[key] = len(names)
                names.append(surface)
                contexts.append([])
            ends.append(by_normalized[key])
        edges.add((ends[0], ends[1], t.relation, t.provenance))
        for node_id in ends:
            if (node_id, t.provenance) not in pairs:
                pairs.add((node_id, t.provenance))
                contexts[node_id].append(t.provenance)
    return names, contexts, edges


_UPSERT_CHUNKS = ["c0", "c1", "c2", "c3"]
_upsert_triples = st.lists(
    st.builds(
        Triple,
        st.sampled_from(["rome", "Rome", " Rome,", "italy", "lazio", "a"]),
        st.sampled_from(["in", "near", "r"]),
        st.sampled_from(["italy", "Italy.", "rome", "ostia", "a"]),
        st.sampled_from(_UPSERT_CHUNKS),
    ),
    max_size=40,
)


class TestUpsertPairSetReference:
    @given(_upsert_triples)
    @example([triple("a", "r", "b", "c1"), triple("a", "r", "c", "c2"), triple("c", "r", "a", "c1")])
    @example([triple("a", "r", "a", "c1"), triple("b", "r", "a", "c2"), triple("a", "s", "a", "c1")])
    def test_contexts_edges_and_export_equal_the_pair_set(self, triples):
        graph = KnowledgeGraph({cid: f"text of {cid}" for cid in _UPSERT_CHUNKS})
        for t in triples:
            graph.upsert_triple(t)
        graph.seal()
        names, contexts, edges = pair_set_upsert(triples)
        contexts = [sorted(ids) for ids in contexts]  # seal sorts what the pair set kept first seen first
        assert [(graph.name(i), graph.contexts(i)) for i in range(len(graph))] == list(zip(names, contexts))
        assert set(graph_edges(graph)) == edges
        assert export_bytes(graph) == compact_dumps(graph_object(names, edges))

    def test_interleaved_chunks_ascend_after_seal(self):
        graph = KnowledgeGraph({"c1": "one", "c2": "two"})
        graph.upsert_triple(triple("a", "r", "b", "c1"))
        graph.upsert_triple(triple("a", "r", "c", "c2"))
        graph.upsert_triple(triple("c", "r", "a", "c1"))  # c meets c2, then c1
        graph.seal()
        assert [graph.contexts(i) for i in range(3)] == [["c1", "c2"], ["c1"], ["c1", "c2"]]


# A document's semantic chunk ids in the order a build meets them; as strings "d#s10" sorts first.
DOC_ORDER_CHUNKS = [f"d#s{i}" for i in range(2, 11)]
doc_order_rows = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d", "e"]),
        st.sampled_from(["r", "s"]),
        st.sampled_from(["a", "b", "c", "d", "e"]),
        st.sampled_from(DOC_ORDER_CHUNKS),
    ),
    max_size=40,
)


class TestContextsAscendAfterSeal:
    @given(doc_order_rows, st.booleans())
    @example([("a", "r", "b", cid) for cid in DOC_ORDER_CHUNKS], True)
    @example([("a", "r", "b", "d#s2"), ("c", "r", "a", "d#s10"), ("a", "s", "c", "d#s2")], False)
    def test_contexts_ascend_once_and_round_trip(self, rows, in_doc_order):
        if in_doc_order:  # the order a build walks one document's chunks, interleaved across nodes
            rows = sorted(rows, key=lambda row: DOC_ORDER_CHUNKS.index(row[3]))
        texts = {cid: f"text of {cid}" for cid in DOC_ORDER_CHUNKS}
        built = KnowledgeGraph(texts)
        named: dict[str, set[str]] = {}
        for s, r, o, prov in rows:
            built.upsert_triple(triple(s, r, o, prov))
            for name in (s, o):
                named.setdefault(name, set()).add(prov)
        built.seal()
        for node_id in range(len(built)):
            contexts = built.contexts(node_id)
            assert contexts == sorted(named[built.name(node_id)])  # every chunk the node met, ascending, once
        written = export_bytes(built)
        loaded = KnowledgeGraph.from_json_obj(json.loads(written), texts)
        assert node_contexts(loaded) == node_contexts(built)
        assert export_bytes(loaded) == written


class TestMatchEntities:
    def graph(self) -> KnowledgeGraph:
        graph = KnowledgeGraph({"c0": "ctx"})
        graph.upsert_triple(triple("Italy", "has_region", "Tuscany"))
        graph.upsert_triple(triple("Italian Cuisine", "uses", "Olive Oil"))
        graph.seal()
        return graph

    def test_exact_case_folded(self):
        graph = self.graph()
        assert graph.match_entities([mention("Italy")]) == {0}

    def test_unique_prefix(self):
        graph = KnowledgeGraph({"c0": "ctx"})
        graph.upsert_triple(triple("italy", "r", "france"))
        graph.seal()
        assert graph.match_entities([mention("Ital")]) == {0}

    def test_ambiguous_prefix_no_match(self):
        graph = self.graph()  # both "italy" and "italian cuisine" start with "ital"
        assert graph.match_entities([mention("Ital")]) == set()

    def test_node_prefix_of_mention(self):
        graph = KnowledgeGraph({"c0": "ctx"})
        graph.upsert_triple(triple("parmigiano", "r", "parma"))
        graph.seal()
        assert graph.match_entities([mention("parmigiano reggiano wheel")]) == {0}

    def test_short_prefix_rejected(self):
        graph = KnowledgeGraph({"c0": "ctx"})
        graph.upsert_triple(triple("italy", "r", "france"))
        graph.seal()
        assert graph.match_entities([mention("it")]) == set()

    def test_unmatched_dropped(self):
        graph = self.graph()
        assert graph.match_entities([mention("Atlantis"), mention("Italy")]) == {0}


def linear_scan_match(graph: KnowledgeGraph, m: str) -> set[int]:
    """The reference rule: exact name, else the one name that is a prefix of m or has m as one."""
    if m in graph._by_normalized:
        return {graph._by_normalized[m]}
    candidates = [
        nid
        for norm, nid in graph._by_normalized.items()
        if (len(m) >= MIN_PREFIX_LEN and norm.startswith(m)) or (len(norm) >= MIN_PREFIX_LEN and m.startswith(norm))
    ]
    return set(candidates) if len(candidates) == 1 else set()


def graph_of_names(names: list[str]) -> KnowledgeGraph:
    graph = KnowledgeGraph({"c0": "ctx"})
    for name in names:
        graph.upsert_triple(triple(name, "r", name))
    graph.seal()
    return graph


class TestPrefixMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.text("ab", min_size=1, max_size=6), max_size=12),
        st.lists(st.text("ab", max_size=8), max_size=6),
    )
    @example(["abab", "abaa"], ["aba"])  # ambiguous prefix
    @example(["ab", "b"], ["abb", "ab", "bb"])  # names shorter than MIN_PREFIX_LEN
    @example(["aba", "ababa"], ["abab"])  # the mention has a prefix and is one
    @example(["aba", "abb"], ["abab", "abbb", "ab"])
    def test_matches_linear_scan(self, names, mentions):
        graph = graph_of_names(names)
        for m in mentions:
            assert graph.match_entities([mention(m)]) == linear_scan_match(graph, m)
        assert graph.match_entities([mention(m) for m in mentions]) == set().union(
            *(linear_scan_match(graph, m) for m in mentions)
        )


class TestNeighborhood:
    def test_one_hop(self):
        graph = chain_graph()
        sub = graph.neighborhood({0}, hops=1)
        assert set(sub.nodes) == {0, 1}
        assert {(source, target) for source, target, _, _ in sub.edges} == {(0, 1)}
        assert sub.nodes == {0: 0, 1: 1}

    def test_two_hops(self):
        graph = chain_graph()
        sub = graph.neighborhood({0}, hops=2)
        assert set(sub.nodes) == {0, 1, 2}
        assert {(source, target) for source, target, _, _ in sub.edges} == {(0, 1), (1, 2)}
        assert sub.nodes[2] == 2

    def test_hops_beyond_closure(self):
        graph = chain_graph()
        assert set(graph.neighborhood({0}, hops=3).nodes) == set(
            graph.neighborhood({0}, hops=2).nodes
        )

    def test_reverse_direction_traversal(self):
        graph = chain_graph()
        sub = graph.neighborhood({2}, hops=2)
        assert set(sub.nodes) == {0, 1, 2}

    def test_empty_seeds(self):
        graph = chain_graph()
        sub = graph.neighborhood(set(), hops=2)
        assert not sub.nodes and not sub.edges

    def test_monotone_in_hops(self):
        graph = KnowledgeGraph({"c0": "ctx"})
        rng = random.Random(2)
        names = [f"n{i}" for i in range(20)]
        for _ in range(30):
            a, b = rng.sample(names, 2)
            graph.upsert_triple(triple(a, "rel", b))
        graph.seal()
        for h in range(1, 4):
            smaller = set(graph.neighborhood({0}, hops=h, max_nodes=10_000).nodes)
            larger = set(graph.neighborhood({0}, hops=h + 1, max_nodes=10_000).nodes)
            assert smaller <= larger

    def test_hop_bound_respected(self):
        graph = chain_graph()
        sub = graph.neighborhood({0}, hops=2)
        assert all(h <= 2 for h in sub.nodes.values())

    @pytest.mark.parametrize("kwargs", [{"hops": 0}, {"max_nodes": 0}, {"max_nodes": -1}])
    def test_bound_below_one_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be >= 1"):
            chain_graph().neighborhood({0}, **kwargs)

    def test_max_nodes_admits_ascending_ids(self):
        graph = KnowledgeGraph({"c0": "ctx"})
        for leaf in ("m", "k", "z", "b", "q"):
            graph.upsert_triple(triple("hub", "points_to", leaf))
        graph.seal()
        sub = graph.neighborhood({0}, hops=1, max_nodes=3)
        # hub is node 0; leaves get ids 1.. in insertion order; lowest ids win
        assert set(sub.nodes) == {0, 1, 2}


def reference_neighborhood(graph: KnowledgeGraph, seeds: set[int], hops: int, max_nodes: int) -> SimpleNamespace:
    """The O(E) form: BFS over adjacency sets, then edges induced by scanning every edge.

    Returns the ``nodes`` (id -> hop) and ``edges`` a ``Subgraph`` reads as, in a namespace.
    """
    edges = set(graph_edges(graph))
    adjacency: dict[int, set[int]] = {nid: set() for nid in range(len(graph))}
    for source, target, _, _ in edges:
        adjacency[source].add(target)
        adjacency[target].add(source)
    if not seeds:
        return SimpleNamespace(nodes={}, edges=set())
    hop_of = {seed: 0 for seed in sorted(seeds)}
    frontier = sorted(seeds)
    for depth in range(1, hops + 1):
        if len(hop_of) >= max_nodes:
            break
        next_frontier = sorted({n for node in frontier for n in adjacency[node] if n not in hop_of})
        if not next_frontier:
            break
        admitted = []
        for node in next_frontier:
            if len(hop_of) >= max_nodes:
                break
            hop_of[node] = depth
            admitted.append(node)
        frontier = admitted
    induced = {e for e in edges if e[0] in hop_of and e[1] in hop_of}
    return SimpleNamespace(nodes=hop_of, edges=induced)


def graph_edges(graph: KnowledgeGraph) -> list[tuple]:
    """A sealed graph's edges in column order, as ``(source, target, relation, provenance)`` tuples."""
    return tuple_edges(graph.to_json_obj())


def neighbour_reference(graph: KnowledgeGraph) -> list[list[int]]:
    """Each node's distinct neighbours in both directions, ascending, from a set per node over the graph's edges."""
    adjacency: list[set[int]] = [set() for _ in range(len(graph))]
    for source, target, _, _ in graph_edges(graph):
        adjacency[source].add(target)
        adjacency[target].add(source)
    return [sorted(ids) for ids in adjacency]


def sorted_contexts_reference(graph: KnowledgeGraph) -> list[list[str]]:
    """Each node's context ids as a built graph holds them: its edges' provenances, ascending, once."""
    provenances: list[set[str]] = [set() for _ in range(len(graph))]
    for source, target, _, provenance in graph_edges(graph):
        provenances[source].add(provenance)
        provenances[target].add(provenance)
    return [sorted(ids) for ids in provenances]


def node_contexts(graph: KnowledgeGraph) -> list[list[str]]:
    return [graph.contexts(node_id) for node_id in range(len(graph))]


small_triples = st.lists(
    st.tuples(
        st.sampled_from([f"n{i}" for i in range(8)]),
        st.sampled_from(["r1", "r2", "r3"]),
        st.sampled_from([f"n{i}" for i in range(8)]),  # same name as the subject makes a self-loop
        st.sampled_from(["c0", "c1", "c2"]),
    ),
    min_size=1,
    max_size=30,
)

# Node n0 takes chunk c0, then c1, then c0 again through another edge.
OUT_OF_ORDER_REPEAT = [("n0", "r1", "n1", "c0"), ("n0", "r1", "n2", "c1"), ("n1", "r2", "n0", "c0")]


class TestNeighborhoodReference:
    @settings(max_examples=200, deadline=None)
    @given(
        small_triples,
        st.sets(st.integers(0, 7), max_size=3),
        st.integers(1, 3),
        st.integers(1, 10),
    )
    @example(OUT_OF_ORDER_REPEAT, {0}, 2, 10)
    def test_matches_adjacency_bfs_and_full_edge_scan(self, triples, seeds, hops, max_nodes):
        texts = {f"c{i}": f"ctx c{i}" for i in range(3)}
        graph = KnowledgeGraph(texts)
        for s, r, o, prov in triples:
            graph.upsert_triple(triple(s, r, o, prov))
        graph.seal()
        columns, neighbours = graph._columns, graph._neighbours
        graph.seal()  # sealing twice must not change the columns or the lists derived from them
        assert graph._columns is columns and graph_edges(graph) == sorted(graph_edges(graph))
        assert graph._neighbours is neighbours
        assert [neighbours[i] for i in range(len(graph))] == neighbour_reference(graph)
        assert node_contexts(graph) == sorted_contexts_reference(graph)
        seeds = {seed for seed in seeds if seed < len(graph)}
        loaded = KnowledgeGraph.from_json_obj(graph.to_json_obj(), texts)
        for g in (graph, loaded):
            sub = g.neighborhood(seeds, hops=hops, max_nodes=max_nodes)
            ref = reference_neighborhood(g, seeds, hops, max_nodes)
            assert list(sub.nodes.items()) == list(ref.nodes.items())
            assert sub.edges == ref.edges
            assert g.render_subgraph(sub) == g.render_subgraph(ref)


class TestRender:
    def test_empty_subgraph_empty_string(self):
        graph = chain_graph()
        assert graph.render_subgraph(graph.neighborhood(set(), hops=1)) == ""

    def test_single_edge_format(self):
        graph = KnowledgeGraph({"c0": "rome is the capital"})
        graph.upsert_triple(triple("rome", "capital_of", "italy"))
        graph.seal()
        text = graph.render_subgraph(graph.neighborhood({0}, hops=1))
        assert "rome -[capital_of]-> italy" in text
        assert "Contexts:" in text
        assert "- rome is the capital" in text

    def test_byte_stable(self):
        graph = chain_graph()
        sub = graph.neighborhood({0}, hops=2)
        assert graph.render_subgraph(sub) == graph.render_subgraph(sub)

    def test_shared_snippet_rendered_once(self):
        graph = KnowledgeGraph({"c0": "the shared snippet"})
        graph.upsert_triple(triple("a", "r", "b"))
        graph.seal()
        text = graph.render_subgraph(graph.neighborhood({0}, hops=1))
        assert text.count("the shared snippet") == 1

    def test_edges_sorted_by_hop_then_name(self):
        graph = KnowledgeGraph({"c0": "c"})
        graph.upsert_triple(triple("z", "r1", "m"))
        graph.upsert_triple(triple("m", "r2", "a"))
        graph.seal()
        text = graph.render_subgraph(graph.neighborhood({0}, hops=2))  # z is node 0
        lines = [l for l in text.splitlines() if "-[" in l]
        assert lines == ["z -[r1]-> m", "m -[r2]-> a"]


class TestExport:
    def test_json_round_trip_isomorphic(self, tmp_path):
        graph = chain_graph()
        path = tmp_path / "graph.json"
        graph.export(path, "json")
        loaded = KnowledgeGraph.load_json(path, {"c0": "ctx-ab", "c1": "ctx-bc"})
        assert {loaded.name(i) for i in range(len(loaded))} == {graph.name(i) for i in range(len(graph))}
        assert loaded.to_json_obj() == graph.to_json_obj()

    def test_snippets_rehydrated(self, tmp_path):
        graph = chain_graph()
        path = tmp_path / "graph.json"
        graph.export(path, "json")
        loaded = KnowledgeGraph.load_json(path, {"c0": "ctx-ab", "c1": "ctx-bc"})
        assert loaded.contexts(0) == ["c0"]
        assert loaded.render_subgraph(loaded.neighborhood({0}, hops=1, max_nodes=1)) == "Contexts:\n- ctx-ab"

    def test_empty_graph_exports(self, tmp_path):
        graph = KnowledgeGraph({})
        graph.seal()
        for fmt in ("json", "dot"):
            graph.export(tmp_path / f"g.{fmt}", fmt)
        obj = json.loads((tmp_path / "g.json").read_text())
        assert obj == {"nodes": [], "relations": [], "chunks": [], "edges": [[], [], [], []]}

    def test_dot_structure(self, tmp_path):
        graph = KnowledgeGraph({"c0": "ctx"})
        graph.upsert_triple(triple('we"ird', "rel", "plain"))
        graph.seal()
        path = tmp_path / "g.dot"
        graph.export(path, "dot")
        text = path.read_text()
        assert text.startswith("digraph ")
        assert text.rstrip().endswith("}")
        assert text.count("{") == text.count("}") == 1
        node_lines = re.findall(r'^\s*n\d+ \[label="(?:[^"\\]|\\.)*"\];$', text, re.M)
        edge_lines = re.findall(r'^\s*n\d+ -> n\d+ \[label="(?:[^"\\]|\\.)*"\];$', text, re.M)
        assert len(node_lines) == 2
        assert len(edge_lines) == 1
        assert '\\"' in text  # quote in name is escaped

    def test_json_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        chain_graph().export(a, "json")
        chain_graph().export(b, "json")
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_json_is_corrupt(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text('{"nodes": "nope"}')
        with pytest.raises(StoreCorruptError):
            KnowledgeGraph.load_json(path, {})

    def test_escaped_lone_surrogate_is_corrupt(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text('{"nodes":["a"],"relations":["\\ud800"],"chunks":["c0"],"edges":[[0],[0],[0],[0]]}\n')
        with pytest.raises(StoreCorruptError, match=r"graph relations\[0\] holds the lone surrogate '\\ud800'"):
            KnowledgeGraph.load_json(path, {"c0": "ctx"})

    # A provenance must be a stored chunk id, and no stored chunk id holds a lone surrogate.
    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ('{"nodes":["\\udc00a"],"relations":[],"chunks":[],"edges":[[],[],[],[]]}\n',
             r"graph node 0 name holds the lone surrogate"),
            (
                '{"nodes":["a"],"relations":["r"],"chunks":["c\\ud83c"],"edges":[[0],[0],[0],[0]]}\n',
                r"graph chunks\[0\] is 'c\\ud83c', which names no stored chunk",
            ),
        ],
        ids=["name", "provenance"],
    )
    def test_escaped_lone_surrogate_anywhere_is_corrupt(self, tmp_path, text, message):
        path = tmp_path / "graph.json"
        path.write_text(text)
        with pytest.raises(StoreCorruptError, match=message):
            KnowledgeGraph.load_json(path, {"c0": "ctx"})

    def test_escaped_surrogate_pair_and_escaped_backslash_load(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text('{"nodes":["\\ud83c\\udf55","\\\\ud800"],"relations":["r"],"chunks":["c0"],"edges":[[0],[1],[0],[0]]}\n')
        graph = KnowledgeGraph.load_json(path, {"c0": "ctx"})
        assert [graph.name(0), graph.name(1)] == ["\U0001f355", "\\ud800"]

    def test_unknown_format_rejected(self, tmp_path):
        graph = chain_graph()
        with pytest.raises(ValueError):
            graph.export(tmp_path / "g.xml", "xml")


# Characters json escapes, or passes through unescaped with ensure_ascii=False.
# Lone surrogates are left out: UTF-8 cannot write them, so no graph.json
# holds one as written, and the loader rejects an escaped one
# (test_escaped_lone_surrogate_is_corrupt).
AWKWARD_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u2028", "\u2029", "é", "🍕", "𝔘"]),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=8,
)


@st.composite
def graph_objects(draw) -> dict:
    """``graph.json``-shaped objects: distinct names, edges between drawn nodes, so some nodes touch none."""
    names = draw(st.lists(AWKWARD_TEXT, max_size=6, unique_by=normalize_entity))
    edges = set()
    if names:
        node_ids = st.integers(0, len(names) - 1)
        edges = draw(st.sets(st.tuples(node_ids, node_ids, AWKWARD_TEXT, AWKWARD_TEXT), max_size=8))
    return graph_object(names, edges)


def export_bytes(graph: KnowledgeGraph) -> bytes:
    """The bytes ``graph.export(path, "json")`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        graph.export(path, "json")
        return path.read_bytes()


def compact_dumps(obj: dict) -> bytes:
    return (json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n").encode("utf-8")


class TestJsonTemplate:
    @given(graph_objects())
    @example(graph_object([], []))
    @example(graph_object(["lonely"], []))
    @example(graph_object(['"q"\\\u2028\u2029\x00🍕'], [(0, 0, "\u2029", "\\"), (0, 0, "\u2029", "c\n0")]))
    def test_equals_compact_dumps(self, obj):
        # export writes the names, each table and each column through _encode one at a time.
        graph = KnowledgeGraph.from_json_obj(obj, context_texts(obj))
        assert export_bytes(graph) == compact_dumps(graph.to_json_obj()) == (_encode(obj) + "\n").encode("utf-8")

    def test_export_writes_the_template(self):
        assert export_bytes(chain_graph()) == (
            b'{"nodes":["a","b","c"],"relations":["r1","r2"],"chunks":["c0","c1"],"edges":[[0,1],[1,2],[0,1],[0,1]]}\n'
        )


NON_BLANK_TEXT = AWKWARD_TEXT.filter(str.strip)
ROUND_TRIP_CHUNKS = ["c0", 'c"1', "c\\2", "c\u20283"]
round_trip_triples = st.lists(
    st.builds(
        Triple,
        st.one_of(st.sampled_from(["rome", "Rome", " Rome,", "italy"]), NON_BLANK_TEXT),
        NON_BLANK_TEXT,
        st.one_of(st.sampled_from(["italy", "Italy.", "rome", "ostia"]), NON_BLANK_TEXT),
        st.sampled_from(ROUND_TRIP_CHUNKS),
    ),
    max_size=30,
)


def reference_dot(names: list[str], edges: set[tuple]) -> str:
    """``to_dot`` as it read when the graph held its edges as a set and sorted them here."""

    def esc(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph knowledge_graph {"]
    lines += [f'  n{i} [label="{esc(name)}"];' for i, name in enumerate(names)]
    lines += [f'  n{source} -> n{target} [label="{esc(relation)}"];' for source, target, relation, _ in sorted(edges)]
    return "\n".join(lines + ["}"]) + "\n"


class TestRoundTrip:
    @settings(deadline=None)
    @given(round_trip_triples)
    @example([])
    @example([triple("a", "r", "a", "c0"), triple("b", "r", "a", 'c"1'), triple("a", "r", "a", "c0")])
    def test_export_load_export_same_bytes_and_sorted_set_reference(self, triples):
        texts = {cid: f"text of {cid}" for cid in ROUND_TRIP_CHUNKS}
        built = KnowledgeGraph(texts)
        for t in triples:
            built.upsert_triple(t)
        built.seal()
        names, contexts, edges = pair_set_upsert(triples)
        contexts = [sorted(ids) for ids in contexts]  # seal sorts what the pair set kept first seen first
        expected = graph_object(names, edges)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "graph.json"
            built.export(path, "json")
            written = path.read_bytes()
            loaded = KnowledgeGraph.load_json(path, texts)
        assert written == compact_dumps(expected)
        assert export_bytes(loaded) == written
        for graph in (built, loaded):
            assert graph_edges(graph) == sorted(edges)
            assert node_contexts(graph) == contexts
            assert graph.to_json_obj() == expected
            assert graph.to_dot() == reference_dot(names, edges)


def context_texts(obj: dict) -> dict[str, str]:
    """A text for every chunk id the ``graph.json``-shaped ``obj`` names: its chunk table."""
    return {cid: f"text of {cid}" for cid in obj["chunks"]}


def contexts_from_columns(obj: dict) -> list[list[str]]:
    """Each node's chunk ids, derived from a ``graph.json``-shaped ``obj``: its edges' provenances, ascending, once."""
    provenances: list[set[str]] = [set() for _ in obj["nodes"]]
    for source, target, _, provenance in tuple_edges(obj):
        provenances[source].add(provenance)
        provenances[target].add(provenance)
    return [sorted(ids) for ids in provenances]


# The bounds of the drawn edge columns: three nodes, a two-entry relation table and a two-entry chunk table.
DRAWN_BOUNDS = (3, 3, 2, 2)


@st.composite
def edge_column_objects(draw) -> list:
    """Edge columns over ``DRAWN_BOUNDS``: drawn edges, often sorted and unique, then maybe one cell or column broken."""
    ids, labels = st.integers(0, 2), st.integers(0, 1)
    edges = draw(st.lists(st.tuples(ids, ids, labels, labels), max_size=5))
    if draw(st.booleans()):
        edges = sorted(set(edges))
    columns = [list(column) for column in zip(*edges)] or [[], [], [], []]
    fault = draw(st.sampled_from(["none", "cell", "shorter", "column"]))
    if fault == "cell" and edges:
        bad = st.one_of(st.integers(-1, 3), st.booleans(), st.none(), st.just("0"), st.just([0]), st.just(1.0),
                        st.just(2**40), st.just(-(2**70)))
        columns[draw(st.integers(0, 3))][draw(st.integers(0, len(edges) - 1))] = draw(bad)
    elif fault == "shorter" and edges:
        del columns[draw(st.integers(0, 3))][-1]
    elif fault == "column":
        columns = draw(st.sampled_from([columns[:3], columns + [[]], [{}] + columns[1:]]))
    return columns


def reference_fault(columns: list, bounds: tuple[int, ...]) -> str | None:
    """The load's edge-column rules, one value at a time: the message of the first fault, or None.

    The rules run in the load's order (layout, lengths, ints, ranges, edge
    order); the first rule that fails names its first bad edge, then that
    edge's first bad column.
    """
    for k, column in enumerate(EDGE_COLUMNS):
        if k >= len(columns):
            return f"{EDGE_LAYOUT}: column {k} ({column}) is missing"
        if type(columns[k]) is not list:
            return f"{EDGE_LAYOUT}: column {k} ({column}) is not a list"
    if len(columns) > 4:
        return f"{EDGE_LAYOUT}: there are {len(columns)} columns"
    lengths = list(map(len, columns))
    if min(lengths) != max(lengths):
        short, long = lengths.index(min(lengths)), lengths.index(max(lengths))
        return f"graph edge {EDGE_COLUMNS[short]}[{lengths[short]}] is missing: {EDGE_COLUMNS[long]} holds {lengths[long]} edges"
    edges = list(zip(*columns))
    all_ints = all(type(value) is int for edge in edges for value in edge)
    for i, edge in enumerate(edges):
        for k, value in enumerate(edge):
            if not (type(value) is int and (not all_ints or -1 < value < bounds[k])):
                what = "a node id" if k < 2 else f"an index of the {EDGE_COLUMNS[k]} table"
                return f"graph edge {EDGE_COLUMNS[k]}[{i}] is {value!r}, not {what} in [0, {bounds[k]})"
    for i in range(1, len(edges)):
        if edges[i] == edges[i - 1]:
            return f"graph edge {i} repeats edge {i - 1}: edges must be sorted and unique"
        if edges[i] < edges[i - 1]:
            column = next(c for c, a, b in zip(EDGE_COLUMNS, edges[i - 1], edges[i]) if a != b)
            return f"graph edge {column}[{i}] sorts before edge {i - 1}: edges must be sorted and unique"
    return None


def valid_graph_object() -> dict:
    return {"nodes": ["a", "b"], "relations": ["r"], "chunks": ["c0"], "edges": [[0], [1], [0], [0]]}


class TestLoadIncidentLists:
    """A node's neighbour list names the far end of each of its incident edges once; see ``neighbour_reference``."""

    @given(graph_objects())
    def test_loaded_lists_equal_seal_derivation(self, obj):
        rows = contexts_from_columns(obj)
        loaded = KnowledgeGraph.from_json_obj(obj, context_texts(obj))
        assert [loaded._neighbours[i] for i in range(len(loaded))] == neighbour_reference(loaded)
        assert node_contexts(loaded) == rows

    def test_mini_store_lists_equal_seal_derivation(self, mini_store):
        graph = mini_store.graph
        assert graph.edge_count > 0
        assert [graph._neighbours[i] for i in range(len(graph))] == neighbour_reference(graph)
        assert node_contexts(graph) == sorted_contexts_reference(graph)

    def test_mini_store_edges_are_the_zipped_file_columns(self, mini_store, mini_store_dir):
        obj = json.loads((mini_store_dir / "graph.json").read_text(encoding="utf-8"))
        columns = mini_store.graph._columns
        assert columns.dtype == np.int32 and columns.tolist() == obj["edges"]  # the file's columns, held as int32
        assert graph_edges(mini_store.graph) == tuple_edges(obj)


class TestLoadTypes:
    def test_valid_object_loads(self):
        assert KnowledgeGraph.from_json_obj(valid_graph_object(), {"c0": "ctx"}).edge_count == 1

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("nodes", "name", 5),
            ("nodes", "name", None),
            ("nodes", "name", ["a"]),
            ("edges", "relation", 5),
            ("edges", "relation", None),
            ("edges", "provenance", 7.5),
            ("edges", "provenance", False),
        ],
    )
    def test_wrong_field_type_is_corrupt(self, section, key, value):
        obj = valid_graph_object()
        set_graph_field(obj, section, key, value)
        with pytest.raises(StoreCorruptError):
            KnowledgeGraph.from_json_obj(obj, {"c0": "ctx"})

    def test_context_naming_no_chunk_is_corrupt(self):
        # Node a's one context is its edge's chunk, so the chunk it names is checked in the chunk table.
        with pytest.raises(StoreCorruptError, match=r"^graph chunks\[0\] is 'c0', which names no stored chunk$"):
            KnowledgeGraph.from_json_obj(valid_graph_object(), {"c1": "other"})

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda edges: edges.pop(), f"{EDGE_LAYOUT}: column 3 (chunks) is missing"),
            (lambda edges: edges[1].pop(), "graph edge targets[3] is missing: sources holds 4 edges"),
            (lambda edges: (edges[1].__setitem__(2, True), edges[0].__setitem__(3, True)),
             "graph edge targets[2] is True, not a node id in [0, 2)"),
            (lambda edges: (edges[1].__setitem__(2, 2), edges[0].__setitem__(3, 2)),
             "graph edge targets[2] is 2, not a node id in [0, 2)"),
            (lambda edges: (edges[0].__setitem__(2, -1), edges[0].__setitem__(3, -1)),
             "graph edge sources[2] is -1, not a node id in [0, 2)"),
            (lambda edges: (edges[2].__setitem__(2, None), edges[0].__setitem__(3, None)),
             "graph edge relations[2] is None, not an index of the relations table in [0, 3)"),
            (lambda edges: (edges[3].__setitem__(2, 1), edges[3].__setitem__(3, 1)),
             "graph edge chunks[2] is 1, not an index of the chunks table in [0, 1)"),
            (lambda edges: edges.__setitem__(1, {"a": 1}), f"{EDGE_LAYOUT}: column 1 (targets) is not a list"),
            (lambda edges: edges.append([]), f"{EDGE_LAYOUT}: there are 5 columns"),
            (lambda edges: [column.insert(2, column.pop(1)) for column in edges],
             "graph edge sources[2] sorts before edge 1: edges must be sorted and unique"),
            (lambda edges: [column.__setitem__(2, column[1]) for column in edges],
             "graph edge 2 repeats edge 1: edges must be sorted and unique"),
            (lambda edges: (edges[2].__setitem__(2, 1.0), edges[0].__setitem__(3, 1.0)),
             "graph edge relations[2] is 1.0, not an index of the relations table in [0, 3)"),
            (lambda edges: (edges[2].__setitem__(2, 3), edges[0].__setitem__(3, 2)),
             "graph edge relations[2] is 3, not an index of the relations table in [0, 3)"),
            (lambda edges: (edges[1].__setitem__(2, 2**40), edges[0].__setitem__(3, -(2**70))),
             f"graph edge targets[2] is {2**40}, not a node id in [0, 2)"),
        ],
        ids=["three-items", "unequal-lengths", "bool-endpoint", "endpoint-past-nodes", "negative-endpoint",
             "null-label", "unknown-provenance", "dict", "five-columns", "out-of-order", "repeated",
             "float-index", "index-past-table", "index-past-int64"],
    )
    def test_names_the_first_bad_edge_row(self, edit, named):
        # Edge 2, read across the columns, is the first bad one; edge 3 is bad too, in an earlier column.
        obj = graph_object(["a", "b"], [(0, 1, "r", "c0"), (0, 1, "s", "c0"), (1, 0, "s", "c0"), (1, 1, "t", "c0")])
        edit(obj["edges"])
        with pytest.raises(StoreCorruptError, match=f"^{re.escape(named)}$"):
            KnowledgeGraph.from_json_obj(obj, {"c0": "ctx"})

    @pytest.mark.parametrize(
        "key, table, named",
        [
            ("relations", ["r", "t", "s"], "graph relations[2] sorts before relations[1]: a table must be sorted and unique"),
            ("relations", ["r", "s", "s"], "graph relations[2] repeats relations[1]: a table must be sorted and unique"),
            ("relations", ["r", 5, None], "graph relations[1] is 5, not a string"),
            ("chunks", ["c0", "c2", "c1"], "graph chunks[2] sorts before chunks[1]: a table must be sorted and unique"),
            ("chunks", ["c0", "c0"], "graph chunks[1] repeats chunks[0]: a table must be sorted and unique"),
            ("chunks", ["c0", ["c1"]], "graph chunks[1] is ['c1'], not a string"),
            ("chunks", ["c0", "c1", "c9", "d"], "graph chunks[2] is 'c9', which names no stored chunk"),
        ],
        ids=["relations-unsorted", "relations-repeated", "relations-non-string", "chunks-unsorted",
             "chunks-repeated", "chunks-non-string", "chunks-not-stored"],
    )
    def test_names_the_first_bad_table_entry(self, key, table, named):
        obj = valid_graph_object()
        obj[key] = table
        with pytest.raises(StoreCorruptError, match=f"^{re.escape(named)}$"):
            KnowledgeGraph.from_json_obj(obj, {"c0": "ctx", "c1": "ctx", "c2": "ctx"})

    @pytest.mark.parametrize(
        "bad", [["a"], ["a", [], 1], [], ["ab", ["c0"]], 5, {"a": 1, "b": 2}],
        ids=["one-item", "three-items", "empty", "format-3-row", "number", "dict"],
    )
    def test_names_the_first_bad_node_row(self, bad):
        obj = valid_graph_object()
        obj["nodes"][1:1] = [bad]
        obj["edges"] = [[], [], [], []]
        kind = type(bad).__name__
        with pytest.raises(StoreCorruptError, match=rf"^graph node 1 is a {kind}, not a name string$"):
            KnowledgeGraph.from_json_obj(obj, {"c0": "ctx"})

    @pytest.mark.parametrize(
        "obj",
        [[], {"nodes": []}, {"nodes": {}, "edges": []}, {"nodes": [], "edges": None},
         {"nodes": [], "edges": [[], [], [], []]}, {"nodes": [], "relations": [], "chunks": {}, "edges": []}],
    )
    def test_malformed_layout_is_corrupt(self, obj):
        with pytest.raises(StoreCorruptError, match="^malformed graph"):
            KnowledgeGraph.from_json_obj(obj, {})

    def test_load_json_names_the_file(self, tmp_path):
        path = tmp_path / "graph.json"
        obj = valid_graph_object()
        obj["edges"][1].append(1)
        path.write_text(json.dumps(obj))
        named = "graph edge sources[1] is missing: targets holds 2 edges"
        with pytest.raises(StoreCorruptError, match=f"^{re.escape(str(path))}: {re.escape(named)}$"):
            KnowledgeGraph.load_json(path, {"c0": "ctx"})

    @settings(max_examples=300)
    @given(edge_column_objects())
    def test_fault_walk_agrees_with_the_column_checks(self, columns):
        # The load names exactly the fault the one-value-at-a-time walk finds first, or loads the edges as written.
        obj = {"nodes": ["a", "b", "c"], "relations": ["r", "s"], "chunks": ["c0", "c1"], "edges": columns}
        fault = reference_fault(columns, DRAWN_BOUNDS)
        if fault is None:
            graph = KnowledgeGraph.from_json_obj(obj, {"c0": "x", "c1": "y"})
            assert graph.to_json_obj()["edges"] == columns and graph.edge_count == len(columns[0])
        else:
            with pytest.raises(StoreCorruptError, match=f"^{re.escape(fault)}$"):
                KnowledgeGraph.from_json_obj(obj, {"c0": "x", "c1": "y"})


def snippet_dicts(triples: list[Triple], texts: dict[str, str]) -> tuple[list[str], list[dict[str, str]], set[tuple]]:
    """Node names, per-node ``chunk_id -> snippet`` dicts and edges, filled as upserts did with snippet dicts.

    The graph once kept a snippet dict per node: each upsert resolved both
    endpoints by normalized name (first surface wins) and called
    ``setdefault(provenance, snippet)`` on each endpoint's dict.
    """
    ids: dict[str, int] = {}
    names: list[str] = []
    contexts: list[dict[str, str]] = []
    edges: set[tuple] = set()
    for t in triples:
        endpoints = []
        for surface in (t.subject, t.object):
            normalized = normalize_entity(surface)
            if normalized not in ids:
                ids[normalized] = len(names)
                names.append(surface)
                contexts.append({})
            endpoints.append(ids[normalized])
        edges.add((endpoints[0], endpoints[1], t.relation, t.provenance))
        for node_id in endpoints:
            contexts[node_id].setdefault(t.provenance, texts[t.provenance])
    return names, contexts, edges


def snippet_dict_render(sub: Subgraph, names: list[str], contexts: list[dict[str, str]]) -> str:
    """The unbudgeted render over snippet dicts, in the layout before the token budget.

    Edge lines, then (name, chunk id, snippet) sorted, each chunk once; a
    render with no budget to speak of holds the same lines, reordered.
    """
    if not sub.nodes:
        return ""
    edge_lines = sorted((sub.nodes[s], names[s], r, names[t]) for s, t, r, _ in sub.edges)
    lines = [f"{source} -[{relation}]-> {target}" for _, source, relation, target in edge_lines]
    snippets: list[tuple[str, str, str]] = []
    for node_id in sub.nodes:
        for chunk_id, snippet in contexts[node_id].items():
            snippets.append((names[node_id], chunk_id, snippet))
    seen_chunks: set[str] = set()
    context_lines = []
    for _, chunk_id, snippet in sorted(snippets, key=lambda t: (t[0], t[1])):
        if chunk_id in seen_chunks:
            continue
        seen_chunks.add(chunk_id)
        context_lines.append(f"- {snippet}")
    if context_lines:
        if lines:
            lines.append("")
        lines.append("Contexts:")
        lines.extend(context_lines)
    return "\n".join(lines)


def snippet_dict_json(names: list[str], edges: set[tuple]) -> bytes:
    return compact_dumps(graph_object(names, edges))


CHUNK_IDS = [f"c{i}" for i in range(4)]
UNBOUNDED = 10**9  # a token budget no test graph reaches
reference_triples = st.lists(
    st.tuples(
        st.sampled_from(["alpha", "Alpha", "beta", "Beta.", "gamma", "delta", "eps"]),
        st.sampled_from(["r1", "r2"]),
        st.sampled_from(["alpha", "beta", "BETA", "gamma", "delta", "eps"]),
        st.sampled_from(CHUNK_IDS),  # ids repeat in any order, not only back to back
    ),
    min_size=1,
    max_size=30,
)
chunk_texts = st.tuples(*[AWKWARD_TEXT] * len(CHUNK_IDS)).map(
    lambda drawn: {cid: f"{cid}: {text}" for cid, text in zip(CHUNK_IDS, drawn)}
)


class TestSnippetDictReference:
    @settings(max_examples=200, deadline=None)
    @given(reference_triples, chunk_texts, st.sets(st.integers(0, 6), max_size=3), st.integers(1, 3), st.integers(1, 10))
    @example(OUT_OF_ORDER_REPEAT, {cid: f"text {cid}" for cid in CHUNK_IDS}, {0}, 1, 10)
    @example([("a", "r", "b", "c1"), ("c", "r", "a", "c0"), ("a", "r2", "b", "c1")], {"c0": "x", "c1": "x"}, {1}, 2, 3)
    def test_render_and_export_equal_snippet_dicts(self, rows, texts, seeds, hops, max_nodes):
        triples = [triple(*row) for row in rows]
        names, contexts, edges = snippet_dicts(triples, texts)
        built = KnowledgeGraph(texts)
        for t in triples:
            built.upsert_triple(t)
        built.seal()
        loaded = KnowledgeGraph.from_json_obj(json.loads(export_bytes(built)), texts)
        seeds = {seed for seed in seeds if seed < len(names)}
        for graph in (built, loaded):
            assert export_bytes(graph) == snippet_dict_json(names, edges)
            assert node_contexts(graph) == [sorted(ids) for ids in contexts]
            for sub in (
                graph.neighborhood(seeds, hops=hops, max_nodes=max_nodes),
                graph.neighborhood(set(range(len(graph))), hops=1, max_nodes=len(graph)),
            ):
                unbounded = graph.render_subgraph(sub, UNBOUNDED)
                assert sorted(unbounded.split("\n")) == sorted(snippet_dict_render(sub, names, contexts).split("\n"))


def reference_render(graph: KnowledgeGraph, sub: Subgraph, texts: dict[str, str], budget: int) -> tuple[str, int, int]:
    """Every line of ``graph``'s ``sub`` in render order, then the longest prefix within ``budget`` whitespace tokens.

    Chunks sort by (seed nodes naming them descending, least hop, chunk id);
    the ``Contexts:`` header rides with the first context line and the blank
    line between the sections with the first edge line. Returns the text and
    the context and edge lines it keeps.
    """
    names, contexts = graph.to_json_obj()["nodes"], sorted_contexts_reference(graph)
    seed_count: dict[str, int] = {}
    least_hop: dict[str, int] = {}
    for node_id, hop in sub.nodes.items():
        for chunk_id in contexts[node_id]:
            seed_count[chunk_id] = seed_count.get(chunk_id, 0) + (hop == 0)
            least_hop[chunk_id] = min(least_hop.get(chunk_id, hop), hop)
    order = sorted(seed_count, key=lambda c: (-seed_count[c], least_hop[c], c))
    lines = [f"- {texts[c]}" for c in order]
    if lines:
        lines[0] = "Contexts:\n" + lines[0]
    edge_keys = sorted((sub.nodes[s], names[s], r, names[t]) for s, t, r, _ in sub.edges)
    edge_lines = [f"{source} -[{relation}]-> {target}" for _, source, relation, target in edge_keys]
    if lines and edge_lines:
        edge_lines[0] = "\n" + edge_lines[0]
    contexts = len(lines)
    lines += edge_lines
    kept = max(n for n in range(len(lines) + 1) if len("\n".join(lines[:n]).split()) <= budget)
    return "\n".join(lines[:kept]), min(kept, contexts), max(kept - contexts, 0)


class CountingTexts(dict):
    """A chunk-text map that counts its lookups."""

    lookups = 0

    def __getitem__(self, chunk_id):
        self.lookups += 1
        return super().__getitem__(chunk_id)


class Unreadable:
    """A graph whose edges fail the test if the render reads them."""

    def _induced_edges(self, nodes):
        raise AssertionError("edges read after the budget ran out")


class CountingIds(list):
    """A neighbour list that adds each id read through its iterator to a shared tally."""

    def __init__(self, ids: list[int], tally: list[int]) -> None:
        super().__init__(ids)
        self.tally = tally

    def __iter__(self):
        for node_id in super().__iter__():
            self.tally[0] += 1
            yield node_id


class CountingCalls:
    """A function that counts its calls."""

    def __init__(self, function) -> None:
        self.function, self.calls = function, 0

    def __call__(self, *args):
        self.calls += 1
        return self.function(*args)


class TestBudgetedRender:
    @settings(max_examples=300, deadline=None)
    @given(
        reference_triples,
        chunk_texts,
        st.sets(st.integers(0, 6), min_size=1, max_size=3),
        st.integers(1, 3),
        st.integers(1, 10),
        st.integers(1, 40),
    )
    @example(OUT_OF_ORDER_REPEAT, {cid: f"text {cid}" for cid in CHUNK_IDS}, {0}, 2, 10, 4)
    def test_matches_longest_prefix_reference(self, rows, texts, seeds, hops, max_nodes, budget):
        graph = KnowledgeGraph(texts)
        for row in rows:
            graph.upsert_triple(triple(*row))
        graph.seal()
        sub = graph.neighborhood({seed for seed in seeds if seed < len(graph)}, hops=hops, max_nodes=max_nodes)
        for max_tokens in (budget, UNBOUNDED):
            kept: dict = {}
            content: set[str] = set()
            text = graph.render_subgraph(sub, max_tokens, kept=kept, content=content)
            expected, context_lines, edge_lines = reference_render(graph, sub, texts, max_tokens)
            assert text == expected
            assert kept == {"context_lines": context_lines, "edge_lines": edge_lines, "tokens": len(text.split())}
            assert kept["tokens"] <= max_tokens
            assert content == content_tokens(text)

    def test_seed_shared_chunks_first_then_least_hop_then_id(self):
        texts = {cid: f"text {cid}" for cid in ("k1", "k2", "k3", "k4", "k5")}
        graph = KnowledgeGraph(texts)
        for s, o, prov in [("a", "x", "k5"), ("b", "x", "k4"), ("a", "b", "k3"), ("x", "y", "k1"), ("y", "z", "k2")]:
            graph.upsert_triple(triple(s, "r", o, prov))
        graph.seal()
        sub = graph.neighborhood({0, 2}, hops=3)  # a and b
        text = graph.render_subgraph(sub, UNBOUNDED)
        contexts = text.split("\n\n")[0].split("\n")
        # k3 is named by both seeds, k4 and k5 by one each; k1 first at hop 1 (x), k2 at hop 2 (y)
        assert contexts == ["Contexts:", "- text k3", "- text k4", "- text k5", "- text k1", "- text k2"]

    def test_cut_before_the_first_line_that_does_not_fit(self):
        graph = KnowledgeGraph({"c0": "one two three", "c1": "four"})
        graph.upsert_triple(triple("a", "r", "b", prov="c0"))
        graph.upsert_triple(triple("a", "r2", "c", prov="c1"))
        graph.seal()
        sub = graph.neighborhood({0}, hops=1)
        assert graph.render_subgraph(sub, 1) == ""  # never a bare header
        assert graph.render_subgraph(sub, 4) == ""
        assert graph.render_subgraph(sub, 5) == "Contexts:\n- one two three"
        assert graph.render_subgraph(sub, 6) == "Contexts:\n- one two three"  # "- four" takes 2
        assert graph.render_subgraph(sub, 7) == "Contexts:\n- one two three\n- four"
        assert graph.render_subgraph(sub, 9) == "Contexts:\n- one two three\n- four"  # never a trailing blank
        assert graph.render_subgraph(sub, 10) == "Contexts:\n- one two three\n- four\n\na -[r]-> b"

    def test_hub_seed_renders_within_budget_and_reads_little(self):
        texts = CountingTexts({f"c{i:03d}": f"hub fact {i} holds here" for i in range(600)})
        graph = KnowledgeGraph(texts)
        for i in range(600):
            graph.upsert_triple(triple("hub", "r", f"spoke{i}", prov=f"c{i:03d}"))
        graph.seal()
        sub = graph.neighborhood({0}, hops=2, max_nodes=1000)
        assert len(graph.contexts(0)) == 600
        sub = Subgraph(sub.nodes, Unreadable())
        kept: dict = {}
        text = graph.render_subgraph(sub, 100, kept=kept, content=set())
        assert len(text.split()) == kept["tokens"] <= 100
        assert kept["context_lines"] == 16 and kept["edge_lines"] == 0  # 1 + 16 * 6 tokens
        assert text.split("\n")[1:3] == ["- hub fact 0 holds here", "- hub fact 1 holds here"]
        assert texts.lookups <= kept["context_lines"] + 1  # the tokens are made from the texts read for the lines

        tally = [0]
        graph._neighbours = {node: CountingIds(graph._neighbours[node], tally) for node in range(len(graph))}
        for k in (2, 20, 200):
            tally[0] = 0
            cut = graph.neighborhood({0}, hops=2, max_nodes=k)
            assert list(cut.nodes) == list(range(k))
            assert tally[0] == k - 1  # the hub's list up to the budget, not its 600 edges
        tally[0] = 0
        graph._induced_edges = collect = CountingCalls(graph._induced_edges)
        lazy = graph.neighborhood({0}, hops=2, max_nodes=1000)
        assert tally[0] == 600 + 600  # each admitted node's list once: the hub's, then each spoke's
        assert graph.render_subgraph(lazy, 100) == text
        assert collect.calls == 0  # the cut render never collected the edges
        assert lazy.edges == reference_neighborhood(graph, {0}, 2, 1000).edges
        assert collect.calls == 1
        assert graph.render_subgraph(lazy, UNBOUNDED).count(" -[r]-> ") == 600
        assert collect.calls == 1  # collected once, then kept


# Words at the edges of the content-token rule: stopwords, edge and interior
# punctuation, case, final sigma, and the header's own word.
_TOKEN_WORDS = st.sampled_from(
    ["The", "of", "Rome", "ROME", "rome.", "-[capital_of]->", "(Naples)", "don't", "ΟΔΟΣ", "ΣΟΦΊΑ", "xΣ\u0301",
     "Contexts:", "contexts", "-", "—", "İzmir", "🍕", "1889,", "a.b"]
)
_token_text = st.lists(st.one_of(_TOKEN_WORDS, AWKWARD_TEXT), max_size=8).map(" ".join)
_token_texts = st.tuples(*[_token_text] * len(CHUNK_IDS)).map(lambda drawn: dict(zip(CHUNK_IDS, drawn)))
_token_rows = st.lists(
    st.tuples(
        st.sampled_from(["alpha", "Beta.", "ΟΔΟΣ", "(gamma)", "delta's"]),
        st.sampled_from(["r1", "has part", "is-in", "of", "ΣΟΦΊΑ"]),
        st.sampled_from(["alpha", "BETA", "eps", "the end"]),
        st.sampled_from(CHUNK_IDS),
    ),
    min_size=1,
    max_size=20,
)


class TestRenderedTokens:
    @settings(max_examples=300, deadline=None)
    @given(_token_rows, _token_texts, st.sets(st.integers(0, 6), min_size=1, max_size=3), st.integers(0, 60))
    @example([("alpha", "r1", "BETA", "c0")], {cid: "Rome of ROME" for cid in CHUNK_IDS}, {0}, 0)  # no line
    @example([("alpha", "r1", "BETA", "c0"), ("alpha", "of", "eps", "c1")], {"c0": "a b", "c1": "c d"}, {0}, 4)
    @example([("alpha", "has part", "BETA", "c0")], {cid: "ΣΟΦΊΑ (Naples)" for cid in CHUNK_IDS}, {0}, 60)
    def test_equals_the_rendered_texts_tokens(self, rows, texts, seeds, budget):
        graph = KnowledgeGraph(texts)
        for row in rows:
            graph.upsert_triple(triple(*row))
        graph.seal()
        loaded = KnowledgeGraph.from_json_obj(graph.to_json_obj(), texts)
        for g in (graph, loaded):
            sub = g.neighborhood({seed for seed in seeds if seed < len(g)}, hops=2)
            for max_tokens in (budget, UNBOUNDED):
                content: set[str] = set()
                text = g.render_subgraph(sub, max_tokens, content=content)
                assert content == content_tokens(text)

    def test_no_line_a_cut_in_the_contexts_and_the_edges(self):
        graph = KnowledgeGraph({"c0": "The Tiber crosses ROME.", "c1": "contexts of (Naples)"})
        graph.upsert_triple(triple("Rome", "has part", "Tiber", prov="c0"))
        graph.upsert_triple(triple("Rome", "of", "Naples", prov="c1"))
        graph.seal()
        sub = graph.neighborhood({0}, hops=1)
        for budget, lines, tokens in [
            (0, (0, 0), set()),
            (6, (1, 0), {"contexts", "tiber", "crosses", "rome"}),
            (50, (2, 2), {"contexts", "tiber", "crosses", "rome", "naples", "part"}),  # "has" and "of" are stopwords
        ]:
            kept: dict = {}
            content: set[str] = set()
            text = graph.render_subgraph(sub, budget, kept=kept, content=content)
            assert (kept["context_lines"], kept["edge_lines"]) == lines
            assert content == content_tokens(text) == tokens

    def test_concurrent_renders_share_one_string_per_token(self):
        texts = {f"c{i:02d}": f"Fact {i} about Rome{i % 7} and the Tiber." for i in range(40)}
        graph = KnowledgeGraph(texts)
        for i in range(40):
            graph.upsert_triple(triple(f"n{i % 9}", "r", f"n{i * 5 % 9}", prov=f"c{i:02d}"))
        graph.seal()
        subs = [graph.neighborhood({seed}, hops=2) for seed in range(len(graph))]
        wrong: list[str] = []

        def render_all() -> None:
            for sub in subs:
                for budget in (5, 40, UNBOUNDED):
                    content: set[str] = set()
                    text = graph.render_subgraph(sub, budget, content=content)
                    if content != content_tokens(text):
                        wrong.append(text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=render_all) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        made = vars(graph)["text_tokens"]
        assert set(made) == set(texts.values())
        strings: dict[str, str] = {}
        for text, tokens in made.items():
            assert set(tokens) == content_tokens(text)
            assert all(strings.setdefault(token, token) is token for token in tokens)  # one string per token


@st.composite
def hub_multigraphs(draw) -> tuple[list[tuple], dict[str, str]]:
    """Rows of a hub-shaped multigraph, and a text per chunk id.

    The hub has several relations and provenances per spoke, in both
    directions, up to hundreds of parallel edges in all, over 40 to 64
    chunk ids, so seeds share many contexts. Sparse spoke-spoke edges and
    tails off the spokes reach hops 2 and 3. The rows are shuffled, so node
    ids do not follow the shape.
    """
    rng = draw(st.randoms(use_true_random=False))
    chunks = [f"k{i:02d}" for i in range(draw(st.integers(40, 64)))]
    spokes = [f"spoke{i}" for i in range(draw(st.integers(3, 30)))]
    parallel = draw(st.integers(2, 16))
    relations = ["r1", "r2", "r3"]
    rows = []
    for spoke in spokes:
        for _ in range(rng.randint(1, parallel)):
            source, target = ("hub", spoke) if rng.random() < 0.7 else (spoke, "hub")
            rows.append((source, rng.choice(relations), target, rng.choice(chunks)))
    for _ in range(len(spokes)):
        a, b = rng.sample(spokes, 2)
        rows.append((a, rng.choice(relations), b, rng.choice(chunks)))
        rows.append((a, "r1", f"tail{rng.randrange(len(spokes))}", rng.choice(chunks)))
    rng.shuffle(rows)
    return rows, {cid: f"fact {cid}" for cid in chunks}


class TestHubMultigraphReference:
    @settings(max_examples=150, deadline=None)
    @given(
        hub_multigraphs(),
        st.integers(2, 4),
        st.booleans(),
        st.randoms(use_true_random=False),
        st.integers(1, 3),
        st.integers(1, 80),
        st.integers(1, 300),
    )
    def test_traversal_and_render_match_references(self, graph_rows, n_seeds, with_hub, rng, hops, max_nodes, budget):
        rows, texts = graph_rows
        built = KnowledgeGraph(texts)
        for row in rows:
            built.upsert_triple(triple(*row))
        built.seal()
        loaded = KnowledgeGraph.from_json_obj(json.loads(export_bytes(built)), texts)
        hub = built.match_entities([mention("hub")])
        seeds = set(rng.sample(range(len(built)), n_seeds - with_hub)) | (hub if with_hub else set())
        for graph in (built, loaded):
            assert [graph._neighbours[i] for i in range(len(graph))] == neighbour_reference(graph)
            sub = graph.neighborhood(seeds, hops=hops, max_nodes=max_nodes)
            ref = reference_neighborhood(graph, seeds, hops, max_nodes)
            assert list(sub.nodes.items()) == list(ref.nodes.items())
            assert sub.edges == ref.edges
            for max_tokens in (budget, UNBOUNDED):
                kept: dict = {}
                text = graph.render_subgraph(sub, max_tokens, kept=kept)
                expected, context_lines, edge_lines = reference_render(graph, ref, texts, max_tokens)
                assert text == expected == graph.render_subgraph(ref, max_tokens)
                assert (kept["context_lines"], kept["edge_lines"]) == (context_lines, edge_lines)


class TestContextsDerivedFromEdges:
    @settings(max_examples=100, deadline=None)
    @given(hub_multigraphs(), st.integers(1, 3), st.integers(1, 80))
    def test_export_then_load_gives_each_node_its_edges_chunks(self, graph_rows, hops, max_nodes):
        # graph.json stores names and edges only: a load must give every node the
        # contexts the build gave it, and so render every neighborhood the same text.
        rows, texts = graph_rows
        built = KnowledgeGraph(texts)
        for row in rows:
            built.upsert_triple(triple(*row))
        built.seal()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "graph.json"
            built.export(path, "json")
            names = json.loads(path.read_text(encoding="utf-8"))["nodes"]
            loaded = KnowledgeGraph.load_json(path, texts)
        named: dict[str, set[str]] = {}  # normalized name -> the chunk ids of the rows naming it
        for subject, _, obj, provenance in rows:
            for name in (subject, obj):
                named.setdefault(normalize_entity(name), set()).add(provenance)
        assert names == [built.name(i) for i in range(len(built))]
        reference = [sorted(named[normalize_entity(name)]) for name in names]
        assert node_contexts(built) == node_contexts(loaded) == reference
        for seeds in [{i} for i in range(len(built))] + [set(range(len(built)))]:
            text = built.render_subgraph(built.neighborhood(seeds, hops=hops, max_nodes=max_nodes), UNBOUNDED)
            assert loaded.render_subgraph(loaded.neighborhood(seeds, hops=hops, max_nodes=max_nodes), UNBOUNDED) == text


class TestColumnRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(hub_multigraphs(), st.randoms(use_true_random=False), st.integers(1, 3), st.integers(1, 80), st.integers(1, 300))
    def test_build_export_load_gives_the_same_graph(self, graph_rows, rng, hops, max_nodes, budget):
        rows, texts = graph_rows
        built = KnowledgeGraph(texts)
        for row in rows:
            built.upsert_triple(triple(*row))
        built.seal()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "graph.json"
            built.export(path, "json")
            loaded = KnowledgeGraph.load_json(path, texts)
        assert loaded.to_json_obj() == built.to_json_obj()
        assert loaded.to_dot() == built.to_dot()
        assert [loaded._neighbours[i] for i in range(len(loaded))] == [built._neighbours[i] for i in range(len(built))]
        assert node_contexts(loaded) == node_contexts(built) == sorted_contexts_reference(built)
        for _ in range(4):
            seeds = set(rng.sample(range(len(built)), rng.randint(1, 4)))
            subs = [graph.neighborhood(seeds, hops=hops, max_nodes=max_nodes) for graph in (built, loaded)]
            assert subs[0].nodes == subs[1].nodes and subs[0].edges == subs[1].edges
            for max_tokens in (budget, UNBOUNDED):
                assert built.render_subgraph(subs[0], max_tokens) == loaded.render_subgraph(subs[1], max_tokens)


def expanded_nodes(hop_of: dict[int, int], hops: int, max_nodes: int) -> set[int]:
    """The nodes whose neighbour lists a traversal that admitted ``hop_of`` read: each depth's frontier, until a stop."""
    expanded: set[int] = set()
    for depth in range(1, hops + 1):
        frontier = {node for node, hop in hop_of.items() if hop == depth - 1}
        if sum(hop < depth for hop in hop_of.values()) >= max_nodes or not frontier:
            break
        expanded |= frontier
    return expanded


def read_levels(sub: Subgraph, contexts: list[list[str]], context_lines: int) -> set[int]:
    """The nodes of the hop levels a render that kept ``context_lines`` context lines reached.

    A render reaches a level once it has kept a line for every chunk the
    lower levels name, so it asks for the next line.
    """
    reached: set[int] = set()
    lower: set[str] = set()
    for hop in sorted(set(sub.nodes.values())):
        if len(lower) > context_lines:
            break
        level = [node for node, node_hop in sub.nodes.items() if node_hop == hop]
        reached.update(level)
        lower.update(*(contexts[node] for node in level))
    return reached


class TestDerivedListsAreLazy:
    @settings(max_examples=200, deadline=None)
    @given(
        small_triples, st.sets(st.integers(0, 7), max_size=3), st.integers(1, 3), st.integers(1, 10), st.integers(0, 12)
    )
    @example(OUT_OF_ORDER_REPEAT, {0}, 1, 10, 0)
    @example(OUT_OF_ORDER_REPEAT, {0}, 2, 10, 4)  # the cut lands in hop 0, so hop 1 is never read
    def test_a_traversal_derives_only_the_lists_it_expands(self, triples, seeds, hops, max_nodes, budget):
        texts = {f"c{i}": f"ctx c{i}" for i in range(3)}
        built = KnowledgeGraph(texts)
        for s, r, o, prov in triples:
            built.upsert_triple(triple(s, r, o, prov))
        built.seal()
        loaded = KnowledgeGraph.from_json_obj(built.to_json_obj(), texts)
        seeds = {seed for seed in seeds if seed < len(built)}
        reference = neighbour_reference(built)
        contexts = sorted_contexts_reference(built)
        for graph in (built, loaded):
            sub = graph.neighborhood(seeds, hops=hops, max_nodes=max_nodes)
            derived = dict(vars(graph).get("_neighbours", {}))
            assert set(derived) == expanded_nodes(sub.nodes, hops, max_nodes)
            assert derived == {node: reference[node] for node in derived}
            assert "_contexts" not in vars(graph)  # a traversal derives no contexts
            kept: dict = {}
            graph.render_subgraph(sub, budget, kept=kept)
            read = dict(vars(graph).get("_contexts", {}))  # the contexts of the hop levels the render reached
            assert set(read) == read_levels(sub, contexts, kept["context_lines"])
            assert read == {node: contexts[node] for node in read}

    def test_first_traversal_not_seal_derives_the_lists(self):
        graph = chain_graph()
        loaded = KnowledgeGraph.from_json_obj(graph.to_json_obj(), {"c0": "ctx-ab", "c1": "ctx-bc"})
        for g in (graph, loaded):
            assert not {"_neighbours", "_contexts", "_target_order"} & set(vars(g))  # seal derived nothing
            g.render_subgraph(g.neighborhood({0}, hops=2))
            assert dict(vars(g)["_contexts"]) == dict(enumerate(sorted_contexts_reference(g)))  # each level's, read
            neighbours = vars(g)["_neighbours"]
            assert dict(neighbours) == {0: [1], 1: [0, 2]}  # the lists of a and b, which it expanded; not c's
            assert g.render_subgraph(g.neighborhood({2}, hops=1)) == "Contexts:\n- ctx-bc\n- ctx-ab\n\nb -[r2]-> c"
            assert vars(g)["_neighbours"] is neighbours  # reused

    @settings(max_examples=200, deadline=None)
    @given(
        small_triples,
        st.lists(st.tuples(st.sets(st.integers(0, 7), max_size=3), st.integers(0, 12), st.booleans()), max_size=4),
    )
    @example(OUT_OF_ORDER_REPEAT, [({0}, 4, True), ({1}, 0, True), ({2}, 12, False)])
    def test_renders_make_the_tokens_of_the_chunks_they_keep(self, triples, renders):
        texts = {f"c{i}": f"ctx c{i} Word{i}." for i in range(3)}
        built = KnowledgeGraph(texts)
        for s, r, o, prov in triples:
            built.upsert_triple(triple(s, r, o, prov))
        built.seal()
        loaded = KnowledgeGraph.from_json_obj(built.to_json_obj(), texts)
        for graph in (built, loaded):
            rendered: set[str] = set()
            for seeds, budget, asked in renders:
                sub = graph.neighborhood({seed for seed in seeds if seed < len(graph)}, hops=2)
                text = graph.render_subgraph(sub, budget, content=set() if asked else None)
                if asked:  # a render nobody asks for tokens makes none
                    rendered.update(line.split()[2] for line in text.split("\n") if line.startswith("- ctx "))
                made = dict(vars(graph).get("text_tokens", {}))
                assert set(made) == {texts[chunk_id] for chunk_id in rendered}
                assert all(set(tokens) == content_tokens(text) for text, tokens in made.items())

    def test_hybrid_queries_make_the_tokens_of_the_chunks_they_render(self, mini_store_dir, mini_questions_path):
        store = open_store(mini_store_dir)
        rendered: set[str] = set()
        scored: set[str] = set()  # the boosted candidates' texts
        for line in mini_questions_path.read_text(encoding="utf-8").splitlines():
            question = json.loads(line)["question"]
            for mode in ("unstructured_only", "structured_only"):  # no boost reads the structured text's tokens
                run_query(store, question, QueryConfig(mode=mode))
                assert set(vars(store.graph).get("text_tokens", {})) == rendered | scored
            config = QueryConfig(mode="hybrid")
            text = run_query(store, question, config).structured_text
            rendered.update(row[2:] for row in text.split("\n\n")[0].split("\n")[1:])  # "- " + text, after the header
            if text:  # with no structured text nothing is boosted
                scored.update(hit[1] for hit in retrieve_unstructured(question, store.make_embedder(), store.vectors, config))
            assert set(vars(store.graph).get("text_tokens", {})) == rendered | scored
        assert rendered <= set(store.graph._chunk_texts.values())
        assert rendered and scored - rendered

    def test_the_token_table_holds_only_the_stores_texts(self, mini_store_dir, mini_questions_path):
        store = open_store(mini_store_dir)
        own = {*store.graph._chunk_texts.values(), *(chunk.text for chunk in store.vectors.metadata.values())}
        for line in mini_questions_path.read_text(encoding="utf-8").splitlines():
            for mode in ("hybrid", "unstructured_only", "structured_only"):
                run_query(store, json.loads(line)["question"], QueryConfig(mode=mode))
                assert set(store.graph.text_tokens) <= own
        assert store.graph.text_tokens

    def test_concurrent_hybrid_queries_share_one_string_per_token(self, mini_store_dir, mini_questions_path):
        questions = [json.loads(line)["question"] for line in mini_questions_path.read_text(encoding="utf-8").splitlines()]
        alone = open_store(mini_store_dir)
        expected = [run_query(alone, question, QueryConfig()) for question in questions]
        store = open_store(mini_store_dir)
        store.graph  # loaded before the threads start, so they share one graph and its empty table
        results: list[list] = []

        def run_all() -> None:
            results.append([run_query(store, question, QueryConfig()) for question in questions])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run_all) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 8
        made = store.graph.text_tokens
        assert set(made) == set(alone.graph.text_tokens)
        strings: dict[str, str] = {}
        for text, tokens in made.items():
            assert set(tokens) == content_tokens(text)
            assert all(strings.setdefault(token, token) is token for token in tokens)  # one string per token

    def test_build_never_derives_the_lists(self, mini_corpus_dir, tmp_path, monkeypatch):
        def fail(*_):
            raise AssertionError("a build derived a traversal list or rendered")

        for name in ("_neighbours", "_contexts", "_target_order", "text_tokens"):
            monkeypatch.setattr(KnowledgeGraph, name, property(fail))
        monkeypatch.setattr(KnowledgeGraph, "_context_order", fail)
        build_store(mini_corpus_dir, tmp_path / "store")
        graph = open_store(tmp_path / "store").graph  # a load derives nothing either
        monkeypatch.undo()
        names = json.loads((tmp_path / "store" / "graph.json").read_text(encoding="utf-8"))["nodes"]
        assert names == [graph.name(i) for i in range(len(graph))]
        assert names and all(contexts and contexts == sorted(set(contexts)) for contexts in node_contexts(graph))

from __future__ import annotations

import pytest

from kgrag.chunking import Chunk
from kgrag.embedding import HashedEmbedder
from kgrag.exceptions import InputError
from kgrag.extraction import RuleExtractor, Triple
from kgrag.graph import KnowledgeGraph
from kgrag.lexical import content_tokens, coverage
from kgrag.retriever import (
    EchoGenerator,
    QueryConfig,
    RemoteGenerator,
    build_unified_context,
    confirmation_boost,
    rank_with_boosts,
    retrieve_hybrid,
    retrieve_unstructured,
)
from kgrag.remote import ChatClient
from kgrag.vector_index import VectorStore

from helpers import FakePost, FakeResponse, chat_payload, record_texts

import kgrag.graph as graph_mod
import kgrag.remote as remote_mod
import kgrag.retriever as retriever_mod

DIM = 64
EMBEDDER = HashedEmbedder(DIM)


def make_store(texts: dict[str, str]) -> VectorStore:
    store = VectorStore(DIM)
    store.add(
        [
            Chunk(chunk_id=cid, token_span=(0, 1), text=text)
            for cid, text in texts.items()
        ],
        EMBEDDER.embed_batch(list(texts.values())),
    )
    store.seal()
    return store


def make_graph(triples: list[tuple[str, str, str]], snippet: str = "ctx") -> KnowledgeGraph:
    graph = KnowledgeGraph({f"{s}-{o}": snippet for s, _, o in triples})
    for s, r, o in triples:
        graph.upsert_triple(Triple(subject=s, relation=r, object=o, provenance=f"{s}-{o}"))
    graph.seal()
    return graph


def empty_graph() -> KnowledgeGraph:
    graph = KnowledgeGraph({})
    graph.seal()
    return graph


CHAIN = [("alpha", "feeds", "bravo"), ("bravo", "feeds", "charlie")]
BUDGET_KEYS = (
    "structured_token_budget", "structured_tokens", "context_lines_kept", "edge_lines_kept", "subgraph_nodes"
)


def structured_only(question: str, graph: KnowledgeGraph, **config) -> tuple[list[str], str]:
    """The structured-only path: (matched entity names, rendered graph text)."""
    result = retrieve_hybrid(
        question,
        embedder=EMBEDDER,
        store=make_store({}),
        extractor=RuleExtractor(),
        graph=graph,
        config=QueryConfig(mode="structured_only", **config),
    )
    return result.diagnostics["matched_entities"], result.structured_text


class TestRetrieveStructured:
    def test_entity_question_renders_its_name(self):
        graph = make_graph(CHAIN)
        matched, text = structured_only("Tell me about Alpha.", graph)
        assert matched
        assert "alpha" in text

    def test_no_entities_empty_result(self):
        graph = make_graph(CHAIN)
        matched, text = structured_only("nothing capitalized here", graph)
        assert not matched
        assert text == ""

    def test_chain_visible_at_two_hops(self):
        graph = make_graph(CHAIN)
        _, text = structured_only("What does Alpha feed?", graph, hops=2)
        assert "alpha -[feeds]-> bravo" in text
        assert "bravo -[feeds]-> charlie" in text

    def test_one_hop_misses_far_edge(self):
        graph = make_graph(CHAIN)
        _, text = structured_only("What does Alpha feed?", graph, hops=1)
        assert "alpha -[feeds]-> bravo" in text
        assert "charlie" not in text


class TestRetrieveUnstructured:
    def test_identical_text_ranks_first(self):
        store = make_store(
            {
                "c0": "olive oil and bread",
                "c1": "volcanic soil tomatoes",
                "c2": "fresh pasta from the north",
            }
        )
        hits = retrieve_unstructured("volcanic soil tomatoes", EMBEDDER, store, QueryConfig())
        assert hits[0][0] == "c1"
        assert hits[0][2] == pytest.approx(1.0, abs=1e-6)

    def test_empty_store(self):
        store = VectorStore(DIM)
        store.seal()
        assert retrieve_unstructured("anything", EMBEDDER, store, QueryConfig()) == []

    def test_matches_direct_top_k(self):
        store = make_store({f"c{i}": f"text number {i} about food" for i in range(10)})
        config = QueryConfig(top_n_candidates=5, final_m_chunks=5)
        hits = retrieve_unstructured("food text three", EMBEDDER, store, config)
        direct = store.top_k(EMBEDDER.embed("food text three"), 5)
        assert [(cid, score) for cid, _, score in hits] == direct


def boost(chunk_text: str, structured_text: str) -> float:
    return confirmation_boost(content_tokens(chunk_text), content_tokens(structured_text))


class TestConfirmationBoost:
    def test_empty_structured_zero(self):
        assert boost("rome hosts festivals", "") == 0.0

    def test_chunk_subset_of_structured_is_one(self):
        assert boost("rome italy", "rome -[capital_of]-> italy") == 1.0

    def test_one_third_overlap(self):
        assert boost("rome hosts festivals", "rome -[capital_of]-> italy") == pytest.approx(1 / 3)

    def test_empty_chunk_zero(self):
        assert boost("", "rome -[r]-> italy") == 0.0

    def test_bounded(self):
        assert 0.0 <= boost("a b c d", "b d x y") <= 1.0


class TestRanking:
    def test_beta_zero_keeps_cosine_order(self):
        candidates = [("a", "t1", 0.9), ("b", "t2", 0.8), ("c", "t3", 0.7)]
        ranked = rank_with_boosts(candidates, [0.0, 1.0, 1.0], beta=0.0)
        assert [c.chunk_id for c in ranked] == ["a", "b", "c"]
        assert all(c.final_score == c.cosine_score for c in ranked)

    def test_boost_breaks_exact_tie(self):
        candidates = [("plain", "x", 0.5), ("boosted", "y", 0.5)]
        ranked = rank_with_boosts(candidates, [0.0, 0.5], beta=0.25)
        assert [c.chunk_id for c in ranked] == ["boosted", "plain"]

    def test_tie_with_equal_final_keeps_cosine_rank(self):
        candidates = [("first", "x", 0.5), ("second", "y", 0.5)]
        ranked = rank_with_boosts(candidates, [0.2, 0.2], beta=0.25)
        assert [c.chunk_id for c in ranked] == ["first", "second"]

    def test_final_score_formula(self):
        candidates = [("a", "t", 0.4)]
        (scored,) = rank_with_boosts(candidates, [0.5], beta=0.25)
        assert scored.final_score == pytest.approx(0.4 + 0.25 * 0.5)

    def test_monotone_boost_never_demotes(self):
        import random

        rng = random.Random(21)
        for _ in range(100):
            n = rng.randint(2, 8)
            cosines = sorted((round(rng.uniform(0, 1), 3) for _ in range(n)), reverse=True)
            boosts = [round(rng.uniform(0, 1), 3) for _ in range(n)]
            beta = rng.choice([0.1, 0.25, 1.0])
            target = rng.randrange(n)
            candidates = [(f"c{i}", f"t{i}", cosines[i]) for i in range(n)]
            before = [c.chunk_id for c in rank_with_boosts(candidates, boosts, beta)]
            raised = boosts[:]
            raised[target] = min(1.0, raised[target] + rng.uniform(0, 1))
            after = [c.chunk_id for c in rank_with_boosts(candidates, raised, beta)]
            assert after.index(f"c{target}") <= before.index(f"c{target}")


class TestUnifiedContext:
    def test_both_sections(self):
        text = build_unified_context("a -[r]-> b", ["chunk one", "chunk two"])
        assert text.startswith("KNOWLEDGE GRAPH:\na -[r]-> b")
        assert "\n\nPASSAGES:\nchunk one\n---\nchunk two" in text

    def test_empty_sections_omitted(self):
        assert build_unified_context("", ["only chunk"]) == "PASSAGES:\nonly chunk"
        assert build_unified_context("a -[r]-> b", []) == "KNOWLEDGE GRAPH:\na -[r]-> b"
        assert build_unified_context("", []) == ""


class TestRetrieveHybrid:
    def deps(self):
        store = make_store(
            {
                "c0": "alpha grain stores",
                "c1": "bravo mill output",
                "c2": "charlie bakery bread",
                "c3": "unrelated seaside town",
            }
        )
        graph = make_graph(CHAIN, snippet="alpha feeds bravo daily")
        return dict(embedder=EMBEDDER, store=store, extractor=RuleExtractor(), graph=graph)

    def test_each_line_and_candidate_tokenized_once_warm_query_none(self, monkeypatch):
        texts = record_texts(monkeypatch, graph_mod)
        deps = self.deps()
        question = "Where does Alpha store grain?"
        for mode in ("structured_only", "unstructured_only"):
            retrieve_hybrid(question, **deps, config=QueryConfig(mode=mode))
        retrieve_hybrid(question, **{**deps, "store": make_store({})})  # structured text, no candidate to boost
        assert texts == [] and "text_tokens" not in vars(deps["graph"])
        config = QueryConfig(top_n_candidates=4, final_m_chunks=4)
        result = retrieve_hybrid(question, **deps, config=config)
        lines = result.structured_text.split("\n")
        assert len(set(lines)) < len(lines)  # both chunks hold one text, so two lines repeat
        made = vars(deps["graph"])["text_tokens"]
        assert set(made) == {*lines, *(c.text for c in result.ranked_chunks)}
        assert sorted(texts) == sorted(made)  # each distinct text tokenized once, the structured text never whole
        texts.clear()
        again = retrieve_hybrid(question, **deps, config=config)
        assert again == result and texts == []  # a warm query tokenizes nothing
        structured = content_tokens(result.structured_text)
        boosts = [coverage(content_tokens(c.text), structured) for c in result.ranked_chunks]
        assert [c.boost.hex() for c in result.ranked_chunks] == [b.hex() for b in boosts]  # bit for bit
        assert any(boosts)

    def test_no_structured_text_no_tokenizing(self, monkeypatch):
        texts = record_texts(monkeypatch, retriever_mod)
        config = QueryConfig(mode="unstructured_only", top_n_candidates=4, final_m_chunks=4)
        result = retrieve_hybrid("Where does Alpha store grain?", **self.deps(), config=config)
        assert texts == []
        assert len(result.ranked_chunks) == 4
        assert all(c.boost == 0.0 and c.final_score == c.cosine_score for c in result.ranked_chunks)
        hybrid = retrieve_hybrid("where is grain stored", **self.deps(), config=QueryConfig(top_n_candidates=4))
        assert hybrid.structured_text == "" and texts == []

    def test_beta_zero_equals_pure_cosine(self):
        config = QueryConfig(beta=0.0, top_n_candidates=4, final_m_chunks=4)
        result = retrieve_hybrid("Where does Alpha store grain?", **self.deps(), config=config)
        cosine_order = sorted(
            result.ranked_chunks, key=lambda c: -c.cosine_score
        )
        assert [c.chunk_id for c in result.ranked_chunks] == [c.chunk_id for c in cosine_order]
        assert all(c.final_score == c.cosine_score for c in result.ranked_chunks)

    def test_unstructured_only_mode(self):
        config = QueryConfig(mode="unstructured_only", top_n_candidates=3, final_m_chunks=3)
        result = retrieve_hybrid("Where does Alpha store grain?", **self.deps(), config=config)
        assert result.structured_text == ""
        assert "KNOWLEDGE GRAPH:" not in result.unified_context
        assert len(result.ranked_chunks) == 3

    def test_structured_only_mode(self):
        config = QueryConfig(mode="structured_only")
        result = retrieve_hybrid("Where does Alpha store grain?", **self.deps(), config=config)
        assert result.ranked_chunks == []
        assert "PASSAGES:" not in result.unified_context
        assert "alpha" in result.structured_text

    def test_beta_zero_empty_graph_reproduces_unstructured(self):
        deps = self.deps()
        deps["graph"] = empty_graph()
        config = QueryConfig(beta=0.0, top_n_candidates=4, final_m_chunks=4)
        result = retrieve_hybrid("bravo mill output", **deps, config=config)
        plain = retrieve_unstructured("bravo mill output", EMBEDDER, deps["store"], config)
        assert [(c.chunk_id, c.cosine_score) for c in result.ranked_chunks] == [
            (cid, score) for cid, _, score in plain
        ]
        assert all(c.boost == 0.0 for c in result.ranked_chunks)
        assert result.structured_text == ""

    def test_final_m_truncates_prefix_of_full_ranking(self):
        config_full = QueryConfig(beta=0.25, top_n_candidates=4, final_m_chunks=4)
        config_two = QueryConfig(beta=0.25, top_n_candidates=4, final_m_chunks=2)
        question = "What does Alpha feed?"
        full = retrieve_hybrid(question, **self.deps(), config=config_full)
        two = retrieve_hybrid(question, **self.deps(), config=config_two)
        assert [c.chunk_id for c in two.ranked_chunks] == [
            c.chunk_id for c in full.ranked_chunks
        ][:2]

    def test_union_coverage_with_full_final_m(self):
        question = "What does Alpha feed?"
        config = QueryConfig(top_n_candidates=4, final_m_chunks=4)
        hybrid = retrieve_hybrid(question, **self.deps(), config=config)
        semantic = retrieve_hybrid(
            question, **self.deps(), config=QueryConfig(mode="unstructured_only", top_n_candidates=4, final_m_chunks=4)
        )
        kg = retrieve_hybrid(
            question, **self.deps(), config=QueryConfig(mode="structured_only")
        )
        assert {c.chunk_id for c in hybrid.ranked_chunks} == {
            c.chunk_id for c in semantic.ranked_chunks
        }
        assert kg.structured_text in hybrid.unified_context
        for chunk in semantic.ranked_chunks:
            assert chunk.text in hybrid.unified_context

    def test_exact_cosine_tie_overlap_wins_for_positive_beta(self):
        # "alpha" and "shore" hash to different buckets; both chunks sit at the
        # same angle to the two-token query, so their cosines are bit-equal.
        store = make_store({"plain": "shore", "confirmed": "alpha"})
        graph = make_graph(CHAIN, snippet="alpha feeds")
        config = QueryConfig(top_n_candidates=2, final_m_chunks=2, beta=0.25)
        result = retrieve_hybrid(
            "Alpha shore",
            embedder=EMBEDDER,
            store=store,
            extractor=RuleExtractor(),
            graph=graph,
            config=config,
        )
        by_id = {c.chunk_id: c for c in result.ranked_chunks}
        assert by_id["plain"].cosine_score == by_id["confirmed"].cosine_score
        assert [c.chunk_id for c in result.ranked_chunks] == ["confirmed", "plain"]

    def test_both_retrievers_empty_sets_flag(self):
        store = VectorStore(DIM)
        store.seal()
        result = retrieve_hybrid(
            "no capitals at all",
            embedder=EMBEDDER,
            store=store,
            extractor=RuleExtractor(),
            graph=empty_graph(),
            config=QueryConfig(),
        )
        assert result.unified_context == ""
        assert result.diagnostics["empty"] is True

    @pytest.mark.parametrize("mode", ["hybrid", "unstructured_only", "structured_only"])
    def test_question_without_tokens_rejected(self, mode):
        with pytest.raises(InputError, match="at least one token"):
            retrieve_hybrid(" \t\n", **self.deps(), config=QueryConfig(mode=mode))

    def test_diagnostics_contents(self):
        result = retrieve_hybrid("How is Alpha tied to Atlantis?", **self.deps(), config=QueryConfig())
        assert result.diagnostics["matched_entities"] == ["alpha"]
        assert any("Atlantis" in m for m in result.diagnostics["unmatched_mentions"])
        assert result.diagnostics["candidate_count"] == 4
        assert result.diagnostics["empty"] is False

    def test_budget_diagnostics(self):
        deps = self.deps()
        full = retrieve_hybrid("What does Alpha feed?", **deps, config=QueryConfig())
        # both chunks (alpha-bravo, bravo-charlie) hold "alpha feeds bravo daily": 1 + 5 + 5 + 3 + 3 tokens
        assert full.structured_text.split("\n")[-2:] == ["alpha -[feeds]-> bravo", "bravo -[feeds]-> charlie"]
        assert [full.diagnostics[k] for k in BUDGET_KEYS] == [1024, 17, 2, 2, 3]
        long_snippet = " ".join(["word"] * 600)  # each context line 601 tokens: the second passes 1024
        cut = retrieve_hybrid("What does Alpha feed?", **{**deps, "graph": make_graph(CHAIN, snippet=long_snippet)})
        assert cut.structured_text == f"Contexts:\n- {long_snippet}"
        assert [cut.diagnostics[k] for k in BUDGET_KEYS] == [1024, 602, 1, 0, 3]
        semantic = retrieve_hybrid("What does Alpha feed?", **deps, config=QueryConfig(mode="unstructured_only"))
        assert [semantic.diagnostics[k] for k in BUDGET_KEYS] == [1024, 0, 0, 0, 0]

    def test_deterministic_unified_context(self):
        config = QueryConfig()
        first = retrieve_hybrid("What does Alpha feed?", **self.deps(), config=config)
        second = retrieve_hybrid("What does Alpha feed?", **self.deps(), config=config)
        assert first.unified_context == second.unified_context


class TestGenerateAnswer:
    def test_echo_returns_context_verbatim(self):
        context = "KNOWLEDGE GRAPH:\na -[r]-> b"
        assert EchoGenerator().generate("q?", context) == context

    def test_echo_empty_context(self):
        assert EchoGenerator().generate("q?", "") == ""

    def test_remote_returns_model_text(self, monkeypatch):
        fake = FakePost([FakeResponse(200, chat_payload("Rome."))])
        monkeypatch.setattr(remote_mod, "_send", fake)
        generator = RemoteGenerator(ChatClient(endpoint_url="http://c.test/v1/chat/completions", model_name="m"))
        assert generator.generate("Capital of Italy?", "Context here") == "Rome."
        sent = fake.calls[0]["json"]
        assert sent["messages"][0]["role"] == "system"
        assert "Context here" in sent["messages"][1]["content"]
        assert "Capital of Italy?" in sent["messages"][1]["content"]


class TestQueryConfig:
    def test_defaults(self):
        config = QueryConfig()
        assert (config.top_n_candidates, config.final_m_chunks, config.hops, config.beta) == (
            8,
            4,
            2,
            0.25,
        )
        assert config.mode == "hybrid"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"final_m_chunks": 9},
            {"beta": -0.1},
            {"hops": 0},
            {"mode": "psychic"},
            {"top_n_candidates": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QueryConfig(**kwargs)

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, strategies as st

from kgrag.corpus import split_sentences
from kgrag.exceptions import ProviderError
from kgrag.extraction import (
    ENTITY_STOPWORDS,
    EXTRACTION_USER_TEMPLATE,
    FALLBACK_RELATION,
    MAX_RELATION_GAP,
    QUERY_STOPWORDS,
    EntityMention,
    RemoteExtractor,
    RuleExtractor,
    Triple,
    normalize_entity,
    query_ner,
    snake_case,
)
from kgrag.remote import ChatClient

from helpers import FakePost, FakeResponse, chat_payload

import kgrag.remote as remote_mod


class TestEntityRule:
    def test_two_entities(self):
        mentions = RuleExtractor().entities("Rome is the capital of Italy.")
        assert [m.normalized for m in mentions] == ["rome", "italy"]

    def test_no_capitals_no_entities(self):
        assert RuleExtractor().entities("the quick brown fox") == []

    def test_leading_stopword_trimmed_from_run(self):
        mentions = RuleExtractor().entities("The Amalfi Coast attracts tourists.")
        assert [m.normalized for m in mentions] == ["amalfi coast"]

    def test_lone_stopword_dropped(self):
        assert RuleExtractor().entities("The weather is nice.") == []

    def test_multiple_leading_stopwords_trimmed(self):
        mentions = RuleExtractor().entities("On The Amalfi Coast olives grow.")
        assert [m.normalized for m in mentions] == ["amalfi coast"]

    def test_order_of_first_appearance_with_dedup(self):
        mentions = RuleExtractor().entities("Naples loves Naples and Rome follows Naples.")
        assert [m.normalized for m in mentions] == ["naples", "rome"]

    def test_surface_keeps_original_casing(self):
        (m,) = RuleExtractor().entities("tourists climb Vesuvius!")
        assert m.surface == "Vesuvius!"
        assert m.normalized == "vesuvius"


class TestNormalization:
    def test_lowercase_collapse_strip(self):
        assert normalize_entity("  Pecorino   Romano,  ") == "pecorino romano"

    @given(st.text(max_size=60))
    def test_idempotent(self, text):
        once = normalize_entity(text)
        assert normalize_entity(once) == once

    def test_snake_case(self):
        assert snake_case("Capital Of") == "capital_of"
        assert snake_case("is-the: capital!!of") == "is_the_capital_of"


class TestTripleRule:
    def test_gap_becomes_relation(self):
        (triple,) = RuleExtractor().triples(["Rome is the capital of Italy."])
        assert triple == Triple(subject="rome", relation="is_the_capital_of", object="italy")

    def test_single_entity_no_triples(self):
        assert RuleExtractor().triples(["Rome shines in the evening sun."]) == []

    def test_long_gap_falls_back_to_related_to(self):
        (triple,) = RuleExtractor().triples(["Rome lies quite far away from the region called Lazio."])
        assert triple.relation == "related_to"
        assert (triple.subject, triple.object) == ("rome", "lazio")

    def test_gap_punctuation_stripped(self):
        (triple,) = RuleExtractor().triples(["Parma gave (the world) Parmigiano."])
        assert triple.relation == "gave_the_world"

    def test_chain_of_three_entities(self):
        triples = RuleExtractor().triples(["Margherita honors Queen Margherita of Savoy."])
        assert [(t.subject, t.relation, t.object) for t in triples] == [
            ("margherita", "honors", "queen margherita"),
            ("queen margherita", "of", "savoy"),
        ]

    def test_provenance_carried(self):
        (triple,) = RuleExtractor().triples(["Rome rules Lazio."], provenance="chunk-9")
        assert triple.provenance == "chunk-9"

    def test_subjects_and_objects_are_extracted_entities(self):
        sentences = [
            "Rome is the capital of Italy.",
            "Parma gave the world Parmigiano-Reggiano and prosciutto.",
            "The Margherita honors Queen Margherita of Savoy.",
        ]
        for sentence in sentences:
            entities = {m.normalized for m in RuleExtractor().entities(sentence)}
            for triple in RuleExtractor().triples([sentence]):
                assert triple.subject in entities
                assert triple.object in entities


class TestQueryNer:
    def test_interrogative_dropped(self):
        mentions = query_ner("What is the capital of Italy?", RuleExtractor())
        assert [m.normalized for m in mentions] == ["italy"]

    def test_no_entities(self):
        assert query_ner("what is cooking?", RuleExtractor()) == []

    def test_duplicates_merged(self):
        mentions = query_ner("Which Rome resembles old Rome most?", RuleExtractor())
        assert [m.normalized for m in mentions] == ["rome"]

    def test_interrogative_leading_a_run(self):
        mentions = query_ner("Which Sicilian dessert is famous?", RuleExtractor())
        assert [m.normalized for m in mentions] == ["sicilian"]


def chat_client() -> ChatClient:
    return ChatClient(endpoint_url="http://chat.test/v1/chat/completions", model_name="chat-1")


class TestRemoteExtractor:
    def test_parses_triples(self, monkeypatch):
        body = json.dumps(
            [{"subject": "Rome", "relation": "capital of", "object": "Italy"}]
        )
        fake = FakePost([FakeResponse(200, chat_payload(body))])
        monkeypatch.setattr(remote_mod, "_send", fake)
        (triple,) = RemoteExtractor(chat_client()).triples(["Rome is the capital of Italy."])
        assert triple == Triple(subject="Rome", relation="capital_of", object="Italy")

    def test_empty_array_ok(self, monkeypatch):
        fake = FakePost([FakeResponse(200, chat_payload("[]"))])
        monkeypatch.setattr(remote_mod, "_send", fake)
        assert RemoteExtractor(chat_client()).triples(["nothing here"]) == []

    def test_prose_then_repair_succeeds(self, monkeypatch):
        good = json.dumps([{"subject": "a", "relation": "r", "object": "b"}])
        fake = FakePost(
            [
                FakeResponse(200, chat_payload("Sure! Here are the triples you asked for.")),
                FakeResponse(200, chat_payload(good)),
            ]
        )
        monkeypatch.setattr(remote_mod, "_send", fake)
        (triple,) = RemoteExtractor(chat_client()).triples(["text"])
        assert triple.relation == "r"
        assert "Return only valid JSON." in fake.calls[1]["json"]["messages"][1]["content"]

    def test_prose_after_repair_is_error(self, monkeypatch):
        fake = FakePost(
            [
                FakeResponse(200, chat_payload("no json here")),
                FakeResponse(200, chat_payload("still chatting")),
            ]
        )
        monkeypatch.setattr(remote_mod, "_send", fake)
        with pytest.raises(ProviderError, match="still chatting"):
            RemoteExtractor(chat_client()).triples(["text"])

    def test_invalid_items_skipped_with_count(self, monkeypatch, caplog):
        body = json.dumps(
            [
                {"subject": "a", "relation": "r", "object": "b"},
                {"subject": "", "relation": "r", "object": "b"},
                "not an object",
                {"subject": "c", "object": "d"},
            ]
        )
        fake = FakePost([FakeResponse(200, chat_payload(body))])
        monkeypatch.setattr(remote_mod, "_send", fake)
        with caplog.at_level("WARNING"):
            triples = RemoteExtractor(chat_client()).triples(["text"])
        assert len(triples) == 1
        assert any("3" in r.message for r in caplog.records)

    def test_non_string_fields_skipped_with_count(self, monkeypatch, caplog):
        # Coerced with str(), the first item would add the nodes "none" and "7".
        body = json.dumps(
            [
                {"subject": None, "relation": "near", "object": 7},
                {"subject": "Rome", "relation": ["capital", "of"], "object": "Italy"},
                {"subject": "Rome", "relation": "near", "object": {"name": "Ostia"}},
                {"subject": "Rome", "relation": "near", "object": "Ostia"},
            ]
        )
        fake = FakePost([FakeResponse(200, chat_payload(body))])
        monkeypatch.setattr(remote_mod, "_send", fake)
        with caplog.at_level("WARNING"):
            triples = RemoteExtractor(chat_client()).triples(["text"])
        assert triples == [Triple(subject="Rome", relation="near", object="Ostia")]
        assert [r.message for r in caplog.records] == [
            "skipped 3 invalid triple item(s) from extraction response"
        ]

    def test_punctuation_only_names_skipped_with_count(self, monkeypatch, caplog):
        # Both names normalize to "", so kept they would become one node linking Rome to Tokyo.
        body = json.dumps(
            [
                {"subject": "Rome", "relation": "near", "object": "???"},
                {"subject": " !!! ", "relation": "near", "object": "Tokyo"},
                {"subject": "Rome", "relation": "near", "object": "Ostia."},
            ]
        )
        fake = FakePost([FakeResponse(200, chat_payload(body))])
        monkeypatch.setattr(remote_mod, "_send", fake)
        with caplog.at_level("WARNING"):
            triples = RemoteExtractor(chat_client()).triples(["text"])
        assert triples == [Triple(subject="Rome", relation="near", object="Ostia.")]
        assert [r.message for r in caplog.records] == [
            "skipped 2 invalid triple item(s) from extraction response"
        ]

    def test_triples_send_the_space_joined_sentences(self, monkeypatch):
        fake = FakePost([FakeResponse(200, chat_payload("[]"))] * 2)
        monkeypatch.setattr(remote_mod, "_send", fake)
        extractor = RemoteExtractor(chat_client())
        assert extractor.triples(["Naples Pizza", "It is from Rome."], provenance="d#s0") == []
        assert extractor.entities("Naples Pizza It is from Rome.") == []
        prompts = [call["json"]["messages"][1]["content"] for call in fake.calls]
        assert prompts == [EXTRACTION_USER_TEMPLATE.format(text="Naples Pizza It is from Rome.")] * 2

    @pytest.mark.parametrize("extractor", [RuleExtractor(), RemoteExtractor(chat_client())], ids=["rule", "remote"])
    def test_bare_string_is_type_error(self, monkeypatch, extractor):
        fake = FakePost([])
        monkeypatch.setattr(remote_mod, "_send", fake)
        with pytest.raises(TypeError, match="sentences must be a list of strings, not a str"):
            extractor.triples("Rome rules Lazio.")
        assert fake.calls == []

    def test_entity_pass_collects_endpoints(self, monkeypatch):
        body = json.dumps(
            [
                {"subject": "Rome", "relation": "capital_of", "object": "Italy"},
                {"subject": "Rome", "relation": "hosts", "object": "Vatican"},
                {"subject": "Which", "relation": "is", "object": "The"},  # query stopwords are dropped
            ]
        )
        fake = FakePost([FakeResponse(200, chat_payload(body))])
        monkeypatch.setattr(remote_mod, "_send", fake)
        mentions = RemoteExtractor(chat_client()).entities("whatever")
        assert [m.normalized for m in mentions] == ["rome", "italy", "vatican"]


class TestRuleExtractorInterface:
    def test_multi_sentence_text(self):
        extractor = RuleExtractor()
        text = "Rome rules Lazio. Naples rules Campania."
        assert len(extractor.triples(split_sentences(text))) == 2
        assert [m.normalized for m in extractor.entities(text)] == [
            "rome",
            "lazio",
            "naples",
            "campania",
        ]

    def test_sentences_are_not_split_again(self):
        # A heading without a terminator stays its own sentence: no triple across it.
        assert RuleExtractor().triples(["Naples Pizza", "It is from Rome."], "d#s0") == []
        assert RuleExtractor().triples(["Naples Pizza It is from Rome."], "d#s0") == [
            Triple(subject="naples pizza it", relation="is_from", object="rome", provenance="d#s0")
        ]

    def test_pure_and_deterministic(self):
        extractor = RuleExtractor()
        text = "Parma gave the world Parmigiano-Reggiano."
        assert extractor.triples(split_sentences(text)) == extractor.triples(split_sentences(text))
        assert extractor.entities(text) == extractor.entities(text)

    @given(st.text(max_size=120))
    def test_never_raises_and_endpoints_non_empty(self, text):
        for triple in RuleExtractor().triples(split_sentences(text)):
            assert triple.subject and triple.object and triple.relation


def _reference_strip(token: str) -> str:
    """``strip_edge_punctuation`` with its character loops on every token."""
    start, end = 0, len(token)
    while start < end and not token[start].isalnum():
        start += 1
    while end > start and not token[end - 1].isalnum():
        end -= 1
    return token[start:end]


def _reference_mentions(tokens: list[str], stopwords: frozenset[str]) -> list[tuple[int, int, str, str]]:
    """The per-token mention loop the shape-string finder replaced, kept as its reference.

    (start, end, surface, normalized) of each maximal run of tokens whose
    first character is uppercase, with leading stopwords trimmed.
    """
    mentions: list[tuple[int, int, str, str]] = []
    i = 0
    n = len(tokens)
    while i < n:
        if tokens[i][:1].isupper():
            start = i
            while i < n and tokens[i][:1].isupper():
                i += 1
            while start < i and _reference_strip(tokens[start]) in stopwords:
                start += 1
            if start < i:
                surface = " ".join(tokens[start:i])
                mentions.append((start, i, surface, normalize_entity(surface)))
        else:
            i += 1
    return mentions


def _reference_entities(sentences: list[str], stopwords: frozenset[str]) -> list[tuple[str, str]]:
    mentions: list[tuple[str, str]] = []
    seen: set[str] = set()
    for sentence in sentences:
        for _, _, surface, normalized in _reference_mentions(sentence.split(), stopwords):
            if normalized and normalized not in seen:
                seen.add(normalized)
                mentions.append((surface, normalized))
    return mentions


def _reference_triples(sentence: str, provenance: str) -> list[tuple[str, str, str, str]]:
    tokens = sentence.split()
    mentions = _reference_mentions(tokens, ENTITY_STOPWORDS)
    triples = []
    for (_, end, _, subject), (start, _, _, obj) in zip(mentions, mentions[1:]):
        gap = tokens[end:start]
        if 1 <= len(gap) <= MAX_RELATION_GAP:
            words = [_reference_strip(t.lower()) for t in gap]
            relation = "_".join(w for w in words if w) or FALLBACK_RELATION
        else:
            relation = FALLBACK_RELATION
        if subject and obj:
            triples.append((subject, relation, obj, provenance))
    return triples


def _reference_query_entities(text: str) -> list[tuple[str, str]]:
    return _reference_entities(split_sentences(text), QUERY_STOPWORDS)


# Capitals in several scripts: titlecase ǅ (not uppercase, so never a
# capital), ℍ (uppercase with no lowercase form), the astral 𐐀, circled Ⓐ
# (a capital whose normalized form is empty), and words whose lowercasing is
# context-sensitive. Stopwords and interrogatives lead, fill or (with edge
# punctuation, as "The,") end a run, and a run may be stopwords only.
_RUN_WORDS = ["Rome", "Amalfi", "Coast", "ΟΔΟΣ", "İzmir", "Ⓐ", "Ⓐrles", "ǅ", "ǅemal", "Italy.", "Rome,", "(Naples)",
              "The", "A", "The,", "(The", "What", "Which", "Ὀδυσσεύς", "ℍ", "ℍilbert", "𐐀", "𐐀ra", "It.", "And!",
              "Ⓑ!", "𐐀,", "Зима"]
_GAP_WORDS = ["is", "the", "of", "capital", "!!", "—", "...", "-[x]->", "don't", "ǆ", "ⓐ", "σ", "42", "«rome»", "é",
              "𐐨", "ℎ", "xΣ", "aΣ'", "oİ,"]
_STOPWORD_RUNS = ["The", "The,", "A", "It", "And", "What", "Which,"]
_SPACES = [" ", " ", "\xa0", "\t", "\u2003"]


@st.composite
def _rule_sentences(draw) -> str:
    """Capitalized runs separated by gaps of 0 to 6 tokens (runs may still merge or vanish)."""
    words = draw(st.lists(st.sampled_from(_GAP_WORDS), max_size=2))
    for _ in range(draw(st.integers(0, 5))):
        runs = st.sampled_from(_STOPWORD_RUNS) if draw(st.integers(0, 4)) == 0 else st.sampled_from(_RUN_WORDS)
        words += draw(st.lists(runs, min_size=1, max_size=3))
        gap = draw(st.sampled_from([0, 1, 4, 5, 2, 3, 6]))
        words += draw(st.lists(st.sampled_from(_GAP_WORDS), min_size=gap, max_size=gap))
    spaces = draw(st.lists(st.sampled_from(_SPACES), min_size=len(words), max_size=len(words)))
    return "".join(w + s for w, s in zip(words, spaces)) + draw(st.sampled_from(["", ".", "?"]))


_CHUNKS = st.lists(
    st.tuples(st.lists(_rule_sentences(), min_size=1, max_size=4), st.sampled_from(["", "d#s0", "d#s1"])),
    min_size=1,
    max_size=6,
)


def _tables(extractor: RuleExtractor) -> list[dict]:
    return [dict(extractor.shape), dict(extractor.normalized)]


class TestRuleExtractorReference:
    @given(st.lists(_rule_sentences(), min_size=1, max_size=4), st.sampled_from(["", "d#s0"]))
    @example(["The Amalfi Coast is near Rome."], "")
    @example(["Rome Ⓐ ǅemal is Naples, Ⓐrles the of is Italy."], "p")
    @example(["Rome Naples . Italy is the of ΟΔΟΣ !! — ... -[x]-> Italy"], "p")  # gaps of 0, 1, 4 and 5
    @example(["Rome is Amalfi is the of capital Coast is the of capital don't İzmir."], "p")
    @example(["ℍ is 𐐀ra of The, And! Ⓑ! is Rome\xa0of\u2003Зима."], "p")
    @example(["Rome of Amalfi Coast", "Naples", "", "The And", "Ⓑ is Ⓐ Ⓒ"], "p")  # no pair across sentences
    def test_triples_equal_the_reference(self, sentences, provenance):
        got = RuleExtractor().triples(sentences, provenance)
        assert all(type(t) is Triple for t in got)
        assert [tuple(t) for t in got] == [t for s in sentences for t in _reference_triples(s, provenance)]

    @given(st.lists(_rule_sentences(), min_size=1, max_size=3).map(" ".join))
    @example("What is The Amalfi Coast? Which Rome, which Ⓐ ǅemal?")
    @example("The, It And! are 𐐀ra. Which, ℍ?")
    def test_query_entities_equal_the_reference(self, question):
        got = RuleExtractor().entities(question)
        assert [(m.surface, m.normalized) for m in got] == _reference_query_entities(question)

    @given(_rule_sentences(), st.sampled_from(["", "d#s0"]))
    @example("Ⓐ is Rome of Ⓑ! and ℍ", "p")
    def test_extract_triples_rule_equals_the_reference(self, sentence, provenance):
        got = RuleExtractor().triples([sentence], provenance)
        assert all(type(t) is Triple for t in got)
        assert [tuple(t) for t in got] == _reference_triples(sentence, provenance)

    @given(_rule_sentences())
    @example("What\u2003The 𐐀 It Ⓐ")
    def test_extract_entities_rule_equals_the_reference(self, sentence):
        got = RuleExtractor().entities(sentence)
        assert [(m.surface, m.normalized) for m in got] == _reference_query_entities(sentence)


class TestRuleExtractorTables:
    @given(_CHUNKS)
    def test_one_extractor_over_many_chunks_equals_a_fresh_one_per_chunk(self, chunks):
        extractor = RuleExtractor()
        reused = [extractor.triples(sentences, provenance) for sentences, provenance in chunks]
        assert reused == [RuleExtractor().triples(sentences, provenance) for sentences, provenance in chunks]

    @given(_CHUNKS, st.lists(_rule_sentences(), min_size=1, max_size=3).map(" ".join))
    def test_entities_leaves_the_tables_unchanged(self, chunks, question):
        extractor = RuleExtractor()
        for sentences, provenance in chunks:
            extractor.triples(sentences, provenance)
        before = _tables(extractor)
        extractor.entities(question)
        query_ner(question, extractor)
        assert _tables(extractor) == before

    def test_tables_hold_each_distinct_token_and_surface_once(self):
        extractor = RuleExtractor()
        extractor.triples(["Rome is near Naples.", "Rome is near Naples."], "d#s0")
        extractor.triples(["Naples is near Rome."], "d#s1")
        assert extractor.shape == {"": "|", "Rome": "U", "is": "l", "near": "l", "Naples.": "U", "Naples": "U", "Rome.": "U"}
        assert extractor.normalized == {"Rome": "rome", "Naples.": "naples", "Naples": "naples", "Rome.": "rome"}

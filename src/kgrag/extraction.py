"""Entity and relationship extraction: rule-based and remote LLM paths.

Triples come from a list of sentences, a semantic chunk's, never split again.
The rule extractor is deterministic: capitalized token runs become entity
mentions, and consecutive mention pairs in a sentence become triples whose
relation is the (short) token gap between them. One span finder serves
both triples and entities and normalizes each mention once, and a triple
is a ``NamedTuple`` of normalized names. The remote extractor sends
the space-joined sentences in a fixed prompt to a chat endpoint and parses
strict-JSON triples, with one repair retry; it skips items whose fields are
not all strings. Both expose the same interface so the indexing pipeline
and query-time NER do not care which one they got.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from typing import NamedTuple

from .corpus import split_sentences, string_list, tokenize
from .exceptions import ProviderError
from .lexical import strip_edge_punctuation
from .remote import ChatClient

logger = logging.getLogger(__name__)

# Single-token candidates in this list are dropped, and leading stopwords are
# trimmed from longer candidates ("The Amalfi Coast" -> "Amalfi Coast").
ENTITY_STOPWORDS = frozenset(
    {"The", "A", "An", "It", "He", "She", "They", "This", "That",
     "In", "On", "At", "But", "And", "Or"}
)
# Question-initial capitals would otherwise pollute graph lookups.
INTERROGATIVES = frozenset({"What", "Who", "Where", "When", "Why", "How", "Which"})
QUERY_STOPWORDS = ENTITY_STOPWORDS | INTERROGATIVES

MAX_RELATION_GAP = 4
FALLBACK_RELATION = "related_to"

EXTRACTION_SYSTEM_PROMPT = "You extract knowledge triples."
EXTRACTION_USER_TEMPLATE = (
    "Extract (subject, relation, object) triples from the text. "
    "Return a JSON array of objects with keys subject, relation, object. "
    "Text:\n{text}"
)
EXTRACTION_REPAIR_SUFFIX = "Return only valid JSON."

_NON_SNAKE_RE = re.compile(r"[^a-z0-9]+")


class Triple(NamedTuple):
    """A (subject, relation, object) fact and the chunk id it came from."""

    subject: str
    relation: str
    object: str
    provenance: str = ""


@dataclass(frozen=True)
class EntityMention:
    surface: str
    normalized: str


def normalize_entity(surface: str) -> str:
    """Lowercase, collapse whitespace, strip trailing punctuation. Idempotent."""
    text = " ".join(surface.lower().split())
    while text and not text[-1].isalnum():
        text = text[:-1]
    return text


def snake_case(relation: str) -> str:
    return _NON_SNAKE_RE.sub("_", relation.lower()).strip("_")


def _bare(word: str) -> str:
    """``strip_edge_punctuation(word)``, skipping its loops for a word alphanumeric throughout."""
    return word if word.isalnum() else strip_edge_punctuation(word)


def _mentions(tokens: list[str], stopwords: frozenset[str]) -> list[tuple[int, int, str, str]]:
    """(start, end, surface, normalized) of each capitalized token run, in order.

    A run is maximal tokens whose first character is uppercase, with leading
    stopwords trimmed, over tokens [start, end); ``surface`` is those tokens
    space-joined and ``normalized`` its ``normalize_entity`` form, which may
    be empty. Each mention is normalized here, once.
    """
    mentions: list[tuple[int, int, str, str]] = []
    i = 0
    n = len(tokens)
    while i < n:
        if tokens[i][:1].isupper():
            start = i
            while i < n and tokens[i][:1].isupper():
                i += 1
            while start < i and _bare(tokens[start]) in stopwords:
                start += 1
            if start < i:
                surface = " ".join(tokens[start:i])
                mentions.append((start, i, surface, normalize_entity(surface)))
        else:
            i += 1
    return mentions


def extract_entities_rule(
    sentence: str, stopwords: frozenset[str] = ENTITY_STOPWORDS
) -> list[EntityMention]:
    """Entity mentions in order of first appearance, deduplicated by normalized form."""
    mentions: list[EntityMention] = []
    seen: set[str] = set()
    for _, _, surface, normalized in _mentions(tokenize(sentence), stopwords):
        if normalized and normalized not in seen:
            seen.add(normalized)
            mentions.append(EntityMention(surface=surface, normalized=normalized))
    return mentions


def extract_triples_rule(sentence: str, provenance: str = "") -> list[Triple]:
    """Triples from consecutive mention pairs within one sentence.

    A gap of 1..MAX_RELATION_GAP tokens between the pair becomes the relation
    (lowercased, punctuation-stripped, underscore-joined); adjacent or distant
    pairs fall back to "related_to". A pair with an empty normalized name
    gives no triple.
    """
    tokens = tokenize(sentence)
    mentions = _mentions(tokens, ENTITY_STOPWORDS)
    triples: list[Triple] = []
    for (_, end, _, subject), (start, _, _, obj) in zip(mentions, mentions[1:]):
        if subject and obj:
            relation = FALLBACK_RELATION
            if 1 <= start - end <= MAX_RELATION_GAP:
                words = map(_bare, map(str.lower, tokens[end:start]))
                relation = "_".join(filter(None, words)) or FALLBACK_RELATION
            triples.append(Triple(subject, relation, obj, provenance))
    return triples


class RuleExtractor:
    """Deterministic, pure extractor; reentrant."""

    kind = "rule"

    def entities(self, text: str, stopwords: frozenset[str] | None = None) -> list[EntityMention]:
        words = stopwords if stopwords is not None else ENTITY_STOPWORDS
        mentions: list[EntityMention] = []
        seen: set[str] = set()
        for sentence in split_sentences(text):
            for m in extract_entities_rule(sentence, words):
                if m.normalized not in seen:
                    seen.add(m.normalized)
                    mentions.append(m)
        return mentions

    def triples(self, sentences: list[str], provenance: str = "") -> list[Triple]:
        """The triples of each sentence in turn; ``sentences`` are not split again."""
        return [t for sentence in string_list(sentences, "sentences") for t in extract_triples_rule(sentence, provenance)]


def extract_triples_remote(text: str, client: ChatClient, provenance: str = "") -> list[Triple]:
    """Ask the chat endpoint for strict-JSON triples, with one repair retry."""
    user = EXTRACTION_USER_TEMPLATE.format(text=text)
    messages = [
        {"role": "system", "content": EXTRACTION_SYSTEM_PROMPT},
        {"role": "user", "content": user},
    ]
    raw = client.chat(messages)
    items = _parse_triple_json(raw)
    if items is None:
        repair = [
            {"role": "system", "content": EXTRACTION_SYSTEM_PROMPT},
            {"role": "user", "content": f"{user}\n{EXTRACTION_REPAIR_SUFFIX}"},
        ]
        raw = client.chat(repair)
        items = _parse_triple_json(raw)
    if items is None:
        raise ProviderError(f"triple extraction returned non-JSON after retry: {raw[:200]!r}")

    triples: list[Triple] = []
    skipped = 0
    for item in items:
        if not isinstance(item, dict):
            skipped += 1
            continue
        subject, relation, obj = (item.get(key) for key in ("subject", "relation", "object"))
        if not all(type(v) is str for v in (subject, relation, obj)):
            skipped += 1
            continue
        subject, relation, obj = subject.strip(), snake_case(relation), obj.strip()
        if subject and relation and obj:
            triples.append(Triple(subject=subject, relation=relation, object=obj, provenance=provenance))
        else:
            skipped += 1
    if skipped:
        logger.warning("skipped %d invalid triple item(s) from extraction response", skipped)
    return triples


def _parse_triple_json(raw: str) -> list | None:
    try:
        data = json.loads(raw.strip())
    except json.JSONDecodeError:
        return None
    return data if isinstance(data, list) else None


class RemoteExtractor:
    """LLM-backed extractor; one triple request holds the space-joined sentences, and the entity pass reuses it."""

    kind = "remote"

    def __init__(self, client: ChatClient):
        self.client = client

    def entities(self, text: str, stopwords: frozenset[str] | None = None) -> list[EntityMention]:
        mentions: list[EntityMention] = []
        seen: set[str] = set()
        drop = {normalize_entity(w) for w in (stopwords or frozenset())}
        for triple in self.triples([text]):
            for surface in (triple.subject, triple.object):
                normalized = normalize_entity(surface)
                if normalized and normalized not in seen and normalized not in drop:
                    seen.add(normalized)
                    mentions.append(EntityMention(surface=surface, normalized=normalized))
        return mentions

    def triples(self, sentences: list[str], provenance: str = "") -> list[Triple]:
        return extract_triples_remote(" ".join(string_list(sentences, "sentences")), self.client, provenance)


def query_ner(question: str, extractor) -> list[EntityMention]:
    """Entity mentions of a question, deduplicated by normalized form."""
    return extractor.entities(question, stopwords=QUERY_STOPWORDS)

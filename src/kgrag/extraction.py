"""Entity and relationship extraction: rule-based and remote LLM paths.

Triples come from a list of sentences, a semantic chunk's, never split again.
The rule extractor is deterministic: capitalized token runs become entity
mentions, and consecutive mention pairs in a sentence become triples whose
relation is the (short) token gap between them. One mention pattern
serves both triples and entities: each token has a one-character shape
(not capitalized, capitalized stopword, capitalized), and a regex over the
shape string gives the mention spans. Query NER matches each sentence's
mentions; the triple pass matches the consecutive mention pairs of a
whole chunk in one regex pass, a boundary code after each sentence. A
``RuleExtractor`` keeps two tables for its triple pass, ``shape`` and
``normalized``, that classify each distinct token and normalize each
distinct surface once; they last as long as the extractor, which for the
extractor a build makes is one build.
Query NER classifies a question's tokens without tables, so nothing it
sees stays. The tables only cache pure functions, so the extractor stays
reentrant: its output never depends on what it saw before, and two calls
that fill the same missing key fill it with the same value. A triple is a
``NamedTuple`` of normalized names, built in C. The remote extractor sends
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
from functools import partial
from typing import NamedTuple

from .corpus import Table, split_sentences, string_list
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


# Builds a Triple from its 4-tuple in C, skipping NamedTuple's Python-level __new__.
_triple = partial(tuple.__new__, Triple)


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


# Shape codes: "l" a token that does not start with an uppercase character,
# "S" a capitalized stopword, "U" any other capitalized token. A mention is a
# maximal capitalized run with its leading stopwords trimmed, so it runs
# from a "U" to the end of the run: a match of _MENTION on a shape string,
# whose characters are its tokens. A pair match is a mention (group 1)
# followed, with only "l" and "S" between them, by the next mention (group
# 2), so it never crosses "|", the boundary a chunk's triple pass puts after
# each sentence. The quantifiers are possessive so that no mention ends
# inside a capitalized run.
_MENTION = "U[US]*+"
_MENTION_RE = re.compile(_MENTION)
_PAIR_RE = re.compile(f"({_MENTION})(?=[lS]*+({_MENTION}))")


def _shape_code(stopwords: frozenset[str]):
    """The function giving a token's shape code under ``stopwords``."""

    def code(token: str) -> str:
        if not token[:1].isupper():
            return "l"
        return "S" if _bare(token) in stopwords else "U"

    return code


class RuleExtractor:
    """Deterministic extractor; reentrant, since its tables only cache pure functions.

    The triple tables grow with the distinct tokens and surfaces seen and
    last as long as the extractor, which for a build's extractor is one
    build: ``shape`` classifies each distinct token once, and holds the
    empty token, which no sentence has, as the boundary "|" put after each
    sentence; ``normalized`` normalizes each distinct surface once.
    ``entities`` (query NER) keeps nothing between calls, so a long-lived
    query extractor never grows.
    """

    __slots__ = ("shape", "normalized")

    def __init__(self) -> None:
        self.shape = Table(_shape_code(ENTITY_STOPWORDS))
        self.shape[""] = "|"
        self.normalized = Table(normalize_entity)

    def entities(self, text: str) -> list[EntityMention]:
        """The mentions of each sentence of ``text`` in turn, deduplicated by normalized form, empty ones dropped.

        Nothing outlives the call: a question's tokens are nearly all distinct,
        so it classifies and normalizes without tables.
        """
        code = _shape_code(QUERY_STOPWORDS)
        mentions: list[EntityMention] = []
        seen = {""}
        for sentence in split_sentences(text):
            tokens = sentence.split()
            for match in _MENTION_RE.finditer("".join(map(code, tokens))):
                start, end = match.span()
                surface = " ".join(tokens[start:end])
                name = normalize_entity(surface)
                if name not in seen:
                    seen.add(name)
                    mentions.append(EntityMention(surface=surface, normalized=name))
        return mentions

    def triples(self, sentences: list[str], provenance: str = "") -> list[Triple]:
        """Each sentence's triples in turn, from consecutive mention pairs within it, in one regex pass.

        A gap of 1..MAX_RELATION_GAP tokens between the pair becomes the
        relation (lowercased, punctuation-stripped, underscore-joined);
        adjacent or distant pairs fall back to "related_to". A pair with an
        empty normalized name gives no triple. ``sentences`` are not split again.
        """
        tokens: list[str] = []
        for sentence in string_list(sentences, "sentences"):
            tokens += sentence.split()
            tokens.append("")
        normalized = self.normalized
        triples: list[Triple] = []
        for match in _PAIR_RE.finditer("".join(map(self.shape.__getitem__, tokens))):
            start, end = match.span(1)
            after, stop = match.span(2)
            subject = normalized[" ".join(tokens[start:end])]
            obj = normalized[" ".join(tokens[after:stop])]
            if subject and obj:
                relation = FALLBACK_RELATION
                if 1 <= after - end <= MAX_RELATION_GAP:
                    # lower() maps nothing to whitespace and reads no context across a
                    # space, so this is each gap token lowercased
                    gap = " ".join(tokens[end:after]).lower().split()
                    relation = "_".join(filter(None, map(_bare, gap))) or relation
                triples.append(_triple((subject, relation, obj, provenance)))
        return triples


# What the remote entity pass drops: the query stopwords, normalized as it normalizes a triple's names.
_NORMALIZED_QUERY_STOPWORDS = frozenset(map(normalize_entity, QUERY_STOPWORDS))


class RemoteExtractor:
    """LLM-backed extractor; one triple request holds the space-joined sentences, and the entity pass reuses it."""

    def __init__(self, client: ChatClient):
        self.client = client

    def entities(self, text: str) -> list[EntityMention]:
        mentions: list[EntityMention] = []
        seen: set[str] = set()
        for triple in self.triples([text]):
            for surface in (triple.subject, triple.object):
                normalized = normalize_entity(surface)
                if normalized and normalized not in seen and normalized not in _NORMALIZED_QUERY_STOPWORDS:
                    seen.add(normalized)
                    mentions.append(EntityMention(surface=surface, normalized=normalized))
        return mentions

    def triples(self, sentences: list[str], provenance: str = "") -> list[Triple]:
        """Ask the chat endpoint for strict-JSON triples of the space-joined sentences, with one repair retry."""
        text = " ".join(string_list(sentences, "sentences"))
        user = EXTRACTION_USER_TEMPLATE.format(text=text)
        for prompt in (user, f"{user}\n{EXTRACTION_REPAIR_SUFFIX}"):
            raw = self.client.chat(
                [{"role": "system", "content": EXTRACTION_SYSTEM_PROMPT}, {"role": "user", "content": prompt}]
            )
            try:
                items = json.loads(raw.strip())
            except json.JSONDecodeError:
                continue
            if isinstance(items, list):
                break
        else:
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
            # A name that normalizes to "" (such as "???") would merge every such name into one node.
            if normalize_entity(subject) and relation and normalize_entity(obj):
                triples.append(Triple(subject=subject, relation=relation, object=obj, provenance=provenance))
            else:
                skipped += 1
        if skipped:
            logger.warning("skipped %d invalid triple item(s) from extraction response", skipped)
        return triples


def query_ner(question: str, extractor) -> list[EntityMention]:
    """Entity mentions of a question, deduplicated by normalized form."""
    return extractor.entities(question)

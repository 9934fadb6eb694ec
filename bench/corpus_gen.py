"""Seeded synthetic corpus, planted facts, questions and eval records.

Everything here is a pure function of the seed (Python's ``random.Random``,
whose sequence is stable across platforms), so two runs with one seed feed
the program byte-identical inputs. The program only ever sees the files and
strings this module produces.

Shape of a corpus (defaults are the 300-doc store):

- every document has 8..75 sentences split into 1..3 topic segments. Lengths
  are stratified over the range and shuffled, so the total size barely moves
  between seeds while the order does. Documents longer than 20 sentences are
  what make the nearest-rank p95 threshold fire inside a document.
- every sentence is ``<Subject> <relation> <Object> <topic words>.``; the
  subject and object are drawn from one Zipf-distributed entity pool, so a
  few hub entities appear in hundreds of chunks.
- planted facts are sentences about an entity that appears nowhere else,
  linked to a hub (even facts) or to a tail entity that occurs elsewhere
  (odd facts), so every fact's subgraph reaches the hubs; each question
  names both entities, the relation and the topic words of one fact.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"] + ["th", "sh", "qu"]
# Content tokens of the lexical layer never include these; generated words must
# not collide with them or with the extractor's capitalized stopwords.
RESERVED = frozenset(
    "a an and are as at be but by for from has have in is it its of on or that the this to "
    "was were will with he she they what who where when why how which".split()
)

ENTITIES = 2000
TOPICS = 24
FACTS = 24  # one question per planted fact
HUB_RANKS = 5  # Zipf ranks 1..5 are the hubs questions may name
TAIL_FROM_RANK = 400  # entities at or beyond this rank are tail entities
# Answer lengths (statements per eval record) follow this fixed cycle through
# 1..30, the same for every seed. Consecutive entries sum to 31, so every
# prefix a run gets through has its median length near 15.5 and the per-record
# median does not jump with the number of records a run completes.
ANSWER_LENGTHS = [n for i in range(15) for n in (1 + i * 7 % 15, 30 - i * 7 % 15)]


@dataclass(frozen=True)
class Fact:
    subject: str
    relation: str
    object: str
    topic_words: str
    sentence: str
    doc_id: str


@dataclass(frozen=True)
class Question:
    text: str
    fact: Fact


@dataclass
class Corpus:
    seed: int
    docs: list[tuple[str, str]]  # (doc_id, text)
    facts: list[Fact]
    questions: list[Question]

    @property
    def tokens(self) -> int:
        return sum(len(text.split()) for _, text in self.docs)

    def write_jsonl(self, path: Path) -> int:
        """Write the corpus as one JSONL file; returns its size in bytes."""
        payload = "".join(
            json.dumps({"id": doc_id, "text": text}, ensure_ascii=False) + "\n" for doc_id, text in self.docs
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload, encoding="utf-8")
        return len(payload.encode("utf-8"))


class _Words:
    """Unique pseudo-words drawn from syllables."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set(RESERVED)

    def word(self, min_syl: int = 2, max_syl: int = 3) -> str:
        while True:
            w = "".join(self.rng.choice(SYLLABLES) for _ in range(self.rng.randint(min_syl, max_syl)))
            if w not in self.used:
                self.used.add(w)
                return w

    def name(self) -> str:
        """A capitalized entity name of one or two words."""
        parts = [self.word().capitalize() for _ in range(self.rng.choice((1, 2, 2)))]
        return " ".join(parts)


def _stratified(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    values = [lo + (i * (hi - lo)) // max(1, n - 1) for i in range(n)]
    rng.shuffle(values)
    return values


def generate(seed: int, n_docs: int = 300) -> Corpus:
    """Build the corpus, planted facts and questions for one seed."""
    rng = random.Random(seed)
    words = _Words(rng)
    entities = [words.name() for _ in range(ENTITIES)]
    cum = list(itertools.accumulate(1.0 / rank for rank in range(1, ENTITIES + 1)))  # Zipf, s = 1
    topics = [[words.word() for _ in range(40)] for _ in range(TOPICS)]
    relations = [" ".join(words.word(1, 2) for _ in range(rng.randint(1, 2))) for _ in range(30)]

    used: set[str] = set()

    def sentence(topic: list[str]) -> str:
        subject, obj = rng.choices(entities, cum_weights=cum, k=2)
        used.update((subject, obj))
        filler = " ".join(rng.choices(topic, k=rng.randint(3, 6)))
        return f"{subject} {rng.choice(relations)} {obj} {filler}."

    lengths = _stratified(rng, n_docs, 8, 75)
    segment_counts = [1 + i % 3 for i in range(n_docs)]
    rng.shuffle(segment_counts)
    doc_sentences: list[list[str]] = []
    doc_topics: list[list[str]] = []
    for length, segments in zip(lengths, segment_counts):
        segments = min(segments, length)
        chosen = rng.sample(range(TOPICS), segments)
        cuts = [length * k // segments for k in range(segments + 1)]
        sents = []
        for k, topic_index in enumerate(chosen):
            sents.extend(sentence(topics[topic_index]) for _ in range(cuts[k + 1] - cuts[k]))
        doc_sentences.append(sents)
        doc_topics.append(topics[chosen[0]])

    width = len(str(n_docs - 1))
    doc_ids = [f"doc{i:0{width}d}" for i in range(n_docs)]

    # A tail object must occur elsewhere in the corpus: otherwise the fact's
    # subgraph is two nodes, and whether a seed's questions hit such objects
    # would swing the query and eval costs from seed to seed.
    tails = [e for e in entities[TAIL_FROM_RANK - 1 :] if e in used]
    facts: list[Fact] = []
    fact_docs = rng.sample(range(n_docs), FACTS)
    for i, doc_index in enumerate(fact_docs):
        subject = words.name()
        obj = entities[rng.randint(0, HUB_RANKS - 1)] if i % 2 == 0 else rng.choice(tails)
        relation = f"{words.word()} {words.word()}"
        filler = " ".join(rng.choices(doc_topics[doc_index], k=3))
        text = f"{subject} {relation} {obj} {filler}."
        sents = doc_sentences[doc_index]
        sents.insert(rng.randint(0, len(sents)), text)
        facts.append(Fact(subject, relation, obj, filler, text, doc_ids[doc_index]))

    docs = [(doc_id, " ".join(sents)) for doc_id, sents in zip(doc_ids, doc_sentences)]
    # The question carries the fact's topic words too: with relation and names
    # alone, the hashed 256-d cosine of a ~100-token chunk rarely ranks the fact
    # first on the larger semantic store, and its hit rate would read zero.
    questions = [
        Question(f"Which {f.relation} links {f.subject} to {f.object} {f.topic_words}?", f) for f in facts
    ]
    return Corpus(seed=seed, docs=docs, facts=facts, questions=questions)


def check_boundaries(counts: dict) -> None:
    """A built corpus must split some documents, or boundary detection went unexercised."""
    if counts["semantic_chunks"] <= counts["documents"]:
        raise RuntimeError(f"semantic_chunks must exceed documents, got {counts}")


def answer_from_passages(passages: list[str], statements: int) -> str:
    """An answer of exactly ``statements`` sentences cut from retrieved passages.

    Passages are token windows, so they are re-split on sentence ends; when
    they hold too few sentences the list is cycled.
    """
    pieces = [p.strip() for text in passages for p in text.split(". ") if p.strip(" .")]
    if not pieces:
        raise ValueError("no passage text to build an answer from")
    picked = [pieces[i % len(pieces)].rstrip(".") + "." for i in range(statements)]
    return " ".join(picked)

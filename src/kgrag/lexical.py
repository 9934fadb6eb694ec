"""Shared lexical machinery: content-token sets and the one overlap rule.

Both the retriever's confirmation boost and the lexical support judge score
token overlap over the same definition of "content token": lowercased, edge
punctuation/symbols stripped, stopwords and pure-punctuation tokens dropped.
Both score it with ``coverage``, the one place the overlap ratio is written,
over the distinct tokens of a text in any collection: the judge's sets, or
the tuples the graph keeps per text. Callers turn each text into its tokens
once and reuse them. The graph's render is the one caller that tokenizes no
text it returns: the set of lines joined on whitespace is the union of the
lines' sets, so it unions the token tuples it keeps per chunk, and a hybrid
query's boost reads its candidates' tuples from the same table.
"""

from __future__ import annotations

from collections.abc import Collection

STOPWORDS = frozenset(
    """
    a an and are as at be but by for from has have in is it its of on or
    that the this to was were will with
    """.split()
)


def strip_edge_punctuation(token: str) -> str:
    """Trim non-alphanumeric characters from both ends of a token.

    Interior punctuation survives, so "capital_of" and "don't" stay whole
    while "-[capital_of]->" loses its arrow decoration.
    """
    start, end = 0, len(token)
    while start < end and not token[start].isalnum():
        start += 1
    while end > start and not token[end - 1].isalnum():
        end -= 1
    return token[start:end]


def content_tokens(text: str) -> set[str]:
    """Lowercased token set with stopwords and pure punctuation removed.

    The text is lowercased before it is split, which yields the same words,
    since no whitespace character has a case mapping and no lowercase form
    contains one. A word that is alphanumeric throughout is its own token;
    only the rest go through ``strip_edge_punctuation``, each distinct word
    once, and the stopwords and empty remainders are dropped as one set.
    """
    words = set(text.lower().split())
    tokens = set(filter(str.isalnum, words))
    tokens.update(map(strip_edge_punctuation, words - tokens))
    tokens.discard("")
    tokens -= STOPWORDS
    return tokens


def coverage(tokens: Collection[str], reference: set[str]) -> float:
    """|tokens & reference| / |tokens|: the share of ``tokens`` found in ``reference``.

    ``tokens`` are distinct tokens, in any collection (a set, or a tuple
    without repeats), so its length is the count of the set. 0.0 when
    ``tokens`` is empty.
    """
    if not tokens:
        return 0.0
    return len(reference.intersection(tokens)) / len(tokens)

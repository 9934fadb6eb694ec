from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgrag.lexical import STOPWORDS, content_tokens, coverage, strip_edge_punctuation


def per_token_content_tokens(text: str) -> set[str]:
    """The per-token loop: split, lowercase each token, strip its edges, drop stopwords and empties."""
    out: set[str] = set()
    for raw in set(text.split()):
        tok = strip_edge_punctuation(raw.lower())
        if tok and tok not in STOPWORDS:
            out.add(tok)
    return out


WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2007\u2028\u2029\u202f\u205f\u3000"
words = st.one_of(
    st.sampled_from(sorted(STOPWORDS)),
    # dotted capital I, Greek capital sigma, precomposed and combining accents, titlecase DZ
    st.sampled_from(["\u0130", "\u0130stanbul", "\u0391\u03a3", "\u039f\u0394\u039f\u03a3", "\u00e9", "e\u0301",
                     "\u0301x", "_", "a_b", "--", "(The,", "\u00aband\u00bb", "\u01c5"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6),
)
texts = st.lists(st.tuples(words, st.text(alphabet=WHITESPACE, min_size=1, max_size=2)), max_size=12).map(
    lambda pairs: "".join(word + space for word, space in pairs)
)


class TestContentTokens:
    @settings(max_examples=500, deadline=None)
    @given(texts)
    @example("\u0130 \u0130. (The, THE the; -- _ ... x_ e\u0301 \u00e9")
    @example("\u0391\u03a3\u00a0\u039f\u0394\u039f\u03a3\u2029\u03c3\u03c2 \u03a3\u0391")
    @example("a\u3000b\x1ccapital_of\x85-[capital_of]->")
    def test_equals_per_token_loop(self, text):
        assert content_tokens(text) == per_token_content_tokens(text)

    def test_dotted_capital_i_keeps_its_combining_dot(self):
        # "\u0130".lower() is "i" plus U+0307, which is not alphanumeric, so the dot is stripped
        assert content_tokens("\u0130") == {"i"}
        assert content_tokens("\u0130stanbul") == {"i\u0307stanbul"}

    def test_stopwords_inside_punctuation_are_dropped(self):
        assert content_tokens("(The, Tiber) and. -- crosses") == {"tiber", "crosses"}


class TestCoverage:
    @settings(max_examples=300, deadline=None)
    @given(texts, texts)
    @example("", "Rome crosses the Tiber.")
    @example("Rome crosses the Tiber.", "")
    @example("", "")
    @example("The Tiber, THE tiber; rome Rome.", "tiber rome naples")
    def test_a_tuple_of_the_tokens_scores_as_their_set(self, a, b):
        tokens, reference = content_tokens(a), content_tokens(b)
        score = coverage(tuple(tokens), reference)
        assert score.hex() == coverage(tokens, reference).hex()  # bit for bit
        assert score == (len(tokens & reference) / len(tokens) if tokens else 0.0)

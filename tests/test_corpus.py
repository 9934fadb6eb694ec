from __future__ import annotations

import json
import re
import unicodedata

import pytest
from hypothesis import example, given, settings, strategies as st

from kgrag.corpus import (
    ABBREVIATIONS,
    Document,
    load_corpus,
    normalize_text,
    split_sentences,
)
from kgrag.exceptions import InputError


def make_doc(text: str, doc_id: str = "d") -> Document:
    return Document(doc_id=doc_id, text=normalize_text(text))


class TestLoadCorpus:
    def test_txt_files_lexicographic_order(self, tmp_path):
        (tmp_path / "b.txt").write_text("World.", encoding="utf-8")
        (tmp_path / "a.txt").write_text("Hello.", encoding="utf-8")
        docs = load_corpus(tmp_path)
        assert [d.doc_id for d in docs] == ["a", "b"]
        assert [d.text for d in docs] == ["Hello.", "World."]

    def test_jsonl_ids_and_line_order(self, tmp_path):
        lines = [
            {"id": "x1", "text": "first"},
            {"id": "x2", "text": "second"},
            {"id": "x3", "text": "third"},
        ]
        (tmp_path / "corpus.jsonl").write_text(
            "\n".join(json.dumps(obj) for obj in lines), encoding="utf-8"
        )
        docs = load_corpus(tmp_path)
        assert [d.doc_id for d in docs] == ["x1", "x2", "x3"]

    def test_jsonl_integer_ids_become_strings(self, tmp_path):
        (tmp_path / "corpus.jsonl").write_text('{"id": 7, "text": "first"}\n{"id": "x", "text": "second"}\n')
        assert [d.doc_id for d in load_corpus(tmp_path)] == ["7", "x"]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_jsonl_lines_end_only_at_newline(self, tmp_path, newline):
        # json.dumps(ensure_ascii=False) writes U+0085, U+2028 and U+2029 raw inside
        # strings, and str.splitlines would break a line there.
        lines = [
            {"id": "x\u2028y", "text": "One\u0085two.\u2028Three\u2029four."},
            {"id": "z", "text": "plain"},
        ]
        payload = newline.join(json.dumps(obj, ensure_ascii=False) for obj in lines) + newline
        (tmp_path / "corpus.jsonl").write_bytes(payload.encode("utf-8"))
        docs = load_corpus(tmp_path)
        assert [(d.doc_id, d.text) for d in docs] == [(obj["id"], obj["text"]) for obj in lines]

    def test_malformed_line_after_raw_separator_names_its_line(self, tmp_path):
        (tmp_path / "bad.jsonl").write_text('{"id": "a", "text": "x\u2028y"}\nnot json\n', encoding="utf-8")
        with pytest.raises(InputError, match="line 2"):
            load_corpus(tmp_path)

    def test_empty_directory_is_empty_list(self, tmp_path):
        assert load_corpus(tmp_path) == []

    def test_missing_path_is_input_error(self, tmp_path):
        with pytest.raises(InputError):
            load_corpus(tmp_path / "nope")

    def test_malformed_jsonl_names_line(self, tmp_path):
        (tmp_path / "bad.jsonl").write_text(
            '{"id": "a", "text": "ok"}\nnot json at all\n', encoding="utf-8"
        )
        with pytest.raises(InputError, match="line 2"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize(
        "line, named",
        [
            ('{"id": "d", "text": "Rome \\ud800 is old."}', "'text' holds the lone surrogate '\\ud800' at index 5"),
            ('{"id": "d", "text": "Rome is old.\\udfff"}', "'text' holds the lone surrogate '\\udfff' at index 12"),
            ('{"id": "d\\udc00", "text": "Rome is old."}', "'id' holds the lone surrogate '\\udc00' at index 1"),
            ('{"id": "d", "text": "Rome \\udf55\\ud83c is old."}', "'text' holds the lone surrogate '\\udf55'"),
        ],
        ids=["text-high", "text-low-last", "id-low", "pair-reversed"],
    )
    def test_lone_surrogate_names_file_and_line(self, tmp_path, line, named):
        corpus = tmp_path / "docs.jsonl"
        corpus.write_text('{"id": "ok", "text": "Naples is warm."}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(InputError) as info:
            load_corpus(corpus)
        assert str(info.value).startswith(f"malformed JSONL in {corpus} line 2: {named}")

    def test_escaped_surrogate_pair_and_escaped_backslash_load(self, tmp_path):
        # A pair of \u escapes decodes to one astral character, and "\\ud800" is a backslash and text.
        corpus = tmp_path / "docs.jsonl"
        corpus.write_text('{"id": "d\\ud83c\\udf55", "text": "Pizza \\\\ud800 \\u00e9."}\n', encoding="utf-8")
        (doc,) = load_corpus(corpus)
        assert (doc.doc_id, doc.text) == ("d\U0001f355", "Pizza \\ud800 \u00e9.")

    def test_unreadable_file_names_file(self, tmp_path):
        # Permission bits don't stop root, but invalid UTF-8 is always unreadable.
        (tmp_path / "trap.txt").write_bytes(b"\xff\xfe broken")
        with pytest.raises(InputError, match="trap.txt"):
            load_corpus(tmp_path)

    def test_empty_document_skipped_with_warning(self, tmp_path, caplog):
        (tmp_path / "a.txt").write_text("Content.", encoding="utf-8")
        (tmp_path / "empty.txt").write_text("   \n\n  ", encoding="utf-8")
        with caplog.at_level("WARNING"):
            docs = load_corpus(tmp_path)
        assert [d.doc_id for d in docs] == ["a"]
        assert any("empty" in r.message for r in caplog.records)

    def test_duplicate_doc_id_is_error(self, tmp_path):
        (tmp_path / "a.jsonl").write_text(
            '{"id": "dup", "text": "one"}\n{"id": "dup", "text": "two"}\n', encoding="utf-8"
        )
        with pytest.raises(InputError, match="^duplicate doc_id 'dup'"):
            load_corpus(tmp_path)

    def test_deterministic_across_invocations(self, tmp_path):
        (tmp_path / "a.txt").write_text("Alpha beta.", encoding="utf-8")
        (tmp_path / "b.jsonl").write_text('{"id": "j", "text": "Gamma."}', encoding="utf-8")
        assert load_corpus(tmp_path) == load_corpus(tmp_path)

    def test_normalization_nfc_crlf_blank_lines(self, tmp_path):
        decomposed = "café"  # e + combining acute
        raw = f"{decomposed} line one.\r\n\n\n\n\nNext paragraph."
        (tmp_path / "a.txt").write_text(raw, encoding="utf-8")
        (doc,) = load_corpus(tmp_path)
        assert unicodedata.is_normalized("NFC", doc.text)
        assert "\r" not in doc.text
        # four blank lines collapse to two
        assert "\n\n\n\n" not in doc.text
        assert "café line one.\n\n\nNext paragraph." == doc.text


class TestSplitSentences:
    def test_two_sentences(self):
        doc = make_doc("Pasta is boiled. Pizza is baked.")
        assert split_sentences(doc.text) == ["Pasta is boiled.", "Pizza is baked."]

    def test_abbreviation_suppresses_split(self):
        doc = make_doc("Dr. Rossi cooks. He is famous.")
        assert split_sentences(doc.text) == ["Dr. Rossi cooks.", "He is famous."]

    def test_single_sentence_fallback(self):
        doc = make_doc("One sentence only")
        sentences = split_sentences(doc.text)
        assert len(sentences) == 1
        assert sentences[0] == "One sentence only"

    def test_blank_line_is_boundary(self):
        doc = make_doc("First paragraph without period\n\nSecond paragraph")
        assert split_sentences(doc.text) == [
            "First paragraph without period",
            "Second paragraph",
        ]

    def test_mid_token_punctuation_does_not_split(self):
        doc = make_doc("Version 1.5 shipped. Done.")
        assert split_sentences(doc.text) == ["Version 1.5 shipped.", "Done."]

    @pytest.mark.parametrize("space", ["\xa0", "\u2003"], ids=["no-break-space", "em-space"])
    def test_abbreviation_after_unicode_whitespace(self, space):
        # The word before the period starts after any whitespace the terminator rule sees.
        assert split_sentences(f"We met{space}Dr. Rossi there.") == [f"We met{space}Dr. Rossi there."]
        assert split_sentences(f"We met{space}Rossi. He cooks.") == [f"We met{space}Rossi.", "He cooks."]

    @pytest.mark.parametrize("abbr", ["e.g.", "i.e.", "etc.", "vs.", "Fig.", "Eq.", "Mr.", "Mrs."])
    def test_all_listed_abbreviations(self, abbr):
        doc = make_doc(f"We cook, {abbr} with care and salt. Next sentence here.")
        assert len(split_sentences(doc.text)) == 2


normalized_docs = (
    st.text(min_size=1, max_size=300)
    .map(normalize_text)
    .filter(lambda t: t.strip())
    .map(lambda t: Document(doc_id="h", text=t))
)


_WORD_TERMINATOR_RE = re.compile(r"(?<!\S)\S*[.?!](?=\s|$)")
_PARAGRAPH_RE = re.compile(r"\n[ \t]*\n+")


def split_sentences_reference(text: str) -> list[str]:
    """The splitter that matched each whole word ending in a terminator, kept as its reference.

    Its regex tried a match at every character; the word it matched was
    looked up in ``ABBREVIATIONS`` as it stood.
    """
    sentences: list[str] = []
    for paragraph in _PARAGRAPH_RE.split(text):
        start = 0
        for match in _WORD_TERMINATOR_RE.finditer(paragraph):
            if match.group() in ABBREVIATIONS:
                continue
            end = match.end()
            fragment = paragraph[start:end].strip()
            if fragment:
                sentences.append(fragment)
            start = end
        tail = paragraph[start:].strip()
        if tail:
            sentences.append(tail)
    return sentences


# Pieces that sit at the edges of the abbreviation check: abbreviations with
# and without a prefix or a second terminator, words as long as the look-back
# and one longer, every terminator, whitespace str.split and re agree on.
_SPLITTER_PIECES = st.sampled_from(
    [*ABBREVIATIONS, "(Mr.", "Mr..", "Mr?", "Mr!", "xMr.", "e.g.,", "i.e", ".", "?", "!", "..", "a.", "Rossi.",
     "abcdefg.", "abcdefgh.", "123456789?", " ", "  ", "\n", "\n\n", "\n \n", "\t", "\x1c", "\x1f", "\xa0", "\u2003",
     "\u2028", "\x85", "word", "é", "🍕"]
)


class TestSplitSentencesReference:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(_SPLITTER_PIECES, st.text(max_size=4)), max_size=40).map("".join))
    @example("We met Dr. Rossi (Mr. Bianchi's friend). He cooks.")
    @example("Mr.. Mr? (Mr. e.g. x\x1cMr. \xa0Dr. y")
    @example("abcdefghMr. next. i.e.\n\nEq. end")
    def test_matches_the_whole_word_splitter(self, text):
        assert split_sentences(text) == split_sentences_reference(text)
        normalized = normalize_text(text)
        assert split_sentences(normalized) == split_sentences_reference(normalized)


class TestProperties:
    @given(normalized_docs)
    def test_token_counts_sum(self, doc):
        sentences = split_sentences(doc.text)
        assert sum(len(s.split()) for s in sentences) == len(doc.text.split())

    @given(normalized_docs)
    def test_non_whitespace_characters_preserved_in_order(self, doc):
        joined = " ".join(split_sentences(doc.text))
        strip_ws = lambda t: "".join(t.split())
        assert strip_ws(joined) == strip_ws(doc.text)

    @given(normalized_docs)
    def test_no_zero_token_sentence(self, doc):
        assert all(s.split() for s in split_sentences(doc.text))

    @given(normalized_docs)
    def test_split_deterministic(self, doc):
        assert split_sentences(doc.text) == split_sentences(doc.text)

    @given(st.text(max_size=300))
    def test_normalize_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once

    @given(st.text(max_size=200))
    def test_split_texts_never_whitespace_only(self, text):
        for fragment in split_sentences(normalize_text(text)):
            assert fragment.strip() == fragment and fragment

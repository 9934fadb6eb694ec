"""Corpus loading, normalization and sentence splitting.

A corpus is a directory (or single file) of UTF-8 ``.txt`` files and/or
``.jsonl`` files with one ``{"id": ..., "text": ...}`` object per line.
Text is normalized (NFC, CRLF->LF, runs of blank lines collapsed) before
anything downstream sees it, so every other module can assume normalized
input.
"""

from __future__ import annotations

import json
import logging
import re
import unicodedata
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

from .exceptions import InputError

logger = logging.getLogger(__name__)

# Trailing-period abbreviations that never end a sentence.
ABBREVIATIONS = frozenset(
    {"Mr.", "Mrs.", "Dr.", "e.g.", "i.e.", "etc.", "vs.", "Fig.", "Eq."}
)

# A [.?!] before whitespace or the end: the last character of its word. The
# pattern opens with its character class, so the engine skips ahead to each one.
_TERMINATOR_RE = re.compile(r"[.?!](?=\s|$)")
# A word longer than this ends in no abbreviation, so the check looks back this far.
_LOOKBACK = max(map(len, ABBREVIATIONS)) + 1
_PARAGRAPH_RE = re.compile(r"\n[ \t]*\n+")
# json.loads joins an escaped surrogate pair into one character, so any
# surrogate left in a decoded string is lone.
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def holds_escape(raw: str) -> bool:
    """Whether JSON text ``raw`` holds a ``\\u`` escape, the one way its decoded strings can hold a surrogate.

    memchr finds a backslash far faster than the two-character search, which then runs only on escapes.
    """
    return "\\" in raw and "\\u" in raw


def lone_surrogate(fields: Iterable[tuple[str, str]]) -> str | None:
    """Why the first ``(label, text)`` field holding a lone surrogate (UTF-8 cannot encode one) is bad; else None."""
    for label, text in fields:
        if m := _SURROGATE_RE.search(text):
            return f"{label} holds the lone surrogate {m.group()!r} at index {m.start()}, which UTF-8 cannot encode"
    return None


@dataclass(frozen=True)
class Document:
    """One corpus unit: normalized text plus a stable id."""

    doc_id: str
    text: str


def normalize_text(text: str) -> str:
    """NFC, CRLF->LF, and collapse runs of more than two blank lines to two."""
    text = unicodedata.normalize("NFC", text).replace("\r\n", "\n")
    lines: list[str] = []
    blanks = 0
    for line in text.split("\n"):
        if line.strip() == "":
            blanks += 1
            if blanks > 2:
                continue
        else:
            blanks = 0
        lines.append(line)
    return "\n".join(lines)


def _iter_corpus_files(path: Path) -> list[Path]:
    if path.is_file():
        if path.suffix not in (".txt", ".jsonl"):
            raise InputError(f"unsupported corpus file type: {path} (expected .txt or .jsonl)")
        return [path]
    files = [p for p in path.rglob("*") if p.suffix in (".txt", ".jsonl") and p.is_file()]
    return sorted(files, key=str)


def _doc_id_for_txt(file: Path, root: Path) -> str:
    if file == root:
        return file.stem
    rel = file.relative_to(root)
    return rel.with_suffix("").as_posix()


def load_corpus(path: str | Path) -> list[Document]:
    """Load all documents under ``path`` in deterministic order.

    Documents are ordered by (source path lexicographic, line number).
    Empty documents are skipped with a warning. Unreadable files and
    malformed JSONL lines, one whose ``id`` or ``text`` holds a lone
    surrogate included, are hard errors.
    """
    root = Path(path)
    if not root.exists():
        raise InputError(f"corpus path does not exist: {root}")

    docs: list[Document] = []
    seen_ids: set[str] = set()

    def add(doc_id: str, raw_text: str, source: str) -> None:
        text = normalize_text(raw_text)
        if not text.strip():
            logger.warning("skipping empty document %s (%s)", doc_id, source)
            return
        if doc_id in seen_ids:
            raise InputError(f"duplicate doc_id {doc_id!r} (from {source})")
        seen_ids.add(doc_id)
        docs.append(Document(doc_id=doc_id, text=text))

    for file in _iter_corpus_files(root):
        try:
            raw = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"unreadable corpus file {file}: {exc}") from exc
        if file.suffix == ".txt":
            add(_doc_id_for_txt(file, root), raw, str(file))
        else:
            for lineno, line in enumerate(raw.split("\n"), start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    doc_id, text = obj["id"], obj["text"]
                    if type(doc_id) not in (str, int) or type(text) is not str:
                        raise TypeError("'id' must be a string or an integer, and 'text' a string")
                    if holds_escape(line) and (problem := lone_surrogate((("'id'", str(doc_id)), ("'text'", text)))):
                        raise ValueError(problem)
                except (KeyError, TypeError, ValueError) as exc:
                    raise InputError(f"malformed JSONL in {file} line {lineno}: {exc}") from exc
                add(str(doc_id), text, f"jsonl:{file}:{lineno}")
    return docs


def split_sentences(text: str) -> list[str]:
    """Split normalized text into sentence strings.

    Boundaries: ``[.?!]`` followed by whitespace or end of text, and blank
    lines. A boundary is suppressed when the word ending at the punctuation
    is a known abbreviation. Whitespace-only fragments are dropped, so blank
    text has no sentences; other text with no boundary is one sentence.
    """
    sentences: list[str] = []
    for paragraph in _PARAGRAPH_RE.split(text):
        start = 0
        for match in _TERMINATOR_RE.finditer(paragraph):
            end = match.end()
            # The word ending here: whole when it is at most _LOOKBACK - 1
            # characters, else a _LOOKBACK-character tail, which is no abbreviation.
            if paragraph[max(end - _LOOKBACK, 0) : end].rsplit(None, 1)[-1] in ABBREVIATIONS:
                continue
            fragment = paragraph[start:end].strip()
            if fragment:
                sentences.append(fragment)
            start = end
        tail = paragraph[start:].strip()
        if tail:
            sentences.append(tail)
    return sentences


def string_list(items: list[str], name: str) -> list[str]:
    """``items`` itself; a bare ``str`` would be read as one item per character."""
    if isinstance(items, str):
        raise TypeError(f"{name} must be a list of strings, not a str")
    return items


class Table(dict):
    """A dict that fills a missing key with ``make(key)`` and keeps it; a pure ``make`` lets readers race."""

    __slots__ = ("make",)

    def __init__(self, make: Callable) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value

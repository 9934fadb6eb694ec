"""Metric harness: answer relevancy, faithfulness, context precision/recall, F1.

Support verdicts come from a pluggable judge. A judge takes a list of
statements and a list of contexts, and returns one verdict per statement,
in statement order, against the contexts taken together. Faithfulness and
context recall pass a record's whole context list; context precision passes
one context at a time, ``[ctx]``. A bare ``str`` in place of the list raises
``TypeError``. The lexical judge is a deterministic token-overlap rule
(content-token coverage >= tau over the union of the contexts' token sets)
that keeps the token sets of the contexts it last tokenized, so each
context of a record is tokenized once and the joined text never; the
remote judge asks a chat model for a yes/no verdict per statement over the
space-joined contexts, lazily, so a caller that stops at the first
supported statement makes no further calls.

A metric that is undefined for a record is None, excluded from aggregates
and rendered as an empty CSV cell, so a failed retrieval does not read as a
zero-scoring evaluation. The rule per metric:
- ``answer_relevancy`` is 0.0 for an empty answer;
- ``faithfulness`` is None for an answer without statements;
- ``faithfulness`` and ``context_recall`` with no contexts are judged like
  any others, and the lexical judge supports nothing there, so they are 0.0;
- ``context_precision`` is None with no contexts, and so is ``f1``, which
  is None whenever precision or recall is.
"""

from __future__ import annotations

import csv
import json
import logging
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import holds_escape, lone_surrogate, split_sentences, string_list
from .embedding import cosine_rows
from .exceptions import InputError, ProviderError
from .lexical import content_tokens, coverage
from .remote import ChatClient

logger = logging.getLogger(__name__)

METRIC_NAMES = ("answer_relevancy", "faithfulness", "context_precision", "context_recall", "f1")

DEFAULT_SUPPORT_THRESHOLD = 0.6

JUDGE_SYSTEM_PROMPT = "You judge whether a statement is supported by a context. Answer only yes or no."
JUDGE_USER_TEMPLATE = (
    "Context:\n{context}\n\nStatement: {statement}\n\n"
    "Is the statement supported by the context? Answer yes or no."
)

@dataclass
class EvalRecord:
    question: str
    ground_truth: str
    answer: str = ""
    contexts: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.question.strip():
            raise ValueError("record question must be non-empty")
        if not self.ground_truth.strip():
            raise ValueError("record ground_truth must be non-empty")


class MetricRow(Mapping):
    """One record's metrics, read-only: ``record_index`` and METRIC_NAMES as keys.

    A slotted object rather than a dict, because callers keep a row per
    evaluated record: with its float values a row takes about 210 bytes on
    CPython 3.11, where a six-key dict takes about 440. ``f1`` is derived
    from precision and recall, so it is not stored.
    """

    __slots__ = ("record_index", "answer_relevancy", "faithfulness", "context_recall", "context_precision")
    KEYS = ("record_index", "answer_relevancy", "faithfulness", "context_recall", "context_precision", "f1")

    def __init__(
        self,
        record_index: int,
        answer_relevancy: float | None,
        faithfulness: float | None,
        context_recall: float | None,
        context_precision: float | None,
    ):
        self.record_index = record_index
        self.answer_relevancy = answer_relevancy
        self.faithfulness = faithfulness
        self.context_recall = context_recall
        self.context_precision = context_precision

    @property
    def f1(self) -> float | None:
        precision, recall = self.context_precision, self.context_recall
        return f1_context(precision, recall) if precision is not None and recall is not None else None

    def __getitem__(self, key: str):
        if key not in self.KEYS:
            raise KeyError(key)
        return getattr(self, key)

    def __iter__(self) -> Iterator[str]:
        return iter(self.KEYS)

    def __len__(self) -> int:
        return len(self.KEYS)

    def __repr__(self) -> str:
        return f"MetricRow({dict(self)!r})"


@dataclass
class MetricReport:
    per_record: list[Mapping]
    aggregate: dict[str, float | None]


def split_statements(text: str) -> list[str]:
    """Statements = sentences; blank text yields no statements."""
    return split_sentences(text)


class LexicalJudge:
    """Deterministic overlap judge; the offline stand-in for an LLM judge.

    It keeps the content-token sets of the contexts it last tokenized, at
    most one call's list. A call whose contexts are all kept tokenizes none;
    any other call tokenizes the contexts it lacks and keeps its own list.
    So the metrics of one record, which pass the whole list first and then
    one context at a time, tokenize each context once. The joined text is
    never tokenized: splitting on whitespace never carries across the
    joining space, so the joined text's token set is the union of the
    contexts' sets.
    """

    def __init__(self, tau: float = DEFAULT_SUPPORT_THRESHOLD):
        if not 0.0 < tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        self.tau = tau
        self._context_tokens: dict[str, set[str]] = {}

    def supported(self, statements: list[str], contexts: list[str]) -> list[bool]:
        """Supported iff >= tau of a statement's content tokens occur in the contexts.

        A statement without content tokens is unsupported.
        """
        kept = self._context_tokens
        if any(c not in kept for c in string_list(contexts, "contexts")):
            kept = {c: kept[c] if c in kept else content_tokens(c) for c in dict.fromkeys(contexts)}
            self._context_tokens = kept
        reference = set().union(*(kept[c] for c in contexts))
        return [coverage(content_tokens(s), reference) >= self.tau for s in statements]


class RemoteJudge:
    """Chat-backed yes/no support judge; the prompt holds the space-joined contexts."""

    def __init__(self, client: ChatClient):
        self.client = client

    def supported(self, statements: list[str], contexts: list[str]) -> Iterator[bool]:
        """One chat call per statement, made only when its verdict is consumed."""
        context = " ".join(string_list(contexts, "contexts"))
        return (self._verdict(statement, context) for statement in statements)

    def _verdict(self, statement: str, context: str) -> bool:
        reply = self.client.chat(
            [
                {"role": "system", "content": JUDGE_SYSTEM_PROMPT},
                {"role": "user", "content": JUDGE_USER_TEMPLATE.format(context=context, statement=statement)},
            ]
        )
        return reply.strip().lower().startswith("yes")


def _support_ratio(statements: list[str], contexts: list[str], judge) -> float:
    return sum(judge.supported(statements, contexts)) / len(statements)


def faithfulness(answer: str, contexts: list[str], judge) -> float | None:
    """Fraction of answer statements supported by the contexts taken together.

    None (undefined) for an empty answer.
    """
    statements = split_statements(answer)
    if not statements:
        return None
    return _support_ratio(statements, contexts, judge)


def context_recall(ground_truth: str, contexts: list[str], judge) -> float:
    """Fraction of ground-truth statements attributable to the contexts."""
    statements = split_statements(ground_truth)
    if not statements:
        raise ValueError("ground_truth must be non-empty")
    return _support_ratio(statements, contexts, judge)


def context_precision(ground_truth: str, contexts: list[str], judge) -> float | None:
    """Rank-weighted precision over per-context relevance verdicts.

    A context is relevant when it alone supports any ground-truth statement.
    Score = sum_k(precision@k * v_k) / sum_k(v_k); 0.0 when nothing is
    relevant, None (undefined) when there are no contexts at all. A ground
    truth without statements raises ValueError, as in ``context_recall``.
    """
    if not contexts:
        return None
    statements = split_statements(ground_truth)
    if not statements:
        raise ValueError("ground_truth must be non-empty")
    verdicts = [1 if any(judge.supported(statements, [ctx])) else 0 for ctx in contexts]
    if sum(verdicts) == 0:
        return 0.0
    score = 0.0
    hits = 0
    for k, v in enumerate(verdicts, start=1):
        hits += v
        if v:
            score += hits / k
    return score / sum(verdicts)


def _clamp01(value: float) -> float:
    return min(1.0, max(0.0, value))


def answer_relevancy(question: str, answer: str, embedder) -> float:
    """Clamped cosine similarity between question and answer, in [0, 1]."""
    if not answer.strip():
        return 0.0
    return _clamp01(float(cosine_rows(embedder.embed(question)[None], embedder.embed(answer)[None])[0]))


def f1_context(precision: float, recall: float) -> float:
    """Harmonic mean of context precision and recall."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def evaluate(records: list[EvalRecord], judge, embedder) -> MetricReport:
    """Per-record metrics plus the mean over defined values.

    A judge or provider failure nulls the affected record's metrics and is
    logged; it never aborts the run.
    """
    if not records:
        raise ValueError("evaluate requires at least one record")
    per_record: list[MetricRow] = []
    for index, record in enumerate(records):
        try:
            relevancy = answer_relevancy(record.question, record.answer, embedder)
        except ProviderError as exc:
            logger.warning("record %d: answer_relevancy failed: %s", index, exc)
            relevancy = None
        faith = recall = precision = None
        try:
            faith = faithfulness(record.answer, record.contexts, judge)
            recall = context_recall(record.ground_truth, record.contexts, judge)
            precision = context_precision(record.ground_truth, record.contexts, judge)
        except ProviderError as exc:
            logger.warning("record %d: judge failed: %s", index, exc)
        per_record.append(MetricRow(index, relevancy, faith, recall, precision))

    aggregate: dict[str, float | None] = {}
    for name in METRIC_NAMES:
        values = [getattr(row, name) for row in per_record]
        defined = [value for value in values if value is not None]
        aggregate[name] = sum(defined) / len(defined) if defined else None
    return MetricReport(per_record=per_record, aggregate=aggregate)


def _cell(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def _write_csv(path: str | Path, header: list[str], rows) -> None:
    """``header`` then ``rows`` as CSV at ``path``; raises InputError naming the path if it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def write_report_csv(report: MetricReport, path: str | Path) -> None:
    """Per-record rows plus a MEAN aggregate row; null metrics as empty cells."""
    rows = [[row["record_index"], *(_cell(row.get(n)) for n in METRIC_NAMES)] for row in report.per_record]
    rows.append(["MEAN", *(_cell(report.aggregate.get(n)) for n in METRIC_NAMES)])
    _write_csv(path, ["record", *METRIC_NAMES], rows)


def write_matrix_csv(report: MetricReport, records: list[EvalRecord], path: str | Path) -> None:
    """Question-by-metric matrix (the data behind per-question heatmaps)."""
    rows = ([r.question, *(_cell(row.get(n)) for n in METRIC_NAMES)] for r, row in zip(records, report.per_record))
    _write_csv(path, ["question", *METRIC_NAMES], rows)


def load_records_jsonl(path: str | Path) -> tuple[list[EvalRecord], int]:
    """Parse eval records; malformed lines are skipped and counted.

    ``question`` and ``ground_truth`` must be strings, ``answer`` (if present)
    a string and ``contexts`` (if present) a list of strings, none holding an
    escaped lone surrogate; a line with any other value is malformed.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read records file {path}: {exc}") from exc
    records: list[EvalRecord] = []
    skipped = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            texts = {"question": obj["question"], "ground_truth": obj["ground_truth"], "answer": obj.get("answer", "")}
            contexts = obj.get("contexts", [])
            for name, value in texts.items():
                if not isinstance(value, str):
                    raise TypeError(f"{name} must be a string, got {type(value).__name__}")
            if not isinstance(contexts, list) or not all(isinstance(c, str) for c in contexts):
                raise TypeError("contexts must be a list of strings")
            if holds_escape(line):
                fields = [*texts.items(), *((f"contexts[{i}]", c) for i, c in enumerate(contexts))]
                if problem := lone_surrogate(fields):
                    raise ValueError(problem)
            records.append(EvalRecord(contexts=contexts, **texts))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            logger.warning("skipping malformed record at %s line %d: %s", path, lineno, exc)
            skipped += 1
    return records, skipped

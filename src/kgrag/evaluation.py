"""Metric harness: answer relevancy, faithfulness, context precision/recall, F1.

Support verdicts come from a pluggable judge. The lexical judge is a
deterministic token-overlap rule (content-token overlap >= tau); the remote
judge asks a chat model for a yes/no verdict. Metrics that cannot be
computed (empty answer, no contexts) are None, excluded from aggregates,
and rendered as empty CSV cells: a failed retrieval must not masquerade as
a zero-scoring evaluation.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import split_sentence_texts
from .embedding import cosine_similarity
from .exceptions import InputError, ProviderError
from .lexical import content_tokens
from .remote import ChatClient

logger = logging.getLogger(__name__)

METRIC_NAMES = ("answer_relevancy", "faithfulness", "context_precision", "context_recall", "f1")

DEFAULT_SUPPORT_THRESHOLD = 0.6
PARAPHRASE_COUNT = 3

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


@dataclass
class MetricReport:
    per_record: list[dict]
    aggregate: dict[str, float | None]


def split_statements(text: str) -> list[str]:
    """Statements = sentences; empty text yields no statements."""
    if not text.strip():
        return []
    return split_sentence_texts(text)


def lexical_supported(statement: str, context: str, tau: float = DEFAULT_SUPPORT_THRESHOLD) -> bool:
    """Supported iff >= tau of the statement's content tokens occur in the context."""
    statement_tokens = content_tokens(statement)
    if not statement_tokens:
        return False
    overlap = len(statement_tokens & content_tokens(context))
    return overlap / len(statement_tokens) >= tau


class LexicalJudge:
    """Deterministic overlap judge; the offline stand-in for an LLM judge."""

    kind = "lexical"

    def __init__(self, tau: float = DEFAULT_SUPPORT_THRESHOLD):
        if not 0.0 < tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        self.tau = tau

    def supported(self, statement: str, context: str) -> bool:
        return lexical_supported(statement, context, self.tau)


class RemoteJudge:
    """Chat-backed yes/no support judge."""

    kind = "remote"

    def __init__(self, client: ChatClient):
        self.client = client

    def supported(self, statement: str, context: str) -> bool:
        reply = self.client.chat(
            [
                {"role": "system", "content": JUDGE_SYSTEM_PROMPT},
                {"role": "user", "content": JUDGE_USER_TEMPLATE.format(context=context, statement=statement)},
            ]
        )
        return reply.strip().lower().startswith("yes")


def _support_ratio(statements: list[str], context: str, judge) -> float:
    supported = sum(1 for s in statements if judge.supported(s, context))
    return supported / len(statements)


def faithfulness(answer: str, contexts: list[str], judge) -> float | None:
    """Fraction of answer statements supported by the concatenated contexts.

    None (undefined) for an empty answer.
    """
    statements = split_statements(answer)
    if not statements:
        return None
    return _support_ratio(statements, " ".join(contexts), judge)


def context_recall(ground_truth: str, contexts: list[str], judge) -> float:
    """Fraction of ground-truth statements attributable to the contexts."""
    statements = split_statements(ground_truth)
    if not statements:
        raise ValueError("ground_truth must be non-empty")
    return _support_ratio(statements, " ".join(contexts), judge)


def context_precision(ground_truth: str, contexts: list[str], judge) -> float | None:
    """Rank-weighted precision over per-context relevance verdicts.

    A context is relevant when it alone supports any ground-truth statement.
    Score = sum_k(precision@k * v_k) / sum_k(v_k); 0.0 when nothing is
    relevant, None (undefined) when there are no contexts at all.
    """
    if not contexts:
        return None
    statements = split_statements(ground_truth)
    verdicts = [
        1 if any(judge.supported(s, ctx) for s in statements) else 0 for ctx in contexts
    ]
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


def answer_relevancy(question: str, answer: str, embedder, question_generator=None) -> float:
    """Similarity between question and answer, in [0, 1].

    With a question generator: average clamped cosine between the original
    question and each question regenerated from the answer. Generator
    failure falls back to direct question/answer similarity.
    """
    if not answer.strip():
        return 0.0
    if question_generator is not None:
        try:
            generated = question_generator.paraphrase_questions(answer, PARAPHRASE_COUNT)
        except ProviderError as exc:
            logger.warning("question generation failed (%s); using direct similarity", exc)
            generated = []
        if generated:
            q_vec = embedder.embed(question)
            sims = [_clamp01(cosine_similarity(embedder.embed(g), q_vec)) for g in generated]
            return sum(sims) / len(sims)
    return _clamp01(cosine_similarity(embedder.embed(question), embedder.embed(answer)))


def f1_context(precision: float, recall: float) -> float:
    """Harmonic mean of context precision and recall."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def evaluate(records: list[EvalRecord], judge, embedder, question_generator=None) -> MetricReport:
    """Per-record metrics plus the mean over defined values.

    A judge or provider failure nulls the affected record's metrics and is
    logged; it never aborts the run.
    """
    if not records:
        raise ValueError("evaluate requires at least one record")
    per_record: list[dict] = []
    for index, record in enumerate(records):
        row: dict = {"record_index": index}
        try:
            row["answer_relevancy"] = answer_relevancy(
                record.question, record.answer, embedder, question_generator
            )
        except ProviderError as exc:
            logger.warning("record %d: answer_relevancy failed: %s", index, exc)
            row["answer_relevancy"] = None
        try:
            row["faithfulness"] = faithfulness(record.answer, record.contexts, judge)
            row["context_recall"] = context_recall(record.ground_truth, record.contexts, judge)
            row["context_precision"] = context_precision(record.ground_truth, record.contexts, judge)
        except ProviderError as exc:
            logger.warning("record %d: judge failed: %s", index, exc)
            for name in ("faithfulness", "context_recall", "context_precision"):
                row.setdefault(name, None)
        precision, recall = row.get("context_precision"), row.get("context_recall")
        row["f1"] = (
            f1_context(precision, recall) if precision is not None and recall is not None else None
        )
        per_record.append(row)

    aggregate: dict[str, float | None] = {}
    for name in METRIC_NAMES:
        defined = [row[name] for row in per_record if row.get(name) is not None]
        aggregate[name] = sum(defined) / len(defined) if defined else None
    return MetricReport(per_record=per_record, aggregate=aggregate)


def _cell(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def write_report_csv(report: MetricReport, path: str | Path) -> None:
    """Per-record rows plus a MEAN aggregate row; null metrics as empty cells."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["record", *METRIC_NAMES])
        for row in report.per_record:
            writer.writerow([row["record_index"], *(_cell(row.get(n)) for n in METRIC_NAMES)])
        writer.writerow(["MEAN", *(_cell(report.aggregate.get(n)) for n in METRIC_NAMES)])


def write_matrix_csv(report: MetricReport, records: list[EvalRecord], path: str | Path) -> None:
    """Question-by-metric matrix (the data behind per-question heatmaps)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["question", *METRIC_NAMES])
        for record, row in zip(records, report.per_record):
            writer.writerow([record.question, *(_cell(row.get(n)) for n in METRIC_NAMES)])


def load_records_jsonl(path: str | Path) -> tuple[list[EvalRecord], int]:
    """Parse eval records; malformed lines are skipped and counted."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise InputError(f"cannot read records file {path}: {exc}") from exc
    records: list[EvalRecord] = []
    skipped = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            records.append(
                EvalRecord(
                    question=str(obj["question"]),
                    ground_truth=str(obj["ground_truth"]),
                    answer=str(obj.get("answer", "")),
                    contexts=[str(c) for c in obj.get("contexts", [])],
                )
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            logger.warning("skipping malformed record at %s line %d: %s", path, lineno, exc)
            skipped += 1
    return records, skipped

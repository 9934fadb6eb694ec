"""The four timed workloads, each a closed loop with one client in one process.

Every workload reports the same end-to-end metrics, so one benchmark
definition covers all of them; what one op is differs per workload:

- ``index``: one ``build_store`` of the 300-doc corpus.
- ``query_hybrid``: one ``run_query`` in hybrid mode on the 300-doc store.
- ``query_semantic``: one ``run_query`` in unstructured_only mode on the
  1200-doc store.
- ``eval``: one ``evaluate([record], LexicalJudge(), embedder)``.

End-to-end metrics:

- ``setup_s``: median of SETUP_REPEATS ``open_store`` plus provider
  construction (on index, of the store the warm-up build wrote).
- ``op_p50_cal_ms``: the median over consecutive groups of ops (pairs on the
  query and eval workloads, single builds on index) of the group's mean
  calibrated op time, see calibration.py. A pair is one hub and one tail
  question, or answers of k and 31 - k statements, so pairs cost alike.
- ``peak_rss_mb``: peak resident memory of this process. The query and eval
  stores are built in a child process, so their peak is the serving side.
- ``store_bytes_per_corpus_byte``: store files over corpus file size.

The workload's own figures (build_s, query and per-record percentiles,
context tokens, hit rate, faithfulness, context F1, wall-clock times) go
into the printed report under their own names.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import calibration
import checks
import corpus_gen

from kgrag import EvalRecord, LexicalJudge, build_store, evaluate, open_store, run_query

RUN_PY = Path(__file__).resolve().parent / "run.py"
OUT_DIR = RUN_PY.parents[1] / ".bench_out"

# query_semantic's store is 1200 docs, not 2000: building 2000 docs took
# 20-30 s on a 2-vCPU machine (mostly hub-node upserts) and made one run of
# this workload about 50 s, three times the measured part.
DOCS = {"index": 300, "query_hybrid": 300, "query_semantic": 1200, "eval": 300}
MODES = {"query_hybrid": "hybrid", "query_semantic": "unstructured_only"}
SETUP_REPEATS = 7
EVAL_QUESTIONS = 8  # distinct retrievals behind the eval records (set-up cost)
# Ops per traced pass: a pass must fit a run, and count metrics are averaged
# over whole passes so they repeat exactly.
TRACE_OPS = {"index": 1, "query_hybrid": 6, "query_semantic": 24, "eval": 6}
PREPARE_TIMEOUT_S = 170


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, messages: list[str]) -> None:
        self.failed += 1
        self.errors.extend(messages[:3])


@dataclass
class Timings:
    wall_ms: list[float]
    calibrated_ms: list[float]
    group_p50_ms: float = 0.0  # median over op groups of their mean calibrated time


def corpus_dir(work: Path) -> Path:
    return work / "corpus"


def corpus_bytes(work: Path) -> int:
    return (corpus_dir(work) / "docs.jsonl").stat().st_size


def prepare(work: Path, seed: int, docs: int) -> None:
    """Generate the corpus and build its store under ``work``."""
    corpus_gen.generate(seed, n_docs=docs).write_jsonl(corpus_dir(work) / "docs.jsonl")
    corpus_gen.check_boundaries(build_store(corpus_dir(work), work / "store").counts)


def prepare_in_child(work: Path, seed: int, docs: int) -> None:
    """Build the store in a child process, so its memory never counts as this run's peak."""
    cmd = [sys.executable, str(RUN_PY), "--prepare", str(work), "--seed", str(seed), "--docs", str(docs)]
    subprocess.run(cmd, check=True, timeout=PREPARE_TIMEOUT_S)


def open_with_providers(store_dir: Path):
    store = open_store(store_dir)
    return store, store.make_embedder(), store.make_extractor()


def measure_setup(store_dir: Path):
    """Returns (median calibrated s, median wall s, one more opened store with providers)."""
    intervals = []
    with calibration.SpeedSampler() as sampler:
        for _ in range(SETUP_REPEATS):
            gc.collect()
            opened, interval = sampler.time(open_with_providers, store_dir)
            intervals.append(interval)
            del opened
    calibrated = statistics.median(sampler.calibrated(iv) for iv in intervals)
    return calibrated, statistics.median(iv[2] for iv in intervals), open_with_providers(store_dir)


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest percentile (multiple of 5, at least p50) with ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    pct = min(95, int(100 * (1 - 10 / n)) // 5 * 5)
    ordered = sorted(samples)
    return pct, ordered[min(n - 1, -(-pct * n // 100) - 1)]


def _timed(seconds: float, ops, run_one, check_one, out: Outcome, group: int = 1) -> Timings:
    """Closed loop over ``ops`` (cycled) until ``seconds`` of op time is measured.

    The loop stops only after a whole group of ``group`` consecutive ops, so
    the mix of inputs in a run does not depend on where the budget ran out.
    Checks run between ops, outside both the op timing and the budget. A
    failed op counts as attempted and failed, and adds no latency sample.
    """

    def attempt(op, i):
        try:
            return run_one(op, i), None
        except Exception as exc:  # a failing op is counted, not fatal
            return None, exc

    intervals = []
    spent = 0.0
    i = 0
    with calibration.SpeedSampler() as sampler:
        while spent < seconds or i % group:
            op = ops[i % len(ops)]
            (result, exc), interval = sampler.time(attempt, op, i)
            spent += interval[2]
            out.attempted += 1
            errors = [f"op {i}: {type(exc).__name__}: {exc}"] if exc else check_one(op, i, result)
            if errors:
                out.fail(errors)
            else:
                intervals.append(interval)
            i += 1
    cal = [sampler.calibrated(iv) * 1000.0 for iv in intervals]
    groups = [statistics.fmean(cal[k : k + group]) for k in range(0, len(cal), group)]
    return Timings([iv[2] * 1000.0 for iv in intervals], cal, statistics.median(groups))


def _report(out: Outcome, name: str, timings: Timings, setup, store_size: int, corpus_size: int) -> None:
    """End-to-end metrics, plus latency percentiles under the workload's own ``name``."""
    out.metrics = {
        "setup_s": (setup[0], "s"),
        "op_p50_cal_ms": (timings.group_p50_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "store_bytes_per_corpus_byte": (store_size / corpus_size, "ratio"),
    }
    out.report["ops"] = (len(timings.wall_ms), "count")
    out.report["setup_wall_s"] = (setup[1], "s")
    scale, unit = (0.001, "s") if name == "build" else (1.0, "ms")
    for kind, samples in (("cal", timings.calibrated_ms), ("wall", timings.wall_ms)):
        out.report[f"{name}_mean_{kind}_{unit}"] = (statistics.fmean(samples) * scale, unit)
        out.report[f"{name}_p50_{kind}_{unit}"] = (statistics.median(samples) * scale, unit)
        tail = tail_percentile(samples)
        if tail is not None:
            out.report[f"{name}_p{tail[0]}_{kind}_{unit}"] = (tail[1] * scale, unit)


def run_index(work: Path, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    corpus = corpus_gen.generate(seed, n_docs=DOCS["index"])
    corpus.write_jsonl(corpus_dir(work) / "docs.jsonl")
    manifest = build_store(corpus_dir(work), work / "ref")  # warm-up and reference
    corpus_gen.check_boundaries(manifest.counts)
    reference = checks.store_digests(work / "ref")
    setup = measure_setup(work / "ref")

    def build(_, i):
        return build_store(corpus_dir(work), work / f"b{i}")

    def check(_, i, manifest):
        digests = checks.store_digests(work / f"b{i}")
        shutil.rmtree(work / f"b{i}")
        changed = [name for name in digests if digests[name] != reference[name]]
        return [f"build {i}: {name} differs from the warm-up build" for name in changed]

    timings = _timed(seconds, [None], build, check, out)
    _report(out, "build", timings, setup, checks.store_bytes(work / "ref"), corpus_bytes(work))
    for key in ("documents", "semantic_chunks", "chunks", "nodes", "edges"):
        out.report[key] = (manifest.counts[key], "count")
    out.report["corpus_tokens"] = (corpus.tokens, "count")
    return out


def run_query_workload(work: Path, seed: int, seconds: float, workload: str) -> Outcome:
    out = Outcome()
    prepare_in_child(work, seed, DOCS[workload])
    questions = corpus_gen.generate(seed, n_docs=DOCS[workload]).questions
    *setup, (store, embedder, extractor) = measure_setup(work / "store")
    config = replace(store.manifest.query, mode=MODES[workload])
    oracle = checks.CosineOracle(work / "store") if config.mode == "unstructured_only" else None
    expected: dict[int, list] = {}
    hits: list[bool] = []
    context_tokens: list[int] = []
    run_query(store, questions[0].text, config, embedder=embedder, extractor=extractor)  # warm-up

    def query(question, _):
        return run_query(store, question.text, config, embedder=embedder, extractor=extractor)

    def check(question, i, result):
        errors = checks.ranking_errors(result.ranked_chunks, config.beta)
        if oracle is not None:
            key = i % len(questions)
            if key not in expected:
                expected[key] = oracle.top(embedder.embed(question.text), config.final_m_chunks)
            errors += checks.oracle_errors(result.ranked_chunks, expected[key])
        hits.append(question.fact.sentence in result.unified_context)
        context_tokens.append(len(result.unified_context.split()))
        return errors

    timings = _timed(seconds, questions, query, check, out, group=2)  # a hub and a tail question
    _report(out, "query", timings, setup, checks.store_bytes(work / "store"), corpus_bytes(work))
    out.report["context_tokens_p50"] = (statistics.median(context_tokens), "tokens")
    out.report["hit_rate"] = (sum(hits) / len(hits), "ratio")
    out.report["store_chunks"] = (len(store.vectors), "count")
    return out


def eval_records(store, embedder, extractor, corpus) -> tuple[list[EvalRecord], list[bool]]:
    """Records whose contexts come from hybrid retrieval, as ``kgrag eval`` builds them.

    Returns the records and, per retrieval, whether the fact reached the context.
    """
    retrieved = []
    hits = []
    for question in corpus.questions[:EVAL_QUESTIONS]:
        result = run_query(store, question.text, embedder=embedder, extractor=extractor)
        passages = [c.text for c in result.ranked_chunks]
        contexts = ([result.structured_text] if result.structured_text else []) + passages
        retrieved.append((question, contexts, passages))
        hits.append(question.fact.sentence in result.unified_context)
    records = []
    for j, length in enumerate(corpus_gen.ANSWER_LENGTHS):
        question, contexts, passages = retrieved[j % len(retrieved)]
        answer = corpus_gen.answer_from_passages(passages, length)
        records.append(EvalRecord(question.text, question.fact.sentence, answer, contexts))
    return records, hits


def run_eval(work: Path, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    prepare_in_child(work, seed, DOCS["eval"])
    corpus = corpus_gen.generate(seed, n_docs=DOCS["eval"])
    *setup, (store, embedder, extractor) = measure_setup(work / "store")
    records, hits = eval_records(store, embedder, extractor, corpus)
    judge = LexicalJudge()
    rows: list[dict] = []

    def score(record, _):
        return evaluate([record], judge, embedder)

    def check(record, i, report):
        rows.extend(report.per_record)
        return checks.eval_errors(report)

    timings = _timed(seconds, records, score, check, out, group=2)  # answers of k and 31 - k statements
    _report(out, "eval_per_record", timings, setup, checks.store_bytes(work / "store"), corpus_bytes(work))
    for name, label in (("faithfulness", "faithfulness"), ("f1", "context_f1")):
        defined = [row[name] for row in rows if row[name] is not None]
        out.report[label] = (statistics.fmean(defined) if defined else float("nan"), "ratio")
    out.report["retrieval_hit_rate"] = (sum(hits) / len(hits), "ratio")
    return out


def run_timed(workload: str, work: Path, seed: int, seconds: float) -> Outcome:
    if workload == "index":
        return run_index(work, seed, seconds)
    if workload == "eval":
        return run_eval(work, seed, seconds)
    return run_query_workload(work, seed, seconds, workload)

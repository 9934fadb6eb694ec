#!/usr/bin/env python3
"""Print the sha256 of a build's store files and of every query's output, and each mode's eval report and means.

Builds a store from a corpus in a temp dir with the default settings and
prints one line per store file, then one per question and mode (hybrid,
semantic, kg) with the sha256 of ``kgrag query --json``'s output, then one
per mode with the sha256 of ``kgrag eval``'s report CSV (lexical judge, echo
generator) and that report's MEAN row as ``name=value`` pairs, ``n/a`` for
a metric no record defines: the three-mode metric table. The eval records
are the ``--questions`` file, or for a generated corpus each question with
its fact sentence as the ground truth. Two trees that print the same lines
write the same store bytes, answer every question alike and score it alike,
so a refactor that claims identical outputs can show it by diffing this
script's output before and after.

It then runs every question twice in each mode through ``run_query`` over
one open store, with one embedder and one extractor, and exits 1 if a
second pass gives a result unequal to the first: what a warm query reads
from the tables a cold one filled must not change its answer.

Usage:
    python scripts/output_digests.py --bench-seed 1 [--docs 300]
    python scripts/output_digests.py --corpus data/mini_corpus --questions data/mini_corpus_questions.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from kgrag.cli import MODE_ALIASES, until_stdout_closes  # noqa: E402
from kgrag.cli import main as kgrag_main  # noqa: E402
from kgrag.evaluation import METRIC_NAMES  # noqa: E402
from kgrag.pipeline import build_store, open_store, run_query  # noqa: E402


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def bench_corpus(seed: int, docs: int, corpus_dir: Path, records: Path) -> list[str]:
    """Write the seeded benchmark corpus under ``corpus_dir`` and its eval records; returns its questions."""
    sys.path.insert(0, str(REPO_ROOT / "bench"))
    import corpus_gen

    corpus = corpus_gen.generate(seed, n_docs=docs)
    corpus.write_jsonl(corpus_dir / "docs.jsonl")
    lines = [json.dumps({"question": q.text, "ground_truth": q.fact.sentence}) + "\n" for q in corpus.questions]
    records.write_text("".join(lines), encoding="utf-8")
    return [question.text for question in corpus.questions]


def query_digest(store_dir: Path, mode: str, question: str) -> str:
    """The sha256 of ``kgrag query --json``'s output; a nonzero exit stops the script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = kgrag_main(["query", "--store", str(store_dir), "--mode", mode, "--question", question, "--json"])
    if code != 0:
        raise SystemExit(f"query --mode {mode} exited {code} on {question!r}")
    return sha256(out.getvalue().encode("utf-8"))


def eval_line(store_dir: Path, mode: str, records: Path, out: Path) -> str:
    """The sha256 of ``kgrag eval``'s report CSV, then its MEAN row; a nonzero exit stops the script."""
    argv = ["eval", "--store", str(store_dir), "--mode", mode, "--records", str(records), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = kgrag_main(argv)
    if code != 0:
        raise SystemExit(f"eval --mode {mode} exited {code}")
    report = out.read_bytes()
    cells = report.decode("utf-8").splitlines()[-1].split(",")[1:]  # the MEAN row, after its label
    means = " ".join(f"{name}={cell or 'n/a'}" for name, cell in zip(METRIC_NAMES, cells, strict=True))
    return f"{sha256(report)}  eval  {mode}  {means}"


def second_pass_faults(store_dir: Path, questions: list[str]) -> list[str]:
    """Each (mode, question) whose second ``run_query`` over one open store differs from its first."""
    store = open_store(store_dir)
    embedder, extractor = store.make_embedder(), store.make_extractor()
    faults = []
    for mode, name in MODE_ALIASES.items():
        config = replace(store.manifest.query, mode=name)
        first, second = (
            [run_query(store, q, config, embedder=embedder, extractor=extractor) for q in questions] for _ in range(2)
        )
        faults += [f"{mode}: {q!r}" for q, a, b in zip(questions, first, second) if a != b]
    return faults


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--bench-seed", type=int, help="generate the benchmark corpus of this seed (bench/corpus_gen)")
    source.add_argument("--corpus", type=Path, help="a corpus directory or file; needs --questions")
    parser.add_argument("--docs", type=int, help="documents of the generated corpus (default 300)")
    parser.add_argument("--questions", type=Path, help="JSONL file of objects with a 'question' string")
    args = parser.parse_args(argv)
    if args.corpus is not None and args.questions is None:
        parser.error("--corpus needs --questions")
    if args.docs is not None and args.bench_seed is None:
        parser.error("--docs needs --bench-seed")

    with tempfile.TemporaryDirectory() as tmp:
        if args.corpus is None:
            corpus_dir, records = Path(tmp) / "corpus", Path(tmp) / "records.jsonl"
            questions = bench_corpus(args.bench_seed, 300 if args.docs is None else args.docs, corpus_dir, records)
        else:
            corpus_dir, records = args.corpus, args.questions
            lines = args.questions.read_text(encoding="utf-8-sig").splitlines()
            questions = [json.loads(line)["question"] for line in lines if line.strip()]
        store_dir = Path(tmp) / "store"
        build_store(corpus_dir, store_dir)
        for path in sorted(store_dir.iterdir()):
            print(f"{sha256(path.read_bytes())}  {path.name}")
        for question in questions:
            for mode in MODE_ALIASES:
                print(f"{query_digest(store_dir, mode, question)}  {mode}  {question}")
        for mode in MODE_ALIASES:
            print(eval_line(store_dir, mode, records, Path(tmp) / "report.csv"))
        faults = second_pass_faults(store_dir, questions)
    for fault in faults:
        print(f"second pass differs from the first: {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(until_stdout_closes(main))

#!/usr/bin/env python3
"""Benchmark the three retrieval modes on the bundled mini corpus.

Indexes data/mini_corpus into a temp store, answers the fixture questions
under hybrid, semantic-only, and kg-only retrieval with the offline stack
(hashed embedder, rule extractor, echo generator, lexical judge), and
prints one metric row per mode. Per-mode report CSVs land in --out-dir.

Usage:
    python scripts/run_mini_benchmark.py [--out-dir results/] [--beta 0.25]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from kgrag.evaluation import (  # noqa: E402
    METRIC_NAMES,
    LexicalJudge,
    evaluate,
    load_records_jsonl,
    write_report_csv,
)
from kgrag.pipeline import answer_records, build_store, open_store  # noqa: E402
from kgrag.retriever import EchoGenerator, QueryConfig  # noqa: E402

MODES = {"hybrid": "hybrid", "semantic": "unstructured_only", "kg": "structured_only"}


def evaluate_mode(store, records, mode: str, beta: float):
    config = QueryConfig(mode=MODES[mode], beta=beta)
    embedder = store.make_embedder()
    answer_records(store, records, config, EchoGenerator(), embedder)
    return evaluate(records, LexicalJudge(), embedder)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="mini_benchmark_results")
    parser.add_argument("--beta", type=float, default=0.25)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "store"
        manifest = build_store(REPO_ROOT / "data" / "mini_corpus", store_dir)
        print(
            f"indexed mini corpus: {manifest.counts['chunks']} chunks, "
            f"{manifest.counts['nodes']} nodes, {manifest.counts['edges']} edges\n"
        )
        store = open_store(store_dir)

        header = f"{'mode':<10}" + "".join(f"{name:>20}" for name in METRIC_NAMES)
        print(header)
        print("-" * len(header))
        for mode in MODES:
            records, _ = load_records_jsonl(REPO_ROOT / "data" / "mini_corpus_questions.jsonl")
            report = evaluate_mode(store, records, mode, args.beta)
            cells = "".join(
                f"{report.aggregate[name]:>20.4f}" if report.aggregate[name] is not None else f"{'n/a':>20}"
                for name in METRIC_NAMES
            )
            print(f"{mode:<10}{cells}")
            write_report_csv(report, out_dir / f"report_{mode}.csv")

    print(f"\nper-mode reports written to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Show semantic chunk boundaries and window distances for a corpus.

Prints, per document, the sequential window distances with the percentile
threshold marked, then the resulting semantic chunks and their token-window
counts. Handy when tuning window size k or the percentile.

Usage:
    python scripts/inspect_chunks.py --corpus data/mini_corpus [--window 1]
        [--percentile 95] [--embed-dim 256]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from kgrag.chunking import (  # noqa: E402
    ChunkerConfig,
    hashed_window_distances,
    percentile_threshold,
    semantic_split,
    token_window_split,
)
from kgrag.cli import until_stdout_closes  # noqa: E402
from kgrag.corpus import load_corpus, split_sentences  # noqa: E402
from kgrag.embedding import HashedTokens, check_dimension  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--window", type=int, default=1)
    parser.add_argument("--percentile", type=float, default=95.0)
    parser.add_argument("--chunk-size", type=int, default=100)
    parser.add_argument("--overlap", type=int, default=16)
    parser.add_argument("--embed-dim", type=int, default=256)
    args = parser.parse_args()
    try:
        check_dimension(args.embed_dim)
    except ValueError as exc:
        parser.error(f"--embed-dim: {exc}")

    config = ChunkerConfig(
        window_k=args.window,
        percentile=args.percentile,
        chunk_size=args.chunk_size,
        overlap=args.overlap,
    )

    documents = load_corpus(args.corpus)
    doc_sentences = [(doc.doc_id, split_sentences(doc.text)) for doc in documents]
    # The distances build_store splits on, from one hashing pass over every sentence.
    tokens = HashedTokens([s for _, sentences in doc_sentences for s in sentences], args.embed_dim)
    all_distances = hashed_window_distances(tokens, [len(s) for _, s in doc_sentences], config.window_k)
    for (doc_id, sentences), distances in zip(doc_sentences, all_distances):
        print(f"== {doc_id}: {len(sentences)} sentences")
        if distances:
            threshold = percentile_threshold(distances, config.percentile)
            print(f"   threshold T = {threshold:.4f} (p{config.percentile:g} of {len(distances)} distances)")
            for i, distance in enumerate(distances):
                marker = "  <-- boundary" if distance > threshold else ""
                print(f"   d[{i:3d}] = {distance:.4f}{marker}")
        for sem in semantic_split(doc_id, sentences, distances, config) if sentences else []:
            pieces = token_window_split(sem, config.chunk_size, config.overlap)
            start, end = sem.sentence_span
            preview = " ".join(sem.sentences)[:70].replace("\n", " ")
            print(f"   chunk {sem.chunk_id}: sentences [{start}, {end}], {len(pieces)} token windows")
            print(f"      {preview}...")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(until_stdout_closes(main))

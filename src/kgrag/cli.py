"""Command-line interface: index, query, eval, graph-export.

Exit codes: 0 success, 2 usage/input error, 3 corrupt store, 4 provider
failure. Configuration precedence: CLI flags > JSON config file (same
schema as the manifest's config block) > built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .chunking import ChunkerConfig
from .embedding import ProviderConfig
from .evaluation import (
    LexicalJudge,
    RemoteJudge,
    evaluate,
    load_records_jsonl,
    write_matrix_csv,
    write_report_csv,
)
from .exceptions import InputError, ProviderError, StoreCorruptError
from .pipeline import (
    EMBEDDINGS_PATH,
    ExtractorConfig,
    answer_records,
    build_store,
    make_chat_client,
    open_store,
    run_query,
)
from .retriever import QueryConfig, generate_answer

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CORRUPT = 3
EXIT_PROVIDER = 4

MODE_ALIASES = {"hybrid": "hybrid", "semantic": "unstructured_only", "kg": "structured_only"}


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"config file {path} must hold a JSON object")
    return obj


def _merge(section: dict, overrides: dict) -> dict:
    merged = dict(section)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return merged


def _chunker_config(file_cfg: dict, args: argparse.Namespace) -> ChunkerConfig:
    return ChunkerConfig(
        **_merge(
            file_cfg.get("chunker", {}),
            {
                "window_k": args.window,
                "percentile": args.percentile,
                "chunk_size": args.chunk_size,
                "overlap": args.overlap,
            },
        )
    )


def _provider_config(file_cfg: dict, args: argparse.Namespace) -> ProviderConfig:
    endpoint = None
    if getattr(args, "api_base", None):
        endpoint = args.api_base.rstrip("/") + EMBEDDINGS_PATH
    return ProviderConfig(
        **_merge(
            file_cfg.get("provider", {}),
            {
                "kind": args.embedder,
                "dimension": args.embed_dim,
                "model_name": args.embed_model,
                "endpoint_url": endpoint,
            },
        )
    )


def _extractor_config(file_cfg: dict, args: argparse.Namespace) -> ExtractorConfig:
    return ExtractorConfig(
        **_merge(
            file_cfg.get("extractor", {}),
            {
                "kind": getattr(args, "extractor", None),
                "api_base": getattr(args, "api_base", None),
                "chat_model": getattr(args, "chat_model", None),
            },
        )
    )


def _query_config(file_cfg: dict, args: argparse.Namespace) -> QueryConfig:
    mode = MODE_ALIASES[args.mode] if getattr(args, "mode", None) else None
    return QueryConfig(
        **_merge(
            file_cfg.get("query", {}),
            {
                "top_n_candidates": getattr(args, "top_k", None),
                "final_m_chunks": getattr(args, "final_m", None),
                "hops": getattr(args, "hops", None),
                "beta": getattr(args, "beta", None),
                "mode": mode,
            },
        )
    )


def cmd_index(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(args.config)
    manifest = build_store(
        args.corpus,
        args.out,
        chunker=_chunker_config(file_cfg, args),
        provider=_provider_config(file_cfg, args),
        extractor_config=_extractor_config(file_cfg, args),
        query_defaults=QueryConfig(**file_cfg.get("query", {})),
    )
    counts = manifest.counts
    print(
        f"indexed {counts['documents']} documents -> {counts['semantic_chunks']} semantic chunks, "
        f"{counts['chunks']} chunks, {counts['nodes']} nodes, {counts['edges']} edges"
    )
    print(f"store written to {args.out}")
    return EXIT_OK


def cmd_query(args: argparse.Namespace) -> int:
    store = open_store(args.store)
    config = _query_config(_load_config_file(args.config), args)
    result = run_query(store, args.question, config)

    answer = None
    if args.answer:
        generator = store.make_generator(args.generator)
        answer = generate_answer(args.question, result.unified_context, generator)

    if args.as_json:
        payload = {
            "structured_text": result.structured_text,
            "chunks": [
                {"id": c.chunk_id, "score": c.cosine_score, "boost": c.boost, "final": c.final_score}
                for c in result.ranked_chunks
            ],
            "unified_context": result.unified_context,
            "diagnostics": result.diagnostics,
        }
        if answer is not None:
            payload["answer"] = answer
        print(json.dumps(payload, ensure_ascii=False, indent=2))
        return EXIT_OK

    if result.unified_context:
        print(result.unified_context)
    else:
        print("(no context retrieved)")
    if result.ranked_chunks:
        print("\nRanked chunks:")
        for c in result.ranked_chunks:
            print(f"  {c.chunk_id}  cosine={c.cosine_score:.4f}  boost={c.boost:.4f}  final={c.final_score:.4f}")
    if answer is not None:
        print(f"\nAnswer:\n{answer}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    store = open_store(args.store)
    records, skipped = load_records_jsonl(args.records)
    if not records:
        raise InputError(f"no usable records in {args.records}")

    config = _query_config(_load_config_file(args.config), args)
    embedder = store.make_embedder()
    generator = None
    if any(not record.answer for record in records):
        generator = store.make_generator(args.generator)
    pipeline_runs = answer_records(store, records, config, generator, embedder)

    if args.judge == "lexical":
        judge = LexicalJudge()
    else:
        judge = RemoteJudge(make_chat_client(store.manifest.extractor, "judge"))
    report = evaluate(records, judge, embedder)
    write_report_csv(report, args.out)
    if args.matrix:
        write_matrix_csv(report, records, args.matrix)

    means = ", ".join(
        f"{name}={value:.4f}" if value is not None else f"{name}=n/a"
        for name, value in report.aggregate.items()
    )
    print(f"evaluated {len(records)} records ({pipeline_runs} pipeline runs, {skipped} skipped lines)")
    print(f"mean: {means}")
    print(f"report written to {args.out}")
    if args.matrix:
        print(f"matrix written to {args.matrix}")
    return EXIT_OK


def cmd_graph_export(args: argparse.Namespace) -> int:
    store = open_store(args.store)
    store.graph.export(args.out, args.format)
    print(f"graph exported to {args.out} ({args.format})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgrag",
        description="Hybrid retrieval: semantic chunks + knowledge graph over a text corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    index = sub.add_parser("index", help="build a store from a corpus directory")
    index.add_argument("--corpus", required=True, help="corpus directory or file (.txt/.jsonl)")
    index.add_argument("--out", required=True, help="store directory to create")
    index.add_argument("--config", help="JSON config file (manifest config schema)")
    index.add_argument("--window", type=int, help="sentence window size k")
    index.add_argument("--percentile", type=float, help="boundary distance percentile")
    index.add_argument("--chunk-size", type=int, help="token chunk size")
    index.add_argument("--overlap", type=int, help="token overlap between chunks")
    index.add_argument("--embedder", choices=["hashed", "remote"])
    index.add_argument("--extractor", choices=["rule", "remote"])
    index.add_argument("--embed-dim", type=int, help="embedding dimension")
    index.add_argument("--api-base", help="base URL for remote providers")
    index.add_argument("--embed-model", help="remote embedding model name")
    index.add_argument("--chat-model", help="remote chat model name")

    query = sub.add_parser("query", help="retrieve context for a question")
    query.add_argument("--store", required=True)
    query.add_argument("--question", required=True)
    query.add_argument("--config")
    query.add_argument("--mode", choices=sorted(MODE_ALIASES))
    query.add_argument("--top-k", type=int, help="candidate pool size")
    query.add_argument("--final-m", type=int, help="chunks kept after fusion")
    query.add_argument("--hops", type=int, help="graph traversal depth")
    query.add_argument("--beta", type=float, help="confirmation boost weight")
    query.add_argument("--answer", action="store_true", help="also generate an answer")
    query.add_argument("--generator", choices=["echo", "remote"], default="echo")
    query.add_argument("--json", action="store_true", dest="as_json", help="machine-readable output")

    evalp = sub.add_parser("eval", help="run the metric harness over eval records")
    evalp.add_argument("--store", required=True)
    evalp.add_argument("--records", required=True, help="records JSONL file")
    evalp.add_argument("--out", required=True, help="report CSV path")
    evalp.add_argument("--config")
    evalp.add_argument("--judge", choices=["lexical", "remote"], default="lexical")
    evalp.add_argument("--matrix", help="optional per-question matrix CSV path")
    evalp.add_argument("--generator", choices=["echo", "remote"], default="echo")
    evalp.add_argument("--mode", choices=sorted(MODE_ALIASES))
    evalp.add_argument("--top-k", type=int)
    evalp.add_argument("--final-m", type=int)
    evalp.add_argument("--hops", type=int)
    evalp.add_argument("--beta", type=float)

    export = sub.add_parser("graph-export", help="export the knowledge graph")
    export.add_argument("--store", required=True)
    export.add_argument("--format", choices=["json", "dot"], required=True)
    export.add_argument("--out", required=True)

    return parser


_HANDLERS = {
    "index": cmd_index,
    "query": cmd_query,
    "eval": cmd_eval,
    "graph-export": cmd_graph_export,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StoreCorruptError as exc:
        print(f"error: corrupt store: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except ProviderError as exc:
        print(f"error: provider failure: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: index, query, eval, graph-export.

Exit codes: 0 success, 2 usage/input error, 3 corrupt store, 4 provider
failure. Configuration precedence: CLI flags > JSON config file (same
schema as the manifest's config block) > built-in defaults; for `query`
and `eval`, the store's recorded query defaults sit between the config
file and the built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from collections.abc import Callable
from dataclasses import asdict
from pathlib import Path

from .corpus import lone_surrogate
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
    CONFIG_SECTIONS,
    EMBEDDINGS_PATH,
    GRAPH_FILE,
    STORE_FILES,
    answer_records,
    build_store,
    check_config_block,
    check_config_types,
    make_chat_client,
    make_config,
    open_store,
    run_query,
)
from .retriever import QueryConfig

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CORRUPT = 3
EXIT_PROVIDER = 4

MODE_ALIASES = {"hybrid": "hybrid", "semantic": "unstructured_only", "kg": "structured_only"}


def _load_config_file(path: str | None) -> dict:
    """The file's sections, each checked for its keys and value types, whichever sections the command builds."""
    if not path:
        return {}
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"config file {path} must hold a JSON object")
    for name, block in obj.items():
        if name not in CONFIG_SECTIONS:
            raise InputError(f"config file {path}: unknown section {name!r}")
        try:
            check_config_block(name, CONFIG_SECTIONS[name], block)
        except TypeError as exc:
            raise InputError(str(exc)) from exc
        try:
            check_config_types(CONFIG_SECTIONS[name], block)
        except TypeError as exc:
            raise InputError(f"config section {name!r}: bad value: {exc}") from exc
    return obj


def _section(file_cfg: dict, name: str, base: dict | None = None, **flags):
    """Config section ``name`` from ``base``, then the file's (checked) ``name`` block, then the set flags."""
    values = {**(base or {}), **file_cfg.get(name, {})}
    values.update({k: v for k, v in flags.items() if v is not None})
    try:
        return make_config(name, CONFIG_SECTIONS[name], values)
    except (TypeError, ValueError) as exc:
        raise InputError(f"config section {name!r}: bad value: {exc}") from exc


def _query_config(stored: QueryConfig, file_cfg: dict, args: argparse.Namespace) -> QueryConfig:
    """The store's query defaults, then the config file's query block, then flags."""
    return _section(
        file_cfg, "query", base=asdict(stored),
        top_n_candidates=args.top_k,
        final_m_chunks=args.final_m,
        hops=args.hops,
        beta=args.beta,
        mode=MODE_ALIASES[args.mode] if args.mode else None,
    )


def cmd_index(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(args.config)
    endpoint = args.api_base.rstrip("/") + EMBEDDINGS_PATH if args.api_base else None
    manifest = build_store(
        args.corpus,
        args.out,
        chunker=_section(
            file_cfg, "chunker",
            window_k=args.window, percentile=args.percentile,
            chunk_size=args.chunk_size, overlap=args.overlap,
        ),
        provider=_section(
            file_cfg, "provider",
            kind=args.embedder, dimension=args.embed_dim, model_name=args.embed_model, endpoint_url=endpoint,
        ),
        extractor_config=_section(
            file_cfg, "extractor",
            kind=args.extractor, api_base=args.api_base, chat_model=args.chat_model,
        ),
        query_defaults=_section(file_cfg, "query"),
    )
    counts = manifest.counts
    print(
        f"indexed {counts['documents']} documents -> {counts['semantic_chunks']} semantic chunks, "
        f"{counts['chunks']} chunks, {counts['nodes']} nodes, {counts['edges']} edges"
    )
    out = Path(args.out)
    total = sum(p.stat().st_size for p in out.iterdir())
    print(f"store written to {out} ({total} bytes, {GRAPH_FILE} {(out / GRAPH_FILE).stat().st_size} bytes)")
    return EXIT_OK


def cmd_query(args: argparse.Namespace) -> int:
    # argv decodes with surrogateescape, so bytes that are not UTF-8 arrive as lone surrogates.
    if problem := lone_surrogate((("--question", args.question),)):
        raise InputError(problem)
    store = open_store(args.store)
    config = _query_config(store.manifest.query, _load_config_file(args.config), args)
    # Made before retrieval, so a generator the store cannot back fails before any work.
    generator = store.make_generator(args.generator) if args.answer else None
    result = run_query(store, args.question, config)
    answer = generator.generate(args.question, result.unified_context) if generator else None

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


def _refuse_to_overwrite_inputs(outs: list[Path], store: str, *inputs: str) -> None:
    """No output may be one of the store's files or ``inputs``, by any path or link; raises InputError."""
    read = [Path(store) / name for name in STORE_FILES] + [Path(path) for path in inputs]
    for out in outs:
        if out.exists() and any(path.exists() and out.samefile(path) for path in read):
            raise InputError(f"cannot write {out}: the command reads that file")


def cmd_eval(args: argparse.Namespace) -> int:
    # The reports are written last, after every retrieval and judge call.
    outs = [Path(out) for out in (args.out, args.matrix) if out]
    _refuse_to_overwrite_inputs(outs, args.store, args.records)
    for out in outs:
        if out.is_dir():
            raise InputError(f"cannot write {out}: it is a directory")
        if not out.parent.is_dir():
            raise InputError(f"cannot write {out}: directory {out.parent} does not exist")
    if len(outs) == 2:
        out, matrix = outs
        # Hard links resolve to two paths, so two files that exist are compared as files.
        if out.samefile(matrix) if out.exists() and matrix.exists() else out.resolve() == matrix.resolve():
            raise InputError(f"--out and --matrix name the same file: {args.out}")
    store = open_store(args.store)
    records, skipped = load_records_jsonl(args.records)
    if not records:
        raise InputError(f"no usable records in {args.records}")

    config = _query_config(store.manifest.query, _load_config_file(args.config), args)
    embedder = store.make_embedder()
    # The judge and generator are made before retrieval, so one the store cannot back fails before any work.
    if args.judge == "lexical":
        judge = LexicalJudge()
    else:
        judge = RemoteJudge(make_chat_client(store.manifest.extractor, "judge"))
    generator = None
    if any(not record.answer for record in records):
        generator = store.make_generator(args.generator)
    pipeline_runs = answer_records(store, records, config, generator, embedder)
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
    _refuse_to_overwrite_inputs([Path(args.out)], args.store)
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

    # The flags query and eval share: the store and its query settings.
    retrieval = argparse.ArgumentParser(add_help=False)
    retrieval.add_argument("--store", required=True, help="store directory")
    retrieval.add_argument("--config", help="JSON config file (manifest config schema)")
    retrieval.add_argument("--mode", choices=sorted(MODE_ALIASES), help="retrieval mode")
    retrieval.add_argument("--top-k", type=int, help="candidate pool size")
    retrieval.add_argument("--final-m", type=int, help="chunks kept after fusion")
    retrieval.add_argument("--hops", type=int, help="graph traversal depth")
    retrieval.add_argument("--beta", type=float, help="confirmation boost weight")
    retrieval.add_argument("--generator", choices=["echo", "remote"], default="echo", help="answer generator")

    query = sub.add_parser("query", parents=[retrieval], help="retrieve context for a question")
    query.add_argument("--question", required=True)
    query.add_argument("--answer", action="store_true", help="also generate an answer")
    query.add_argument("--json", action="store_true", dest="as_json", help="machine-readable output")

    evalp = sub.add_parser("eval", parents=[retrieval], help="run the metric harness over eval records")
    evalp.add_argument("--records", required=True, help="records JSONL file")
    evalp.add_argument("--out", required=True, help="report CSV path")
    evalp.add_argument("--judge", choices=["lexical", "remote"], default="lexical")
    evalp.add_argument("--matrix", help="optional per-question matrix CSV path")

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


def until_stdout_closes(run: Callable[[], int]) -> int:
    """``run()``'s exit code, or ``EXIT_OK`` once a reader closes stdout early (``| head -1``)."""
    try:
        code = run()
        sys.stdout.flush()  # a reader that closed the pipe early raises here
        return code
    except BrokenPipeError:  # point stdout at devnull, or the flush at exit raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return until_stdout_closes(lambda: _HANDLERS[args.command](args))
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

#!/usr/bin/env python3
"""kgrag benchmark: index, hybrid-query, semantic-query and eval workloads.

Run from the repository root:

    python3 bench/run.py --workload query_hybrid --seed 1 --seconds 15 --trace 0

The corpus is generated in-process from ``--seed`` (see corpus_gen.py) and
the program under test is imported from ``src/``. With ``--trace 0`` the run
measures the end-to-end metrics with tracing off; with ``--trace 1`` it
runs each op untraced and then traced and reports per-layer metrics and the
tracing overhead instead. Human-readable lines (environment, every named
metric with its unit, failed checks) come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The full result, with the environment, is also written to
``.bench_out/result-<workload>-seed<seed>-trace<t>.json``.

Exit codes: 0 on a completed run (failed checks are reported in the JSON),
1 when the run itself broke, 2 when the kgrag sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("index", "query_hybrid", "query_semantic", "eval")
BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in BLAS_THREAD_GETTERS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", type=Path, help=argparse.SUPPRESS)  # set-up child: corpus + store only
    parser.add_argument("--docs", type=int, default=300, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.prepare is None and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kgrag" / "__init__.py").is_file():
        print(f"kgrag sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.prepare is not None:
        workloads.prepare(args.prepare, args.seed, args.docs)
        return 0

    import layers

    workloads.OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=workloads.OUT_DIR))
    try:
        if args.trace:
            outcome = layers.run_traced(args.workload, work, args.seed, args.seconds)
            names = layers.PER_LAYER_NAMES
        else:
            outcome = workloads.run_timed(args.workload, work, args.seed, args.seconds)
            names = [(name, unit) for name, (_, unit) in outcome.metrics.items()]
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    predictions = layers.PREDICTIONS if args.trace else {}
    for name, (value, unit) in {**outcome.report, **outcome.metrics}.items():
        moves = f"  moves {predictions[name]}" if predictions.get(name) else ""
        print(f"  {name:<40} {value:>14.6g} {unit}{moves}")
    for error in outcome.errors:
        print(f"  check failed: {error}")
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name][0], "unit": unit} for name, unit in names},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "report": {k: {"value": v, "unit": u} for k, (v, u) in outcome.report.items()},
              "errors": outcome.errors, "predictions": predictions, **result}
    path = workloads.OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

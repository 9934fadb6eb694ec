"""The scripts under scripts/ on the bundled mini corpus, and output_digests.py against its golden file."""

from __future__ import annotations

import hashlib
import importlib.util
import io
import itertools
import json
import re
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from kgrag.chunking import ChunkerConfig, semantic_split, window_distances
from kgrag.cli import main as kgrag_main
from kgrag.corpus import load_corpus, split_sentences
from kgrag.embedding import HashedEmbedder
from kgrag.evaluation import METRIC_NAMES

from conftest import MINI_CORPUS, MINI_QUESTIONS, REPO_ROOT

SCRIPTS = REPO_ROOT / "scripts"


def run_script(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, cwd=REPO_ROOT
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def parse_inspect_output(text: str) -> dict[str, dict]:
    """Per document: the distance indices marked as boundaries, and the printed chunk spans."""
    docs: dict[str, dict] = {}
    current = None
    for line in text.splitlines():
        if m := re.match(r"== (\S+): (\d+) sentences", line):
            current = docs.setdefault(m.group(1), {"boundaries": [], "spans": []})
        elif m := re.match(r"\s+d\[\s*(\d+)\] = [\d.]+(  <-- boundary)?$", line):
            if m.group(2):
                current["boundaries"].append(int(m.group(1)))
        elif m := re.match(r"\s+chunk \S+: sentences \[(\d+), (\d+)\]", line):
            current["spans"].append((int(m.group(1)), int(m.group(2))))
    return docs


@pytest.mark.parametrize("percentile", [95.0, 50.0])
def test_inspect_chunks_marks_semantic_split_boundaries(percentile):
    out = run_script("inspect_chunks.py", "--corpus", str(MINI_CORPUS), "--percentile", str(percentile))
    printed = parse_inspect_output(out)
    config = ChunkerConfig(percentile=percentile)
    embedder = HashedEmbedder(256)
    documents = load_corpus(MINI_CORPUS)
    assert list(printed) == [doc.doc_id for doc in documents]
    marked = 0
    for doc in documents:
        sentences = split_sentences(doc.text)
        (distances,) = window_distances([(doc.doc_id, sentences)], embedder, config.window_k)
        spans = [c.sentence_span for c in semantic_split(doc.doc_id, sentences, distances, config)]
        assert printed[doc.doc_id]["spans"] == spans
        assert printed[doc.doc_id]["boundaries"] == [end for _, end in spans[:-1]]
        marked += len(printed[doc.doc_id]["boundaries"])
    if percentile == 50.0:
        assert marked > 0


@pytest.mark.parametrize(
    ("dimension", "message"),
    [(4, "embedding dimension must be >= 8"), (2**32, "embedding dimension must be <= 4294967295, got 4294967296")],
    ids=["below-8", "past-u32"],
)
def test_inspect_chunks_embed_dim_out_of_range_exit_2(dimension, message):
    argv = [str(SCRIPTS / "inspect_chunks.py"), "--corpus", str(MINI_CORPUS), "--embed-dim", str(dimension)]
    result = subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=REPO_ROOT)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.endswith(f"error: --embed-dim: {message}\n")


def test_inspect_chunks_quiet_when_stdout_closes_early():
    argv = [sys.executable, str(SCRIPTS / "inspect_chunks.py"), "--corpus", str(MINI_CORPUS)]
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=REPO_ROOT)
    child.stdout.close()  # as `inspect_chunks.py ... | head -2` does once it has its lines
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=120) == 0, err
    assert err == ""


def test_output_digests_of_the_mini_corpus(mini_store_dir, tmp_path):
    out = run_script("output_digests.py", "--corpus", str(MINI_CORPUS), "--questions", str(MINI_QUESTIONS))
    lines = out.splitlines()
    files = sorted(p.name for p in mini_store_dir.iterdir())
    assert lines[: len(files)] == [f"{hashlib.sha256((mini_store_dir / n).read_bytes()).hexdigest()}  {n}" for n in files]
    expected = []
    for question in (json.loads(line)["question"] for line in MINI_QUESTIONS.read_text().splitlines()):
        for mode in ("hybrid", "semantic", "kg"):
            printed = io.StringIO()
            with redirect_stdout(printed):
                argv = ["query", "--store", str(mini_store_dir), "--mode", mode, "--question", question, "--json"]
                assert kgrag_main(argv) == 0
            expected.append(f"{hashlib.sha256(printed.getvalue().encode()).hexdigest()}  {mode}  {question}")
    assert lines[len(files) : -3] == expected
    for mode, line in zip(("hybrid", "semantic", "kg"), lines[-3:], strict=True):
        report = tmp_path / f"report_{mode}.csv"
        argv = ["eval", "--store", str(mini_store_dir), "--mode", mode, "--records", str(MINI_QUESTIONS),
                "--out", str(report)]
        with redirect_stdout(io.StringIO()):
            assert kgrag_main(argv) == 0
        digest, label, printed_mode, means = line.split("  ")
        assert (digest, label, printed_mode) == (hashlib.sha256(report.read_bytes()).hexdigest(), "eval", mode)
        # The means are the report's own MEAN row, each in [0, 1] or n/a where no record defines the metric.
        pairs = [pair.split("=") for pair in means.split(" ")]
        assert [name for name, _ in pairs] == list(METRIC_NAMES)
        mean_row = report.read_text().splitlines()[-1].split(",")
        assert mean_row == ["MEAN", *(value.replace("n/a", "") for _, value in pairs)]
        assert all(value == "n/a" or 0.0 <= float(value) <= 1.0 for _, value in pairs)


def test_output_digests_quiet_when_stdout_closes_early():
    argv = [sys.executable, str(SCRIPTS / "output_digests.py"), "--corpus", str(MINI_CORPUS),
            "--questions", str(MINI_QUESTIONS)]
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=REPO_ROOT)
    child.stdout.close()  # as `output_digests.py ... | head -1` does once it has its line
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=120) == 0, err
    assert err == ""


def load_output_digests():
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPTS / "output_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_output_digests_of_bench_seed_1_match_the_golden_file(capsys):
    assert load_output_digests().main(["--bench-seed", "1"]) == 0
    printed = capsys.readouterr().out.splitlines()
    golden = (REPO_ROOT / "tests" / "output_digests_bench_seed_1.txt").read_text(encoding="utf-8").splitlines()
    moved = [
        f"line {n}: expected {want!r}, printed {got!r}"
        for n, (want, got) in enumerate(itertools.zip_longest(golden, printed, fillvalue="(none)"), start=1)
        if want != got
    ]
    assert not moved, "output_digests.py --bench-seed 1 moved from the golden file:\n" + "\n".join(moved)


def test_output_digests_docs_needs_bench_seed(capsys):
    with pytest.raises(SystemExit) as exit_info:
        load_output_digests().main(["--corpus", str(MINI_CORPUS), "--questions", str(MINI_QUESTIONS), "--docs", "60"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith("error: --docs needs --bench-seed\n")


def test_output_digests_exits_1_when_a_second_pass_differs(monkeypatch, capsys):
    script = load_output_digests()
    first_calls: set[tuple] = set()
    run_query = script.run_query

    def drifting(store, question, config, **providers):
        result = run_query(store, question, config, **providers)
        if (question, config.mode) in first_calls:
            result.diagnostics["drift"] = True  # a warm query that answers otherwise
        first_calls.add((question, config.mode))
        return result

    monkeypatch.setattr(script, "run_query", drifting)
    argv = ["--corpus", str(MINI_CORPUS), "--questions", str(MINI_QUESTIONS)]
    assert script.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 * len(MINI_QUESTIONS.read_text().splitlines())
    assert err[0] == "second pass differs from the first: hybrid: 'What is the Margherita pizza named after?'"

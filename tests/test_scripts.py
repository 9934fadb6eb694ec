"""Smoke tests: the two scripts under scripts/ run on the bundled mini corpus."""

from __future__ import annotations

import re
import subprocess
import sys

import pytest

from kgrag.chunking import ChunkerConfig, semantic_split, window_distances
from kgrag.corpus import load_corpus, split_sentences
from kgrag.embedding import HashedEmbedder
from kgrag.evaluation import METRIC_NAMES

from conftest import MINI_CORPUS, REPO_ROOT

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


def test_inspect_chunks_quiet_when_stdout_closes_early():
    argv = [sys.executable, str(SCRIPTS / "inspect_chunks.py"), "--corpus", str(MINI_CORPUS)]
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=REPO_ROOT)
    child.stdout.close()  # as `inspect_chunks.py ... | head -2` does once it has its lines
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=120) == 0, err
    assert err == ""


def test_run_mini_benchmark_quiet_when_stdout_closes_early(tmp_path):
    argv = [sys.executable, str(SCRIPTS / "run_mini_benchmark.py"), "--out-dir", str(tmp_path)]
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=REPO_ROOT)
    child.stdout.close()  # as `run_mini_benchmark.py | head -1` does once it has its line
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=120) == 0, err
    assert err == ""


def test_run_mini_benchmark(tmp_path):
    out = run_script("run_mini_benchmark.py", "--out-dir", str(tmp_path))
    assert out.startswith("indexed mini corpus:")
    modes = ("hybrid", "semantic", "kg")
    rows = {cells[0]: cells[1:] for cells in map(str.split, out.splitlines()) if cells[:1] and cells[0] in modes}
    assert set(rows) == set(modes)
    for cells in rows.values():
        assert len(cells) == len(METRIC_NAMES)
        assert all(cell == "n/a" or 0.0 <= float(cell) <= 1.0 for cell in cells)
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"report_{mode}.csv" for mode in sorted(modes)]

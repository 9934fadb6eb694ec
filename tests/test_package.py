from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import kgrag

PACKAGE_DIR = Path(kgrag.__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parents[1]


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from kgrag import *", namespace)  # raises AttributeError on a name the package lacks
    assert set(kgrag.__all__) <= namespace.keys()


def test_exported_names_are_unique():
    assert len(set(kgrag.__all__)) == len(kgrag.__all__)


def test_cli_import_loads_no_http_stack():
    """The offline path never makes an HTTP call, so importing the CLI must not pay for an HTTP client."""
    code = "import sys, kgrag, kgrag.cli; print(*(m for m in ('requests', 'urllib.request', 'http.client') if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split() == []


def test_every_import_is_stdlib_or_a_declared_dependency():
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep)[0].lower() for dep in project["dependencies"]}
    imported = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert imported, "no imports found"
    assert imported - set(sys.stdlib_module_names) - {"kgrag"} <= declared


def _top_level_names(tree: ast.Module) -> set[str]:
    """The functions, classes and assigned names a module defines at top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read, attributes read and names imported; a definition or an assignment target is not a reference."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_top_level_name_has_a_program_reader():
    """A name defined in src/kgrag is read by the package, scripts/ or bench/, not only by tests.

    ``__init__.py`` re-exports names, so its imports and definitions count for nothing.
    """
    modules = [p for p in sorted(PACKAGE_DIR.glob("*.py")) if p.name != "__init__.py"]
    readers = [*modules, *sorted((REPO_ROOT / "scripts").glob("*.py")), *sorted((REPO_ROOT / "bench").glob("*.py"))]
    referenced = set().union(*(_referenced_names(ast.parse(p.read_text(encoding="utf-8"))) for p in readers))
    unread = {
        f"{path.stem}.{name}"
        for path in modules
        for name in _top_level_names(ast.parse(path.read_text(encoding="utf-8")))
        if name not in referenced
    }
    assert not unread, f"defined in src/kgrag but read only by tests, if at all: {sorted(unread)}"


def test_every_config_field_is_set_by_a_flag():
    """Each field of a config dataclass is a keyword of one of cli.py's ``_section`` calls, so a ``kgrag`` flag sets it.

    ``_query_config`` makes its config through ``_section`` too, and the
    provider's ``endpoint_url`` is the one derived from ``--api-base``. A value
    no flag sets is a constant, not config.
    """
    from dataclasses import fields

    from kgrag.pipeline import CONFIG_SECTIONS

    set_by_flags: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_section":
            keywords = {keyword.arg for keyword in node.keywords} - {"base"}
            set_by_flags.setdefault(node.args[1].value, set()).update(keywords)
    assert set(CONFIG_SECTIONS) == {"chunker", "provider", "extractor", "query"}
    unset = {
        f"{cls.__name__}.{f.name}"
        for section, cls in CONFIG_SECTIONS.items()
        for f in fields(cls)
        if f.name not in set_by_flags.get(section, set())
    }
    assert not unset, f"config fields no kgrag flag sets: {sorted(unset)}"


def test_one_class_fills_missing_keys():
    """``corpus.Table`` is the package's one derive-on-first-read dict; a second ``__missing__`` repeats it."""
    owners = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "__missing__" for f in node.body)
    ]
    assert owners == ["corpus.Table"]


def test_readme_chunk_record_row_names_the_keys_a_build_writes():
    """README's ``chunks.jsonl`` row lists exactly the keys of a record, in order; a layout change must move it."""
    from kgrag.chunking import Chunk, chunk_to_json

    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    [row] = [line for line in readme.splitlines() if line.startswith("| `chunks.jsonl`")]
    [record] = re.findall(r"`(\{.*?\})`", row)
    assert re.findall(r'"(\w+)"', record) == list(json.loads(chunk_to_json(Chunk("d#s0#t0", (0, 1), "a"))))


def test_readme_names_the_store_format_version():
    """README's store layout states the format version a build writes; a bump must move the sentence with it."""
    from kgrag.pipeline import STORE_FORMAT_VERSION

    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"The store format version is (\d+)\.", readme) == [str(STORE_FORMAT_VERSION)]

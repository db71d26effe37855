"""Every name a cronlab module imports is used in that module, and every
function and class a module defines is named somewhere else.

The package's ``__init__`` is exempt: its imports are the public re-exports.
A name counts as used when the module reads it anywhere outside the import
statements themselves (code, annotations, decorators, default values).  A
module-level function or class counts as named when its name appears as a
word in a Python file of ``src/``, ``tests/`` or ``perfbench/`` outside the
lines of its own definition."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cronlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
WORD = re.compile(r"[A-Za-z_]\w*")


def _imported(tree: ast.Module) -> dict:
    """name bound by an import -> its line, for every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in _imported(tree).items()
              if name not in _read(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from .grid import GridSpec, VectorField\n"
                     "import numpy as np\n"
                     "def f(g: GridSpec):\n"
                     "    return np.zeros(g.shape)\n")
    assert set(_imported(tree)) - _read(tree) == {"VectorField"}


def _definitions(tree: ast.Module) -> dict:
    """name -> (first line, last line) of each module-level function and class."""
    return {node.name: (node.lineno, node.end_lineno) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def _orphans(modules: dict, corpus: dict) -> list:
    """(module, name) for every module-level function and class of ``modules``
    (path -> source) that no source of ``corpus`` (path -> source) names
    outside the definition's own lines."""
    seen = {}      # word -> [(path, line), ...]
    for path, text in corpus.items():
        for line, content in enumerate(text.splitlines(), start=1):
            for word in set(WORD.findall(content)):
                seen.setdefault(word, []).append((path, line))
    orphans = []
    for path, text in modules.items():
        for name, (lo, hi) in _definitions(ast.parse(text)).items():
            if all(where == path and lo <= line <= hi for where, line in seen.get(name, [])):
                orphans.append((path, name))
    return orphans


def test_every_defined_name_is_named_elsewhere():
    corpus = {p: p.read_text() for d in ("src", "tests", "perfbench")
              for p in sorted((ROOT / d).rglob("*.py"))}
    orphans = _orphans({p: corpus[p] for p in MODULES}, corpus)
    assert not orphans, "defined but never named elsewhere: " + ", ".join(
        f"{p.name}:{name}" for p, name in orphans)


def test_the_check_sees_a_function_whose_last_caller_moved():
    module = ("def current(phi, A):\n"
              "    return current_from_gradient(phi, A)\n"
              "\n"
              "def current_from_gradient(phi, A):\n"
              "    return phi\n")
    caller = "J = current_from_gradient(phi, A)\n"
    assert _orphans({"gauge.py": module}, {"gauge.py": module, "test.py": caller}) \
        == [("gauge.py", "current")]

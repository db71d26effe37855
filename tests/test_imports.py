"""Every name a cronlab module imports is used in that module, every
function and class a module defines is named somewhere else, and every
cronlab name the benchmark in ``perfbench/`` wraps or reads still exists.

Only ``grid.py`` imports ``numpy.fft`` or reads an ``np.fft`` attribute: the
other modules transform through grid.

The package's ``__init__`` is exempt: its imports are the public re-exports.
A name counts as used when the module reads it anywhere outside the import
statements themselves (code, annotations, decorators, default values).  A
module-level function or class counts as named when its name appears as a
word in a Python file of ``src/``, ``tests/`` or ``perfbench/`` outside the
lines of its own definition.  The benchmark's names are those of
``LAYER_TARGETS`` in ``perfbench/instrument.py``, read from its source rather
than imported, and every cronlab name a ``perfbench/*.py`` file imports or
reads off a cronlab module it imported."""

import ast
import importlib
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


def _fft_uses(tree: ast.Module) -> list:
    """Lines that import numpy.fft or read an ``np.fft``/``numpy.fft`` chain."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.split(".")[:2] == ["numpy", "fft"] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            hit = module[:2] == ["numpy", "fft"] or (
                module == ["numpy"] and any(a.name == "fft" for a in node.names))
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "fft"
                   and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_only_grid_transforms():
    # grid owns the transform convention: every dx^n and 1/L^n of a DFT
    uses = {p.name: _fft_uses(ast.parse(p.read_text(), filename=str(p)))
            for p in MODULES if p.name != "grid.py"}
    assert not any(uses.values()), "numpy.fft outside grid.py: " + ", ".join(
        f"{name} lines {lines}" for name, lines in uses.items() if lines)


def test_the_check_sees_a_transform_outside_grid():
    tree = ast.parse("import numpy as np\n"
                     "import numpy.fft\n"
                     "from numpy import fft\n"
                     "from numpy.fft import ifftn\n"
                     "v = np.fft.ifftn(x) / vol\n"
                     "w = numpy.fft.fftn(x)\n"
                     "u = np.linalg.norm(x)\n")
    assert _fft_uses(tree) == [2, 3, 4, 5, 6]


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


def _benchmark_names(sources: dict) -> set:
    """(module, dotted path) of each cronlab name the sources (path -> text)
    reach: the values of a ``LAYER_TARGETS`` dict literal, the names of
    ``from cronlab... import`` statements, and attribute chains read off a
    name bound to a cronlab module."""
    names = set()
    for text in sources.values():
        tree = ast.parse(text)
        modules = {}     # local name -> the cronlab module bound to it
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "LAYER_TARGETS" for t in node.targets):
                names |= set(ast.literal_eval(node.value).values())
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "cronlab":
                        # import cronlab.x binds cronlab; import cronlab.x as y binds y
                        local = alias.asname or "cronlab"
                        modules[local] = alias.name if alias.asname else "cronlab"
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "cronlab"):
                for alias in node.names:
                    names.add((node.module, alias.name))
                    value = getattr(importlib.import_module(node.module), alias.name, None)
                    if isinstance(value, type(importlib)):     # a submodule
                        modules[alias.asname or alias.name] = value.__name__
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in modules:
                names.add((modules[node.id], ".".join(chain)))
    return names


def _unresolved(names) -> list:
    """The (module, dotted path) pairs that do not resolve to an attribute."""
    missing = []     # also the marker of a failed lookup, which every later part keeps
    for module, path in sorted(names):
        obj = importlib.import_module(module)
        for part in path.split("."):
            obj = getattr(obj, part, missing)
        if obj is missing:
            missing.append((module, path))
    return missing


def test_every_name_the_benchmark_reaches_resolves():
    sources = {p: p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))}
    names = _benchmark_names(sources)
    assert ("cronlab.parametrix", "PhaseFamily.slice_at") in names     # a layer target
    assert ("cronlab.parametrix", "DirectionCache.build") in names     # read off pmx
    missing = _unresolved(names)
    assert not missing, f"the benchmark reaches cronlab names that do not exist: {missing}"


def test_the_check_sees_a_renamed_benchmark_name():
    source = ('LAYER_TARGETS = {"slice": ("cronlab.parametrix", "PhaseFamily.slice_of")}\n'
              "from cronlab import parametrix as pmx\n"
              "from cronlab.grid import GridSpec, ScalarField\n"
              "cache = pmx.DirectionCache.build_all(GridSpec(2, 8, 1.0))\n")
    names = _benchmark_names({"bench.py": source})
    assert _unresolved(names) == [("cronlab.parametrix", "DirectionCache.build_all"),
                                  ("cronlab.parametrix", "PhaseFamily.slice_of")]
    assert ("cronlab.grid", "ScalarField") in names

"""Every public name of the library has a caller outside the tests.

A public top-level name of ``src/duodenoise/*.py`` counts as used when an AST
name, attribute or import of it is read in a library module (its own module
beyond its definition, or another one), in ``benchmarks/*.py``, or when the
benchmark tracer's ``FUNCTIONS`` names it.  The tests do not count: a name
that only tests reach belongs in the tests.  A private top-level name
(``_name``, not a dunder) counts as used only when a library module reads
it: an intermediate that only tests or the benchmark call is dead code.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _top_level_names(tree: ast.Module) -> list[str]:
    """The top-level functions, classes and assigned names."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def _read_names(tree: ast.Module) -> set[str]:
    """Every name, attribute and import that the module reads."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.rpartition(".")[2])
    return read


def _library() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted((ROOT / "src" / "duodenoise").glob("*.py"))}


def test_every_public_name_has_a_caller():
    library = _library()
    read = set().union(*map(_read_names, library.values()))
    for path in (ROOT / "benchmarks").glob("*.py"):
        read |= _read_names(ast.parse(path.read_text()))
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "benchmarks" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {(module, attr.partition(".")[0]) for module, attr in tracer.FUNCTIONS}
    unused = [f"{module}.{name}" for module, tree in library.items()
              for name in _top_level_names(tree)
              if not name.startswith("_") and name not in read
              and (module, name) not in traced]
    assert unused == []


def test_every_private_name_has_a_library_caller():
    library = _library()
    read = set().union(*map(_read_names, library.values()))
    unused = [f"{module}.{name}" for module, tree in library.items()
              for name in _top_level_names(tree)
              if name.startswith("_") and not name.startswith("__") and name not in read]
    assert unused == []

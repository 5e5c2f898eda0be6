"""Every public name of the library has a caller outside the tests.

A public top-level name of ``src/duodenoise/*.py`` counts as used when an AST
name, attribute or import of it is read in a library module (its own module
beyond its definition, or another one), in ``benchmarks/*.py``, or when the
benchmark tracer's ``FUNCTIONS`` names it.  The tests do not count: a name
that only tests reach belongs in the tests.  A private top-level name
(``_name``, not a dunder) counts as used only when a library module reads
it: an intermediate that only tests or the benchmark call is dead code.

``tests/reference.py`` imports from ``duodenoise`` only the names of
``REFERENCE_IMPORTS``, and no test module imports another.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the data types and constants that tests/reference.py may import from duodenoise
REFERENCE_IMPORTS = {
    "BLOCK_BYTES", "BecParityDenoiser", "Channel", "ConstantDenoiser", "ERASURE",
    "ExperimentConfig", "IdentityDenoiser", "ParityCopyDenoiser", "ParityMarkedZerosDenoiser",
    "RngStream", "SlidingWindowDenoiser", "SmoothingConfig"}


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


def _imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) of each ``from module import name``, (module, "") of each ``import``."""
    return [(alias.name, "") if isinstance(node, ast.Import) else (node.module or "", alias.name)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]


def test_references_import_only_data_types_and_constants():
    imported = [(module, name) for module, name in _imports(ROOT / "tests" / "reference.py")
                if module.partition(".")[0] == "duodenoise"]
    assert imported and [pair for pair in imported if pair[1] not in REFERENCE_IMPORTS] == []


def test_no_test_module_imports_another():
    # test_golden's child script imports its cases from a string, not parsed here
    assert [(path.name, module) for path in (ROOT / "tests").glob("test_*.py")
            for module, _ in _imports(path) if module.startswith("test_")] == []

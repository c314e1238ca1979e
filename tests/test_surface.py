"""No public function or class of the package exists only for the tests.

A public (no leading underscore) top-level function or class of a module
in ``src/adakern`` must be referenced by name from ``src/``, outside its
own definition, or from ``perfbench/``.  References are names and
attribute accesses in the syntax tree; an import alone, such as a re-export
in ``__init__.py``, does not count, and neither does a perfbench reference
to a name that perfbench defines at top level itself (its own
``write_libsvm``, say).  The synthetic generators ``data.gen_*`` are the
paper's datasets and documented API, so they are excepted.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adakern"


def top_level_definitions(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def public_definitions(path: Path) -> list[str]:
    return [name for name in top_level_definitions(path) if not name.startswith("_")]


def referenced_names(path: Path) -> set[str]:
    """The names a file uses; a top-level definition's uses of its own name do not count."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != owner:
                found.add(name)
    return found


def outside_references(paths: list[Path]) -> set[str]:
    """The names a set of files uses, less those the set defines at top level."""
    used = set().union(*(referenced_names(path) for path in paths))
    return used - set().union(*(top_level_definitions(path) for path in paths))


def test_public_names_are_used_outside_the_tests():
    sources = sorted(PACKAGE.glob("*.py"))
    used = outside_references(sorted((ROOT / "perfbench").glob("*.py")))
    for path in sources:
        used |= referenced_names(path)
    test_only = [f"{path.stem}.{name}" for path in sources
                 for name in public_definitions(path)
                 if name not in used and not (path.stem == "data" and name.startswith("gen_"))]
    assert not test_only, f"public but referenced only from tests/: {test_only}"


def test_a_name_used_only_by_itself_counts_as_unused(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def lonely(n):\n    return lonely(n - 1) if n else 0\n\n\n"
                    "def caller():\n    return helper()\n", encoding="utf-8")
    assert public_definitions(path) == ["lonely", "caller"]
    used = referenced_names(path)
    assert "lonely" not in used and "helper" in used


def test_a_perfbench_name_defined_in_perfbench_does_not_count(tmp_path):
    path = tmp_path / "bench.py"
    path.write_text("import adakern\n\n\ndef write_libsvm(p):\n    return p\n\n\n"
                    "def run():\n    return write_libsvm(adakern.cli.main)\n",
                    encoding="utf-8")
    assert outside_references([path]) == {"adakern", "cli", "main", "p"}


def test_the_benchmark_imports_and_traces_the_package(monkeypatch):
    # The benchmark's workloads and tracer load what they name, the tracer
    # gives each traced function its own span name, and the package's
    # __all__ names only what it defines.  run.py is left out: importing it
    # sets the BLAS thread variables.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    importlib.import_module("workloads")
    importlib.import_module("tracer").Tracer()
    namespace = {}
    exec("from adakern import *", namespace)
    assert set(importlib.import_module("adakern").__all__) <= set(namespace)

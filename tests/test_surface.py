"""No public function or class of the package exists only for the tests.

A public (no leading underscore) top-level function or class of a module
in ``src/adakern`` must be referenced by name from ``src/``, outside its
own definition, or from ``perfbench/``.  References are names and
attribute accesses in the syntax tree; an import alone, such as a re-export
in ``__init__.py``, does not count, and neither does a perfbench reference
to a name that perfbench defines at top level itself (its own
``write_libsvm``, say).  The synthetic generators ``data.gen_*`` are the
paper's datasets and documented API, so they are excepted.

The same rule holds for fields: every annotated field and property of a
class in ``src/adakern`` must be read as an attribute somewhere in ``src/``
or ``perfbench/``.  A read that only receives ``.append`` or ``.extend``
fills a record without reading it, so it does not count.  NamedTuples are
left out, since unpacking reads their fields by position.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

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


def class_fields(path: Path) -> list[str]:
    """``Class.field`` for each annotated field and property of a file's classes, less NamedTuples."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or any(
                isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases):
            continue
        for item in cls.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                found.append(f"{cls.name}.{item.target.id}")
            elif isinstance(item, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "property" for d in item.decorator_list):
                found.append(f"{cls.name}.{item.name}")
    return found


def read_attributes(path: Path) -> set[str]:
    """The attribute names a file reads; a read that only receives ``.append`` or ``.extend`` does not count."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    receivers = {id(node.value) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in ("append", "extend")}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in receivers}


def test_public_names_are_used_outside_the_tests():
    sources = sorted(PACKAGE.glob("*.py"))
    used = outside_references(sorted((ROOT / "perfbench").glob("*.py")))
    for path in sources:
        used |= referenced_names(path)
    test_only = [f"{path.stem}.{name}" for path in sources
                 for name in public_definitions(path)
                 if name not in used and not (path.stem == "data" and name.startswith("gen_"))]
    assert not test_only, f"public but referenced only from tests/: {test_only}"


def test_fields_are_read_outside_the_tests():
    sources = sorted(PACKAGE.glob("*.py"))
    read = set().union(*(read_attributes(path)
                         for path in sources + sorted((ROOT / "perfbench").glob("*.py"))))
    unread = [name for path in sources for name in class_fields(path)
              if name.split(".")[1] not in read]
    assert not unread, f"fields read only from tests/: {unread}"


def test_a_field_that_is_only_appended_to_counts_as_unread(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from typing import NamedTuple\n\n\nclass Record:\n    log: list\n"
                    "    size: int\n\n    @property\n    def half(self):\n"
                    "        return self.size / 2\n\n\nclass Pair(NamedTuple):\n    first: int\n\n\n"
                    "def fill(record):\n    record.log.append(record.half)\n    record.log.extend([])\n",
                    encoding="utf-8")
    assert class_fields(path) == ["Record.log", "Record.size", "Record.half"]
    assert read_attributes(path) == {"size", "half", "append", "extend"}


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


def test_the_trainers_open_the_spans_the_benchmark_counts(monkeypatch, tmp_path, capsys):
    # perfbench counts solver iterations on the solver.solve and svr.solve_svr
    # spans, so each trainer reaches its main solve through those public
    # names, once; eta's preliminary solve is not counted there.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from adakern import SolverConfig, cli, svm, svr
    from adakern.persist import load_model

    X = np.linspace(-1.0, 1.0, 24)[:, None]
    y = np.where(np.sin(4.0 * X[:, 0]) > 0, 1.0, -1.0)
    config = SolverConfig(C=1.0, t_max=20)

    def cli_train():
        data, model = tmp_path / "train.libsvm", tmp_path / "m"
        data.write_text("".join(f"{label:+.0f} 1:{x:.17g}\n" for x, label in zip(X[:, 0], y)))
        assert cli.main(["train", "--task", "svm", "--data", str(data), "--t-max", "20",
                         "--model", str(model)]) == 0
        return load_model(str(model))

    runs = [("solver.solve", lambda: svm.train(X, y, 0.5, config)),
            ("svr.solve_svr", lambda: svr.train_svr(X, X[:, 0] ** 2, 0.5, config)),
            ("solver.solve", cli_train)]
    iterations = lambda args, result: result[2].iterations  # noqa: E731
    tracer = importlib.import_module("tracer").Tracer(
        {span: (span, iterations) for span in ("solver.solve", "svr.solve_svr")})
    tracer.install()
    try:
        for span, train in runs:
            first, before = len(tracer.spans), tracer.counts[span]
            model = train()
            assert [row[0] for row in tracer.spans[first:]].count(span) == 1
            assert tracer.counts[span] - before == model.meta["iterations"] > 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

"""Print every statement of ``src/adakern`` that a pytest run never executes.

Runs pytest in this process under a line tracer and then lists, module by
module, each statement that raised no line event, as ``path:line: source``,
followed by one ``path: N of M statements never run`` line per module.
The arguments are pytest's::

    python tools/uncovered.py -q                     # the whole suite
    python tools/uncovered.py -q tests/test_data.py  # one file

The tracer (``sys.settrace`` and ``threading.settrace``, so threads are
followed too) records line events only in frames whose code lives under
``src/adakern``; everywhere else it returns None, so other code runs
untraced.  The package is imported from ``src`` of this checkout.
Statements are the module's AST statements, without docstrings and
``global`` or ``nonlocal`` lines, which raise no line event.  Code run in
subprocesses (the command-line tests that start one) is not seen.  The
tracer nearly doubles the run time.  Exits with pytest's exit code.

Standard library only, besides pytest itself.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adakern"


def tracer(hits: dict[str, set[int]]):
    """A global trace function that adds each package line run to ``hits[filename]``.

    It gives package frames a local tracer and every other frame None.
    """
    prefix = str(PACKAGE) + os.sep

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        # co_filename can read None while the interpreter shuts down.
        if not filename or not filename.startswith(prefix):
            return None
        lines = hits.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    return trace


def statement_lines(source: str) -> dict[int, str]:
    """The first line of every statement that can raise a line event, with its text."""
    tree = ast.parse(source)
    text = source.splitlines()
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.add(id(body[0]))
    return {node.lineno: text[node.lineno - 1].strip() for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and id(node) not in docstrings
            and not isinstance(node, (ast.Global, ast.Nonlocal))}


def report(hits: dict[str, set[int]]) -> list[str]:
    """The never-run statements of every package module, then one count line per module."""
    missed, counts = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        statements = statement_lines(path.read_text(encoding="utf-8"))
        never = sorted(set(statements) - hits.get(str(path), set()))
        name = path.relative_to(ROOT).as_posix()
        missed += [f"{name}:{line}: {statements[line]}" for line in never]
        counts.append(f"{name}: {len(never)} of {len(statements)} statements never run")
    return missed + counts


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    hits: dict[str, set[int]] = {}
    trace = tracer(hits)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("\n".join(report(hits)))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

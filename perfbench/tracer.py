"""Span tracer that wraps the public functions of every ``adakern`` module.

The package binds many functions into several modules with
``from .x import y`` (``soft_threshold_spectrum`` lives in ``linalg`` and is
called from ``solver`` and ``svr``; ``save_model`` is called through
``cli``).  Patching only the defining module would miss those call sites,
so every module attribute that *is* a traced function is replaced by the
same wrapper.  Public methods of the package's classes are wrapped in place.

Spans are (name, start, end, parent) rows kept in memory; a span's self
time is its duration minus the time covered by its direct children.
Nothing under ``src/`` changes: ``install`` patches at run time and
``uninstall`` puts every original back.
"""

import csv
import gzip
import importlib
import inspect
import pkgutil
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import adakern


def _package_modules():
    yield adakern
    for info in pkgutil.iter_modules(adakern.__path__):
        yield importlib.import_module(f"adakern.{info.name}")


def _short(module_name):
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Collects spans while installed.

    ``hooks`` maps a span name to (count name, amount(args, result)); each
    traced call adds its amount to ``counts``.
    """

    def __init__(self, hooks=None):
        self.hooks = hooks or {}
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []
        self._targets = self._find_targets()

    @staticmethod
    def _find_targets():
        """Map each public package function to its span name."""
        targets = {}
        owners = {}
        for module in _package_modules():
            for name, value in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__.startswith("adakern"):
                    targets[value] = f"{_short(value.__module__)}.{value.__name__}"
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for attr, member in vars(value).items():
                        if not attr.startswith("_") and inspect.isfunction(member):
                            targets[member] = f"{_short(module.__name__)}.{attr}"
        for fn, span_name in targets.items():
            if span_name in owners and owners[span_name] is not fn:
                raise RuntimeError(f"two traced functions share the span name {span_name}")
            owners[span_name] = fn
        return targets

    def _wrap(self, fn, name):
        hook = self.hooks.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, perf_counter(), 0.0, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = perf_counter()
                self._stack.pop()
            if hook is not None:
                self.counts[hook[0]] += hook[1](args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        wrappers = {fn: self._wrap(fn, name) for fn, name in self._targets.items()}
        for module in _package_modules():
            holders = [module] + [v for v in vars(module).values()
                                  if inspect.isclass(v) and v.__module__ == module.__name__]
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if callable(value) and value in wrappers:
                        setattr(holder, attr, wrappers[value])
                        self._patched.append((holder, attr, value))

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself around one operation."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self._stack.pop()

    def self_times(self, first=0):
        """Per-name self time and call count over spans[first:]."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans[first:]:
            if parent >= first:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for index in range(first, len(self.spans)):
            name, start, end, _ = self.spans[index]
            self_s[name] += (end - start) - child[index]
            calls[name] += 1
        return self_s, calls

    def write(self, path):
        with gzip.open(path, "wt", newline="") as stream:
            writer = csv.writer(stream)
            writer.writerow(("name", "start", "end", "parent"))
            writer.writerows(self.spans)

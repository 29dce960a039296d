"""Spans around the public functions of a package, recorded from outside it.

`Tracer.install` replaces every public function of the named modules with a
wrapper, on every module of the package that binds the same function object
(a module that did `from .solvers import sca_solve` resolves its own
attribute, so that attribute is patched too).  Each call becomes a span with
a parent; per function the tracer keeps calls, total and self time, where
self time is the span's duration minus the time its child spans cover.
Exceptions are counted by type and re-raised.  Observers read work counters
from returned values.  Every span stays in memory, as five 8-byte integers,
until `write_spans`.  `install` and `uninstall` may alternate; the statistics
and spans of all installed periods add up.
"""

from __future__ import annotations

import array
import collections
import csv
import functools
import importlib
import inspect
import sys
import time


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.errors: collections.Counter = collections.Counter()  # (name, exception type)
        self.counters: collections.Counter = collections.Counter()
        self.observers: dict = {}  # name -> fn(tracer, result, args, kwargs)
        self.active: collections.Counter = collections.Counter()  # open spans per name
        self.names: dict[str, int] = {}  # span name -> index in `spans`
        self.spans = array.array("q")  # id, parent id, name index, start_ns, end_ns per span
        self._stack: list[list[int]] = []  # [span id, child_ns]
        self._next_id = 0
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0, 0])
        index = self.names.setdefault(name, len(self.names))
        stack, active, spans, clock = self._stack, self.active, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0]
            self._next_id += 1
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                spans.extend((frame[0], parent[0] if parent else -1, index, start, end))
            observer = self.observers.get(name)
            if observer is not None:
                observer(self, result, args, kwargs)
            return result

        return traced

    def install(self, package: str, modules: list[str]) -> None:
        mods = [importlib.import_module(f"{package}.{m}") for m in modules]
        namespaces = [sys.modules[package], *mods]
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        self._patches.append((ns, attr, fn))
                        setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patches):
            setattr(ns, attr, fn)
        self._patches.clear()

    def calls(self, *names: str) -> int:
        return sum(self.stats.get(n, (0, 0, 0))[0] for n in names)

    def total_ms(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0, 0))[1] for n in names) / 1e6

    def self_ms(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0, 0))[2] for n in names) / 1e6

    def module_self_ms(self, module: str) -> float:
        return self.self_ms(*(n for n in self.stats if n.startswith(module + ".")))

    def span_count(self) -> int:
        return len(self.spans) // 5

    def write_spans(self, path) -> None:
        names = list(self.names)
        s = self.spans
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "parent", "name", "start_ns", "end_ns"])
            for i in range(0, len(s), 5):
                writer.writerow((s[i], s[i + 1], names[s[i + 2]], s[i + 3], s[i + 4]))

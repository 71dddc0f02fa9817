"""In-memory spans for the traced benchmark run.

A span records a name, start, end and the span open around it.  Names are
"<layer>.<call>", where the layer is a module of expanderlab; names under
"fresh." mark calls the benchmark repeats on a freshly parsed graph to time
the callees of planner.certify (see workloads.certify_callees), and
"<layer>.import" the execution of the layer's module when it is imported.
"""

from __future__ import annotations

import importlib
import importlib.abc
import importlib.machinery
import sys
import time
from contextlib import contextmanager

LAYERS = ("numtheory", "bounds", "ramanujan_base", "graph_core", "matching",
          "spectral", "planner")


class Spans:
    def __init__(self):
        self.records: list[list] = []   # [name, start, end, parent index]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.records)
        parent = self._open[-1] if self._open else -1
        self.records.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.records[idx][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self) -> list[float]:
        return [end - start for _, start, end, _ in self.records]

    def self_times(self) -> list[float]:
        """Each span's duration less the durations of its direct children."""
        own = self.durations()
        for name, start, end, parent in self.records:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def top_level_total(self) -> float:
        """Summed duration of the root spans, the fresh-graph repeats excluded."""
        return sum(end - start for name, start, end, parent in self.records
                   if parent < 0 and not name.startswith("fresh."))

    def layer_busy(self) -> dict[str, float]:
        """Self time per layer.

        The fresh-graph callee spans are credited to their own layers and
        taken back out of planner.certify, which ran the same calls inside
        its span; planner keeps at least zero of that span.
        """
        busy = dict.fromkeys(LAYERS, 0.0)
        own = self.self_times()
        callees = certify = 0.0
        for i, (name, start, end, parent) in enumerate(self.records):
            layer = name.split(".", 1)[0]
            if layer not in busy:
                continue
            if parent >= 0 and self.records[parent][0].startswith("fresh."):
                callees += own[i]
            if name == "planner.certify":
                certify += own[i]
            busy[layer] += own[i]
        busy["planner"] -= min(callees, certify)
        return busy

    def by_name(self) -> dict[str, tuple[int, float, float, float]]:
        """name -> (calls, total duration, total self time, last duration)."""
        out: dict[str, tuple[int, float, float, float]] = {}
        for rec, dur, own in zip(self.records, self.durations(), self.self_times()):
            calls, total, selft, _ = out.get(rec[0], (0, 0.0, 0.0, 0.0))
            out[rec[0]] = (calls + 1, total + dur, selft + own, dur)
        return out


def import_in_spans(spans: Spans, package: str):
    """Import package, each of its submodules' execution in a span
    "<submodule>.import".  A span's self time is then the module's own
    import, with the third-party modules it is the first to import."""
    class Finder(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if not name.startswith(package + "."):
                return None
            spec = importlib.machinery.PathFinder.find_spec(name, path, target)
            if spec is not None and spec.loader is not None:
                run, span = spec.loader.exec_module, name.split(".")[1] + ".import"
                spec.loader.exec_module = lambda module: spans.call(span, run, module)
            return spec

    finder = Finder()
    sys.meta_path.insert(0, finder)
    try:
        return importlib.import_module(package)
    finally:
        sys.meta_path.remove(finder)

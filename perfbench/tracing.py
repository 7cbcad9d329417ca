"""Span tracing of corrchan from outside the package.

`Tracer.install` replaces every public function of the layer modules by a
wrapper that records one span per call, at every module binding: `cli`,
`measures`, `map_algebra` and `qec` import functions by name, so patching
only the defining module would miss most calls. `measures.minimize` is
wrapped as the `scipy` layer, and its objective as `measures.objective`.
No line of the package changes; `uninstall` restores every binding.

The current span lives in a context variable, so each thread keeps its own
span stack. `cli` runs each mu on a ThreadPoolExecutor; `install` swaps in
an executor that hands the submitting span to the worker as its parent, so
a worker's spans are children of the command that started them rather than
roots, and the command's self time excludes the time it waited for them.
"""

import contextvars
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from functools import wraps
from typing import NamedTuple

LAYERS = ("noise", "channels", "linalg", "map_algebra", "measures", "freezing", "qec", "cli")


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: float
    end: float
    thread: int
    request: int
    ok: bool


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0  # index of the command being run
        self.minimize_results: list[tuple[int, bool]] = []  # (nit, success)
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=0)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, ids, current = self.spans, self._ids, self._current

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                current.reset(token)
                spans.append(Span(sid, parent, name, start, end,
                                  threading.get_ident(), self.request, ok))
        return traced

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"corrchan.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, module in list(sys.modules.items()):
            if modname == "corrchan" or modname.startswith("corrchan."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        self._patch(module, attr, wrapped[obj])

        measures = sys.modules["corrchan.measures"]
        minimize = measures.minimize
        traced_minimize = self._wrap("scipy.minimize", minimize)
        wrap_objective = self._wrap

        def minimize_with_objective(fun, *args, **kwargs):
            res = traced_minimize(wrap_objective("measures.objective", fun), *args, **kwargs)
            self.minimize_results.append((int(res.nit), bool(res.success)))
            return res
        self._patch(measures, "minimize", minimize_with_objective)
        self._patch(sys.modules["corrchan.cli"], "ThreadPoolExecutor", _ContextExecutor)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def summary(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: call count and self time in thread-seconds; per
        layer: calls that raised.

        Self time is a span's duration minus the union of its children's
        intervals. Children on pool threads overlap one another, so layer
        sums can exceed wall time while the pool runs.
        """
        children = defaultdict(list)
        for s in self.spans:
            children[s.parent].append((s.start, s.end))
        calls, self_s, errors = Counter(), Counter(), Counter()
        for s in self.spans:
            calls[s.name] += 1
            self_s[s.name] += s.end - s.start - _covered(children.get(s.id, ()), s.start, s.end)
            if not s.ok:
                errors[s.name.split(".")[0]] += 1
        return calls, self_s, errors


def _covered(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class _ContextExecutor(ThreadPoolExecutor):
    """Runs each task in a copy of the submitting thread's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)

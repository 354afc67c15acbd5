"""Span recorder for the traced benchmark run.

``SpanRecorder.install`` wraps every public function of the ``raagcert``
modules at every module binding (so ``raagcert.certify.automorphisms`` is
wrapped as well as ``raagcert.isomorphism.automorphisms``), plus the methods
named in ``METHODS``.  Each call records a span: name, start, end, parent span
and request id, kept in flat arrays in memory.  Generator functions get no
span; their yields are counted instead.  Observers registered with
``observe`` see the arguments and result of every call of one function, and
whether it was nested in another call of the same function.  ``uninstall``
restores the originals; nothing of the package changes on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter
from typing import Callable

MODULES = ("graphs", "isomorphism", "closures", "lyndon", "liering", "certify", "cli")
METHODS = (("graphs", "Graph", "__post_init__"), ("certify", "Certificate", "to_dict"))


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.yields: Counter[str] = Counter()
        self.observers: dict[str, Callable] = {}
        self.request_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def observe(self, name: str, observer: Callable) -> None:
        """Call ``observer(args, result, nested)`` after each call of ``name``;
        register before ``install``."""
        self.observers[name] = observer

    def _span_wrapper(self, name: str, func: Callable) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        span_name, parent, request = self.span_name, self.parent, self.request
        start, end = self.start, self.end
        clock = time.perf_counter
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(recorder.request_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        observer = self.observers.get(name)
        if observer is None:
            return wrapper
        depth = [0]

        @functools.wraps(func)
        def observed(*args, **kwargs):
            depth[0] += 1
            try:
                result = wrapper(*args, **kwargs)
            finally:
                depth[0] -= 1
            observer(args, result, depth[0] > 0)
            return result

        return observed

    def _yield_wrapper(self, name: str, func: Callable) -> Callable:
        yields = self.yields

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            for item in func(*args, **kwargs):
                yields[name] += 1
                yield item

        return wrapper

    def install(self) -> None:
        modules = {name: importlib.import_module(f"raagcert.{name}") for name in MODULES}
        modules[""] = importlib.import_module("raagcert")
        wrappers: dict[int, Callable] = {}
        for short in MODULES:
            module = modules[short]
            for attr, func in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(func)
                        or func.__module__ != module.__name__):
                    continue
                name = f"{short}.{attr}"
                if inspect.isgeneratorfunction(func):
                    wrappers[id(func)] = self._yield_wrapper(name, func)
                else:
                    wrappers[id(func)] = self._span_wrapper(name, func)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        for short, cls_name, attr in METHODS:
            cls = getattr(modules[short], cls_name)
            func = vars(cls)[attr]
            self._patch(cls, attr, self._span_wrapper(f"{short}.{cls_name}.{attr}", func))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.span_name)

    def function_stats(self) -> dict[str, dict[str, float]]:
        """Per function: calls, self time (duration minus direct children) and
        total time (outermost spans only, so recursion is not double counted)."""
        count = len(self.span_name)
        child_time = [0.0] * count
        names, span_name, parent, start, end = (
            self.names, self.span_name, self.parent, self.start, self.end)
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child_time[p] += end[i] - start[i]
        stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in names}
        for i in range(count):
            entry = stats[names[span_name[i]]]
            duration = end[i] - start[i]
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[i]
            if not self._has_ancestor_named(i, span_name[i]):
                entry["total_s"] += duration
        return stats

    def _has_ancestor_named(self, i: int, nid: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.span_name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def write(self, path: str) -> None:
        """Spans as one JSON header line (names, count, field order) followed by
        the raw arrays; ``read_spans`` loads them back."""
        with open(path, "wb") as out:
            header = {"names": self.names, "count": len(self.span_name),
                      "fields": ["name", "parent", "request", "start", "end"]}
            out.write(json.dumps(header).encode("ascii") + b"\n")
            for column in (self.span_name, self.parent, self.request, self.start, self.end):
                column.tofile(out)


def read_spans(path: str) -> tuple[list[str], list[tuple[str, int, int, float, float]]]:
    """Names and (name, parent, request, start, end) rows of a written trace."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["count"]
        columns = []
        for code in ("i", "i", "i", "d", "d"):
            column = array(code)
            column.fromfile(handle, count)
            columns.append(column)
    names = header["names"]
    rows = [(names[a], b, c, d, e) for a, b, c, d, e in zip(*columns)]
    return names, rows


def module_self_times(stats: dict[str, dict[str, float]]) -> dict[str, float]:
    out: Counter[str] = Counter()
    for name, entry in stats.items():
        out[name.split(".")[0]] += entry["self_s"]
    return dict(out)


"""Spans and counters recorded around zeroone's functions from outside the package.

A span is opened on entry to a wrapped function and closed on exit.  Each
span keeps its name, start, end, its parent span and the root span of its
CLI invocation, so the spans of one invocation share an identifier.  Self
time (a span's duration minus the time covered by its child spans) is summed
per name as spans close, so the per-layer totals stay exact even after the
in-memory span list reaches its cap.

Wrapping replaces a function object wherever a zeroone module binds it, so
calls from inside the package (``from .poly import divided_difference``) are
seen too.  `restore` puts every original back.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter

MAX_SPANS = 100_000


class Tracer:
    def __init__(self, modules, max_spans: int = MAX_SPANS):
        self.modules = list(modules)
        self.max_spans = max_spans
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.dropped = 0
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [id, root, start, child_seconds, name]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _enter(self, name: str) -> None:
        sid = self._next_id
        self._next_id += 1
        root = self._stack[0][0] if self._stack else sid
        self._stack.append([sid, root, perf_counter(), 0.0, name])

    def _exit(self) -> None:
        end = perf_counter()
        sid, root, start, child, name = self._stack.pop()
        duration = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[3] += duration
            parent = top[0]
        if len(self.spans) < self.max_spans:
            self.spans.append((sid, parent, root, name, start, end))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def count(self, counter: str, amount: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    # -- wrapping -------------------------------------------------------

    def _replace(self, owner, attr: str, make_wrapper) -> None:
        """Swap owner.attr for a wrapper in owner and in every module binding it."""
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        targets = [owner] + [m for m in self.modules if m is not owner]
        for target in targets:
            for name, value in list(vars(target).items()):
                if value is original:
                    self._patches.append((target, name, original))
                    setattr(target, name, wrapper)

    def timed(self, owner, attr: str, span: str, on_result=None, on_args=None) -> None:
        """Record a span around every call; optionally count from args or result."""
        tracer = self

        def make(original):
            def traced(*args, **kwargs):
                if on_args is not None:
                    on_args(tracer, args)
                tracer._enter(span)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._exit()
                if on_result is not None:
                    on_result(tracer, result)
                return result
            return traced

        self._replace(owner, attr, make)

    def timed_generator(self, owner, attr: str, span: str, on_item=None) -> None:
        """Record one span per item a generator function produces."""
        tracer = self

        def make(original):
            def traced(*args, **kwargs):
                it = original(*args, **kwargs)
                while True:
                    tracer._enter(span)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    if on_item is not None:
                        on_item(tracer, item)
                    yield item
            return traced

        self._replace(owner, attr, make)

    def counted(self, owner, attr: str, counter: str, weigh=None) -> None:
        """Count calls (or weigh(result) per call) without opening a span.

        Used for functions too small and too frequent to time one by one;
        their time stays in the enclosing span.
        """
        tracer = self

        def make(original):
            def counting(*args, **kwargs):
                result = original(*args, **kwargs)
                tracer.count(counter, 1 if weigh is None else weigh(result))
                return result
            return counting

        self._replace(owner, attr, make)

    def restore(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        return {
            name: {"self_s": self.self_s[name], "calls": self.calls[name]}
            for name in sorted(self.self_s)
        }

    def write(self, path, header: dict) -> None:
        """Write the header, per-layer totals and every kept span as JSON."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        doc = dict(header)
        doc["layers"] = self.layers()
        doc["counts"] = dict(sorted(self.counts.items()))
        doc["spans_kept"] = len(self.spans)
        doc["spans_dropped"] = self.dropped
        doc["span_fields"] = ["id", "parent", "root", "name", "start_s", "end_s"]
        doc["spans"] = [
            [sid, parent, root, name, round(start - t0, 7), round(end - t0, 7)]
            for sid, parent, root, name, start, end in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")

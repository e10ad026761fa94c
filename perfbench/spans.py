"""Span tracing from outside the program.

The tracer replaces a function on the module that calls it with a wrapper
that records one span per call: layer, start, end and the enclosing span.
For a function that returns a generator, each ``next()`` is one span, so
a streaming layer is charged only for the time it spends producing items.
Spans stay in memory as flat arrays until ``summary`` folds them into
per-layer totals and self times (a span minus the spans nested in it).
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Callable

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.span_layer = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self.calls: Counter[str] = Counter()  # completed calls, or items yielded
        self.counts: Counter[str] = Counter()  # layer-specific work counts
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def begin(self, lid: int) -> int:
        ix = len(self.span_start)
        self.span_layer.append(lid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(0.0)
        self._open.append(ix)
        self.span_start.append(perf_counter())
        return ix

    def end(self, ix: int) -> None:
        self.span_end[ix] = perf_counter()
        self._open.pop()

    def wrap(
        self,
        module,
        attr: str,
        layer: str,
        *,
        generator: bool = False,
        count: Callable[[object], int] | None = None,
    ) -> None:
        """Replace ``module.attr`` by a timed wrapper until ``restore``.

        A missing attribute is recorded in ``absent`` and left alone, so a
        renamed function shows up as an absent layer, not as a crash.
        ``count`` maps a call's result to a work count for the layer.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            name = f"{module.__name__}.{attr}"
            if name not in self.absent:
                self.absent.append(name)
            return
        lid = self.layer_id(layer)

        if generator:

            def wrapper(*args, **kwargs):
                return self._iterate(layer, lid, fn(*args, **kwargs))

        else:

            def wrapper(*args, **kwargs):
                ix = self.begin(lid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end(ix)
                self.calls[layer] += 1
                if count is not None:
                    self.counts[layer] += count(result)
                return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def _iterate(self, layer: str, lid: int, iterable):
        it = iter(iterable)
        while True:
            ix = self.begin(lid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.end(ix)
            self.calls[layer] += 1
            yield item

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: spans, total seconds, self seconds, calls, counts."""
        n = len(self.span_start)
        child = array("d", bytes(8 * n))
        parent, start, end = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {
            layer: {"spans": 0, "total_s": 0.0, "self_s": 0.0, "calls": self.calls[layer],
                    "count": self.counts[layer]}
            for layer in self.layers
        }
        for i in range(n):
            row = out[self.layers[self.span_layer[i]]]
            duration = end[i] - start[i]
            row["spans"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child[i]
        return out


class TimedWriter:
    """A text stream that forwards to ``inner`` and records each write as
    a span of the ``cli.write`` layer, counting the bytes written."""

    LAYER = "cli.write"

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self._lid = tracer.layer_id(self.LAYER)

    def write(self, text: str) -> int:
        ix = self._tracer.begin(self._lid)
        try:
            n = self._inner.write(text)
        finally:
            self._tracer.end(ix)
        self._tracer.calls[self.LAYER] += 1
        self._tracer.counts[self.LAYER] += len(text) if text.isascii() else len(text.encode("utf-8"))
        return n

    def flush(self) -> None:
        self._inner.flush()

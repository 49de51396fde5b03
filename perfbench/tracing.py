"""In-memory spans and counters around gapcraft's public functions.

A :class:`Tracer` replaces module attributes with timing wrappers. Each call
appends one span ``(name, start, end, parent, item, attr)`` to a list:
``parent`` is the index of the enclosing span (-1 at the top), ``item`` the
benchmark item the call belongs to, and ``attr`` one small number a wrapper
extracts from the call (an effective label shape, a Sinkhorn iteration
count, a stage-1 epoch count).
Spans hold timings and counts only, never arguments or results, so tracing
does not keep large arrays alive.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int, int]] = []
        self.counts: dict[str, int] = {}
        self.item = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def span(self, name: str, fn, attr_of_args=None, on_result=None):
        """A wrapper of ``fn`` that records one span per call.

        ``attr_of_args(*args)`` gives the span's attr before the call;
        ``on_result(result)`` gives it after, replacing the first.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            attr = attr_of_args(*args) if attr_of_args is not None else 0
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.item, attr)
            if on_result is not None:
                spans[idx] = (name, start, end, parent, self.item, on_result(out))
            return out

        return wrapper

    def patch(self, owner, attr: str, name: str, modules=(), **hooks) -> None:
        """Wrap ``owner.attr`` wherever a caller looks it up.

        A module that imported the function by name holds its own reference,
        so every name bound to the same function in ``modules`` is replaced
        too. A method is patched on its class.
        """
        fn = getattr(owner, attr)
        wrapped = self.span(name, fn, **hooks)
        sites = [(owner, attr)] + [
            (m, key) for m in modules if m is not owner
            for key, value in vars(m).items() if value is fn
        ]
        for site, key in sites:
            self._patched.append((site, key, fn))
            setattr(site, key, wrapped)

    def unpatch(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Spans as JSON lines, then one line with the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, item, attr in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "item": item, "attr": attr}
                    )
                    + "\n"
                )
            fh.write(json.dumps({"counts": self.counts}) + "\n")


class SpanStats:
    """Per-name aggregates over the spans from index ``first`` on."""

    def __init__(self, spans, first: int = 0):
        self.durations: dict[str, list[float]] = {}
        self.attrs: dict[str, list[int]] = {}
        child_time: dict[int, float] = {}
        for idx in range(first, len(spans)):
            name, start, end, parent, _, attr = spans[idx]
            self.durations.setdefault(name, []).append(end - start)
            self.attrs.setdefault(name, []).append(attr)
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        self.self_s: dict[str, float] = {}
        for idx in range(first, len(spans)):
            name, start, end = spans[idx][:3]
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start) - child_time.get(idx, 0.0)

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def busy_s(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def p50_ms(self, name: str, attr: int | None = None) -> float:
        d = self.durations.get(name, ())
        if attr is not None:
            d = [t for t, a in zip(d, self.attrs.get(name, ())) if a == attr]
        return 1e3 * statistics.median(d) if d else 0.0

    def calls_with(self, name: str, attr: int) -> int:
        return sum(1 for a in self.attrs.get(name, ()) if a == attr)

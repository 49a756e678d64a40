"""Spans around the benchmark's calls into fsrkit.

A span has a name ("<layer>.<call>"), start and end times, the span it was
opened inside, the id of the instance it belongs to, and counts read off
the call's return value.  Spans stay in memory until the run ends.
Nothing inside the package is traced.
"""

from __future__ import annotations

from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "instance", "counts",
                 "_tracer")

    def __init__(self, tracer, name):
        self._tracer = tracer
        self.name = name
        self.instance = tracer.instance
        self.counts = {}

    def count(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def __enter__(self):
        stack = self._tracer._stack
        self.parent = stack[-1] if stack else None
        stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = perf_counter()
        self._tracer._stack.pop()
        self._tracer.spans.append(self)
        return False


class Tracer:
    def __init__(self):
        self.spans = []
        self.instance = None
        self._stack = []

    def span(self, name: str) -> Span:
        return Span(self, name)

    def count(self, name: str, value) -> None:
        """Add a count to the innermost open span."""
        self._stack[-1].count(name, value)

    def self_times(self, scale: dict) -> dict:
        """Per span name: summed duration minus the time its child spans
        cover, over the spans of the instance ids in `scale`, each
        multiplied by its instance's factor."""
        child_time = {}
        for s in self.spans:
            if s.parent is not None:
                key = id(s.parent)
                child_time[key] = child_time.get(key, 0.0) + s.end - s.start
        out = {}
        for s in self.spans:
            if s.instance not in scale:
                continue
            own = s.end - s.start - child_time.get(id(s), 0.0)
            out[s.name] = out.get(s.name, 0.0) + own * scale[s.instance]
        return out

    def counts(self, instances=None) -> dict:
        out = {}
        for s in self.spans:
            if instances is not None and s.instance not in instances:
                continue
            for k, v in s.counts.items():
                out[k] = out.get(k, 0) + v
        return out

    def dump(self) -> list:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": index.get(id(s.parent)), "instance": s.instance,
                 "counts": s.counts} for s in self.spans]


class _NullSpan:
    __slots__ = ()

    def count(self, name, value):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Stands in for Tracer in untraced runs, which give the end-to-end
    numbers."""

    instance = None

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value) -> None:
        pass

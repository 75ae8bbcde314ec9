"""Spans and counters around the package's public functions.

The tracer replaces a function on the module where its callers look it up
(``agcodes.linalg.rank``, and ``evaluate`` separately in ``agcodes.dual``
and ``agcodes.analysis``, which import it by name) and restores the
originals afterwards.  Spans stay in memory until the benchmark ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    pass_id: int
    parent: int | None  # index into Tracer.spans
    name: str           # the layer it is charged to, e.g. "codes.evaluate"
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans = []
        self.pass_id = 0
        self._stack = []
        self._saved = []

    def install(self, targets):
        """targets: (module, attribute, layer, counter) tuples; counter is
        None or f(args, kwargs, result) -> {counter_name: number}."""
        for module, attr, layer, counter in targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer, counter))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(self.pass_id, stack[-1] if stack else None, name, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                span.counters = counter(args, kwargs, result)
            return result

        return wrapper


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    One thread pushes and pops the spans, so children nest inside their
    parent and never overlap one another."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_totals(spans, pass_id):
    """Self seconds per layer and summed counters for one pass."""
    seconds, counts = defaultdict(float), defaultdict(int)
    for s, t in zip(spans, self_times(spans)):
        if s.pass_id != pass_id:
            continue
        seconds[s.name] += t
        for k, v in s.counters.items():
            counts[k] += v
    return seconds, counts

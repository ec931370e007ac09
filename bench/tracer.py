"""In-memory spans and counters for the traced run.

A span is ``[name, start, end, parent, op]``: its name, its interval
on the process CPU clock, the index of the span that was open when it
began (-1 for none) and the id of the op it belongs to.  Spans and
counts stay in memory until the run ends.  Every span is recorded by the
benchmark's own code, around a call into one of the program's public
functions; nothing inside the program is changed.
"""

from __future__ import annotations

from collections import Counter

from kernel import clock


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self.op = -1
        self._open: list[int] = []

    def open(self, name: str, start: float | None = None) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        when = clock() if start is None else start
        self.spans.append([name, when, when, parent, self.op])
        self._open.append(index)
        return index

    def close(self, index: int, end: float | None = None) -> None:
        self.spans[index][2] = clock() if end is None else end
        self._open.remove(index)

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span named ``name``; ``after(counts, result,
        args, kwargs)`` records the layer's counts once the call returns."""

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self.counts, result, args, kwargs)
            return result

        return traced

    def patch(self, module, attr: str, name: str, after=None) -> None:
        """Replace ``module.attr`` by its traced form.  A layer whose
        entry point is gone is recorded as missing, and the run goes on."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.add(name)
            return
        setattr(module, attr, self.wrap(fn, name, after))

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

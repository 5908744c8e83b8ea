"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: :meth:`Tracer.wrap`
replaces a method on one object instance with a timing closure, so the
program under test is not edited.  Only methods looked up on the instance
at call time can be wrapped this way; a bound method captured earlier
(``CmuGroup.process_batch`` is stored as a stage hook at placement) keeps
calling the original, which is why the datapath is wrapped one level
below it.

Each span records its name, start and end (``perf_counter_ns``), the
index of the enclosing span, and the request id (the epoch index) that
was current when it opened.  Bookkeeping done by the wrappers themselves
(counting rows, distinct buckets, alarm rows) is recorded as
``trace.bookkeeping`` spans so it is charged neither to the layer nor to
its parent.
"""

import json
import time
from collections import defaultdict

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent_index, request]
        self.counts = defaultdict(float)
        self.request = None
        self._stack = []

    # -- recording --------------------------------------------------------

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.request])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name):
        return _Span(self, name)

    def wrap(self, obj, attr, name, after=None):
        """Time every call of ``obj.attr`` as span ``name``.

        ``after(args, result)`` runs after the span closes, inside a
        bookkeeping span, to update :attr:`counts`.
        """
        original = getattr(obj, attr)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                index = tracer._open(BOOKKEEPING)
                try:
                    after(args, result)
                finally:
                    tracer._close(index)
            return result

        setattr(obj, attr, traced)

    # -- aggregation ------------------------------------------------------

    def layer_times(self):
        """``{name: (total_ms, self_ms, calls)}`` over every span.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += (end - start) / 1e6
            entry[1] += (end - start - child_ns[index]) / 1e6
            entry[2] += 1
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path):
        """Dump every span as JSON (``name, start_ns, end_ns, parent, request``)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "request"],
                    "spans": self.spans,
                },
                fh,
            )


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False

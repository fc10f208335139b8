"""In-memory span recorder for the benchmark's traced run.

The benchmark wraps each call it makes into a facemotion layer in a span
(name, start, end, parent, op id). Spans stay in a list until the run ends,
then are written out as JSON lines and folded into per-layer self times.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL = nullcontext()


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a no-op context."""

    op_id = None

    def span(self, name):
        return _NULL


class Tracer:
    """Records nested spans; the innermost open span is the parent of a new one."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self._stack = []
        self.op_id = None

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), None, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = perf_counter()

    def self_times(self):
        """{(root name, span name): [total self seconds, span count]}.

        A span's self time is its duration minus the durations of its direct
        children, so summing self times over a tree gives the root's duration.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        roots = []
        for name, _, _, parent, _ in self.spans:
            roots.append(name if parent < 0 else roots[parent])
        out = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            acc = out[(roots[i], name)]
            acc[0] += end - start - child_time[i]
            acc[1] += 1
        return out

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")

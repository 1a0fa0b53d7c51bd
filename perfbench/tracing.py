"""In-memory span recording for the traced benchmark run.

A Tracer wraps library functions where their callers look them up (module
attributes and class methods), records one span per call as
[name, start_ns, end_ns, parent_index], and restores the originals on exit.
Spans stay in memory until the benchmark writes them out at the end.
"""

import contextlib
import json
import time
from collections import Counter, defaultdict

_DONE = object()


class Tracer:
    """Spans and counters of one traced operation, identified by run_id."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self._open = [-1]

    def wrap(self, name, fn, note=None):
        """Wrap fn in a span; note(counts, args, kwargs, result) may count its output."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter_ns(), 0, self._open[-1]]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span[2] = time.perf_counter_ns()
            if note is not None:
                note(self.counts, args, kwargs, result)
            return result

        return traced

    def wrap_iter(self, name, fn):
        """Wrap an iterator factory so that each next() is its own span."""

        def traced(*args, **kwargs):
            return self._timed(name, iter(fn(*args, **kwargs)))

        return traced

    def _timed(self, name, it):
        while True:
            start = time.perf_counter_ns()
            item = next(it, _DONE)
            self.spans.append([name, start, time.perf_counter_ns(), self._open[-1]])
            if item is _DONE:
                return
            self.counts[name + ".items"] += 1
            yield item

    @contextlib.contextmanager
    def installed(self, patches):
        """Install (owner, attribute, wrapper_factory) patches for the block."""
        saved = []
        try:
            for owner, attr, factory in patches:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, factory(self, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self):
        """Per span name: call count, inclusive seconds, self seconds, durations."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = Counter()
        inclusive = defaultdict(float)
        own = defaultdict(float)
        durations = defaultdict(list)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            inclusive[name] += (end - start) * 1e-9
            own[name] += (end - start - child_ns[i]) * 1e-9
            durations[name].append((end - start) * 1e-9)
        return calls, inclusive, own, durations

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                row = {
                    "run": self.run_id,
                    "id": i,
                    "parent": parent,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                }
                out.write(json.dumps(row, separators=(",", ":")) + "\n")

"""Spans around the benchmark's calls into ecal, and call counts per module.

Spans are kept in memory as tuples and written out once, when the run ends.
"""

from __future__ import annotations

import json
import os
import sys
import time


class Tracer:
    """Records a span (name, parent, operation, start, end) around each wrapped call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            span = [span_id, self._stack[-1] if self._stack else None, self.op, name, 0, 0]
            self.spans.append(span)
            self._stack.append(span_id)
            span[4] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter_ns()
                self._stack.pop()

        return traced

    def summary(self) -> dict:
        """Per span name: count, total and self time (minus child spans), in ms."""
        child_ns = [0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for span_id, _, _, name, start, end in self.spans:
            entry = out.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["count"] += 1
            entry["total_ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - child_ns[span_id]) / 1e6
        return out

    def write(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = dict(extra, summary=self.summary(),
                   span_fields=["id", "parent", "op", "name", "start_ns", "end_ns"],
                   spans=self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def count_calls(modules_dir: str, names, fn) -> dict[str, int]:
    """Run ``fn()`` under a profile hook and count Python function calls whose
    code lies in ``modules_dir/<name>.py``, for each name."""
    by_file = {os.path.join(modules_dir, f"{name}.py"): name for name in names}
    counts = dict.fromkeys(names, 0)

    def hook(frame, event, arg):
        if event == "call":
            name = by_file.get(frame.f_code.co_filename)
            if name is not None:
                counts[name] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts

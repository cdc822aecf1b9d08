"""In-memory spans recorded by the benchmark around its calls into each layer.

A span is ``(name, start, end, parent, pass_id)``; ``parent`` is the index of
the enclosing span (-1 for a root).  Spans are kept in a list while the run
measures and are folded / written out only after the last pass, so tracing
costs two clock reads and one append per call.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Dict, List

#: Spans written to the Perfetto file; the fold always uses every span.
TRACE_FILE_SPAN_CAP = 60_000


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.pass_id = 0

    def begin(self, name: str, parent: int = -1) -> int:
        """Open a span now; returns its index (the ``parent`` of its children)."""
        self.spans.append([name, perf_counter(), 0.0, parent, self.pass_id])
        return len(self.spans) - 1

    def end(self, index: int) -> float:
        """Close span ``index`` now; returns its duration in seconds."""
        span = self.spans[index]
        span[2] = perf_counter()
        return span[2] - span[1]

    def record(self, name: str, start: float, end: float, parent: int) -> None:
        """Append an already-timed span (the per-tuple hot path)."""
        self.spans.append([name, start, end, parent, self.pass_id])

    def durations(self, name: str) -> List[float]:
        return [span[2] - span[1] for span in self.spans if span[0] == name]

    def fold(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total time and self time (total minus children)."""
        table: Dict[str, Dict[str, float]] = {}
        spans = self.spans
        for name, start, end, parent, _ in spans:
            row = table.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            duration = (end - start) * 1e3
            row["calls"] += 1
            row["total_ms"] += duration
            row["self_ms"] += duration
            if parent >= 0:
                parent_row = table.setdefault(
                    spans[parent][0], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
                )
                parent_row["self_ms"] -= duration
        return table

    def write_chrome_trace(self, path: str, process_name: str) -> int:
        """Write the first spans as a Chrome/Perfetto trace; returns how many."""
        spans = self.spans[:TRACE_FILE_SPAN_CAP]
        origin = min((span[1] for span in spans), default=0.0)
        events: List[dict] = [
            {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": process_name}}
        ]
        for index, (name, start, end, parent, pass_id) in enumerate(spans):
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "pid": 1,
                    "tid": pass_id,
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {"span": index, "parent": parent},
                }
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(spans)


def layer_shares(fold: Dict[str, Dict[str, float]], root: str) -> Dict[str, float]:
    """Each span name's self time as a share of the ``root`` spans' total time."""
    total = fold.get(root, {}).get("total_ms", 0.0)
    if not total:
        return {}
    return {name: row["self_ms"] / total for name, row in fold.items()}



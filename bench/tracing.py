"""Outside-in spans: the benchmark wraps each call it makes into a krsfree layer.

Spans live in memory and are written out once, when the run ends. Every span
has a name, a start and end (perf_counter seconds), the span that caused it,
the operation it belongs to, and the counts recorded at that boundary.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Iterator


class Tracer:
    """Collects spans; nesting follows the `with` blocks that open them."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "op": op,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0,
            "end": 0.0,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans}, fh)
            fh.write("\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]

"""In-memory spans around the benchmark's calls into wfr, written out at the end."""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    qid: str
    parent: int | None
    start_ns: int
    end_ns: int = 0


class Tracer:
    """Spans of one run. A span's index in ``spans`` is its id; spans of one
    query share ``qid``. Child spans of one parent never overlap, because the
    benchmark makes its calls one after another."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, qid: str, parent: int | None = None):
        s = Span(name, qid, parent, time.perf_counter_ns())
        self.spans.append(s)
        try:
            yield len(self.spans) - 1
        finally:
            s.end_ns = time.perf_counter_ns()

    def add(self, name: str, qid: str, start_ns: int, end_ns: int, parent: int | None = None) -> int:
        """Record a span timed elsewhere, such as by a child process."""
        self.spans.append(Span(name, qid, parent, start_ns, end_ns))
        return len(self.spans) - 1

    def durations_ns(self, name: str) -> list[int]:
        return [s.end_ns - s.start_ns for s in self.spans if s.name == name]

    def self_times_ns(self) -> dict[str, list[int]]:
        """Per span name: each span's duration minus the time its children cover."""
        covered = defaultdict(int)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end_ns - s.start_ns
        out = defaultdict(list)
        for i, s in enumerate(self.spans):
            out[s.name].append(s.end_ns - s.start_ns - covered[i])
        return out

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))

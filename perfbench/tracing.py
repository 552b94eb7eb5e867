"""In-memory spans recorded around calls into the package.

A span has a name, start, end, parent and run id.  Spans are kept in a
list and written out once the run ends; nothing is written while the
measured code runs.  ``NULL`` has the same interface and records
nothing, so one pass function serves traced and untraced runs.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, parent, self.run_id,
                  time.perf_counter(), attrs=attrs)
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover.

        Children of one span run one after another in this process, so
        the covered time is the sum of their durations."""
        covered = {s.id: 0.0 for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return {s.id: s.duration - covered[s.id] for s in self.spans}

    def dump(self, path) -> None:
        selfs = self.self_times()
        rows = [dict(asdict(s), self_time=selfs[s.id]) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")


class _NullTracer:
    run_id = ""
    spans: list[Span] = []

    def span(self, name: str, **attrs):
        return contextlib.nullcontext()


NULL = _NullTracer()

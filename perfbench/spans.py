"""In-memory spans recorded around the benchmark's calls into cliffgate.

A span has a name, a start and end time, the span that was open when it
began (its parent) and the job it belongs to.  Spans may carry counts of
the work done inside them, such as commutators evaluated or gates emitted.
Spans stay in memory during the run and are written out once at the end.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    counts: dict = field(default_factory=dict)


class _Open:
    __slots__ = ("tracer", "name", "counts", "sid", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.counts: dict = {}

    def __enter__(self) -> dict:
        tr = self.tracer
        self.sid = tr.opened
        tr.opened += 1
        self.parent = tr.stack[-1].sid if tr.stack else None
        tr.stack.append(self)
        self.start = time.perf_counter()
        return self.counts

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        tr.spans.append(Span(self.sid, self.name, self.start, end, self.parent, tr.job, self.counts))


class Tracer:
    """Records nested spans; ``job`` tags every span opened until it changes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[_Open] = []
        self.opened = 0
        self.job = 0

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class _Discard:
    __slots__ = ()

    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc) -> None:
        return None


class NullTracer:
    """Stands in for a Tracer when tracing is off; records nothing."""

    _discard = _Discard()

    def span(self, name: str) -> _Discard:
        return self._discard


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


def nesting_errors(spans: list[Span]) -> list[str]:
    """Every span must lie inside its parent and share its parent's job."""
    by_id = {s.sid: s for s in spans}
    errors = []
    for s in spans:
        if s.end < s.start:
            errors.append(f"span {s.sid} {s.name} ends before it starts")
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            errors.append(f"span {s.sid} {s.name} has no parent {s.parent}")
        elif not (p.start <= s.start and s.end <= p.end and p.job == s.job):
            errors.append(f"span {s.sid} {s.name} is not nested in {p.sid} {p.name}")
    return errors

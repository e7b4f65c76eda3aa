"""Spans recorded around calls into bktfit's layers, from outside the program.

A Tracer keeps spans in memory (name, start, end, parent) and writes them
once, at the end of a traced run. NullTracer's call runs the function and
records nothing, so the set-up code is the same in traced and untraced runs.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: runs the call and records nothing."""

    def call(self, name: str, fn: Callable[..., T], *args: object) -> T:
        return fn(*args)


@dataclass
class Tracer:
    """Tracing on: every call and span becomes a Span, nested by a stack."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _next_id: int = 0

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent))

    def call(self, name: str, fn: Callable[..., T], *args: object) -> T:
        with self.span(name):
            return fn(*args)

    def durations(self, name: str) -> list[float]:
        return [span.duration for span in self.spans if span.name == name]

    def write(self, destination: Path) -> None:
        with open(destination, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                        }
                    )
                    + "\n"
                )

"""In-memory spans and correctness counters for the benchmark.

A span is (name, start, end, parent, run id), recorded around a call into
one layer of the program from the benchmark's own code. Spans stay in memory
and are written once, when the run ends. A disabled ``Tracer`` records
nothing and reads no clock, so end-to-end numbers are measured with tracing
off.

``Checks`` counts correctness comparisons: every comparison is one attempted
operation, every mismatch one failed operation.
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = ["Tracer", "Checks", "median", "reference_loop_ms"]


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def reference_loop_ms() -> float:
    """Milliseconds taken by a fixed pure-Python dict and set loop: a reading
    of the host's current speed for code like the samplers', independent of
    the program under test. On a shared host it moves with the neighbours'
    load, which explains run-to-run spread that the program did not cause."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    members: set[int] = set()
    for i in range(60_000):
        k = (i * 7919) % 5003
        counts[k] = counts.get(k, 0) + 1
        if k in members:
            members.discard(k)
        else:
            members.add(k)
    return (time.perf_counter() - t0) * 1e3


class Tracer:
    def __init__(self, enabled: bool, run_id: str) -> None:
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        """Durations (s) of every finished span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def first(self, name: str) -> float:
        d = self.durations(name)
        return d[0] if d else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def equal(self, what: str, got, want) -> bool:
        """Exact comparison (floats bit for bit)."""
        self.attempted += 1
        if got == want:
            return True
        self.failed += 1
        self.failures.append(f"{what}: got {got!r}, want {want!r}")
        return False

    def close(self, what: str, got: float, want: float, rel: float = 1e-12) -> bool:
        """Comparison up to floating-point summation order."""
        self.attempted += 1
        if abs(got - want) <= rel * max(abs(got), abs(want), 1e-300):
            return True
        self.failed += 1
        self.failures.append(f"{what}: got {got!r}, want {want!r} (rel {rel})")
        return False

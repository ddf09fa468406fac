"""In-memory span tracing around the program's public entry points.

The traced run installs wrappers on the classes below; the untraced run
installs nothing.  A span records its name, start, end, the span that caused
it and the root span of the user-facing operation (setup, fit, request,
write) it belongs to.  Wrapped calls record only inside a root span, so the
benchmark's own output checks, which run between the operations, leave no
trace.  Spans stay in memory and are written out once, after the workload
ends.  Only the process that installed the wrappers records: worker
processes forked from it inherit the wrappers but call straight through, so
process-plane work shows up as the parent's fan-out spans.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable, Iterator, NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    root: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        #: kind → id → object seen at a boundary (kept alive, so ids stay unique).
        self.objects: dict[str, dict[int, Any]] = defaultdict(dict)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[type, str, Any]] = []
        self._gauges: dict[str, Callable[[], float]] = {}
        self._pid = os.getpid()

    # ------------------------------------------------------------------ #
    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _recording(self) -> bool:
        return os.getpid() == self._pid and bool(self._stack())

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code (a request, a fit)."""
        readings = {} if self._stack() else {gauge: read() for gauge, read in self._gauges.items()}
        sid, parent, root, start = self._open()
        try:
            yield
        finally:
            self._close(name, sid, parent, root, start)
            for gauge, before in readings.items():
                self.count(gauge, self._gauges[gauge]() - before)

    def _open(self) -> tuple[int, int | None, int, float]:
        stack = self._stack()
        sid = next(self._ids)
        parent, root = stack[-1] if stack else (None, sid)
        stack.append((sid, root))
        return sid, parent, root, time.perf_counter()

    def _close(self, name: str, sid: int, parent: int | None, root: int, start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append(Span(sid, name, start, end, parent, root))

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def keep(self, kind: str, obj: Any) -> None:
        with self._lock:
            self.objects[kind].setdefault(id(obj), obj)

    def gauge(self, name: str, read: Callable[[], float]) -> None:
        """Count *name* as the growth of the cumulative reading ``read()`` over each root span."""
        self._gauges[name] = read

    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner: type,
        attr: str,
        after: Callable[["Tracer", tuple, Any], None] | None = None,
        *,
        span: bool = True,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records calls made inside a root span.

        The span is named ``<owner>.<attr>``; *after* sees ``(tracer, args, result)``.
        """
        span_name = f"{owner.__name__}.{attr}"
        tracer = self

        def record(original: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
            if not tracer._recording():
                return original(*args, **kwargs)
            if not span:
                result = original(*args, **kwargs)
            else:
                sid, parent, root, start = tracer._open()
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(span_name, sid, parent, root, start)
            if after is not None:
                after(tracer, args, result)
            return result

        self._replace(owner, attr, record)

    def watch(self, owner: type, attr: str, after: Callable[["Tracer", tuple, Any], None]) -> None:
        """Replace ``owner.attr`` by a wrapper that shows every call of the tracing process to *after*."""
        tracer = self

        def record(original: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
            result = original(*args, **kwargs)
            if os.getpid() == tracer._pid:
                after(tracer, args, result)
            return result

        self._replace(owner, attr, record)

    def _replace(self, owner: type, attr: str, record: Callable[[Callable[..., Any], tuple, dict], Any]) -> None:
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return record(original, args, kwargs)

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def write(self, path: str) -> None:
        """Write every span (and the counters) as one JSON document."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": list(Span._fields),
                    "spans": [list(span) for span in self.spans],
                    "counts": dict(self.counts),
                },
                handle,
                separators=(",", ":"),
            )


# --------------------------------------------------------------------------- #
# span arithmetic
# --------------------------------------------------------------------------- #
def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of *intervals*."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Per span: its duration minus the part of its interval its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span.sid: span.duration - _covered(children.get(span.sid, ())) for span in spans}


def self_time(spans: Iterable[Span], name: str) -> float:
    spans = list(spans)
    times = self_times(spans)
    return sum(times[span.sid] for span in spans if span.name == name)


def inclusive_time(spans: Iterable[Span], names: set[str]) -> float:
    """Time inside any span of *names*, counting nested spans of the group once."""
    spans = list(spans)
    by_id = {span.sid: span for span in spans}
    total = 0.0
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        nested = False
        while parent is not None:
            ancestor = by_id[parent]
            if ancestor.name in names:
                nested = True
                break
            parent = ancestor.parent
        if not nested:
            total += span.duration
    return total


def span_count(spans: Iterable[Span], names: set[str]) -> int:
    return sum(1 for span in spans if span.name in names)

"""In-memory spans recorded around calls into the program's layers.

A :class:`Tracer` replaces public methods of the program's classes
with wrappers that record one :class:`Span` per call: name, start,
end, parent span and the id of the search the call belongs to.  The
program itself is not changed; :meth:`Tracer.restore` puts the
original methods back.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    """One timed call.  ``parent`` indexes :attr:`Tracer.spans`."""

    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    trace_id: str

    @property
    def duration_ns(self) -> int:
        """Wall time of the call."""
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans from wrapped methods, on any thread.

    A span's parent is the innermost open span on its own thread.  A
    span opened on a thread with no open span takes the open *root*
    span as its parent (see :meth:`wrap`'s ``root``), which is how the
    work a service thread does for ``Session.run`` lands under it.
    While :attr:`trace_id` is ``None`` calls pass through unrecorded,
    so a workload can make its inputs between measured calls.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace_id: str | None = None
        self._root: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[type, str, Any]] = []

    def _open(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._root
        span = Span(name, time.perf_counter_ns(), 0, parent, self.trace_id)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        self._local.stack.pop()

    def wrap(self, owner: type, attribute: str, name: str,
             root: bool = False,
             observe: Callable[[Any], None] | None = None) -> None:
        """Time every call of ``owner.attribute`` as span ``name``.

        ``root`` spans become the parent of spans opened on threads
        that have no open span of their own.  ``observe`` receives the
        instance the method was called on.
        """
        original = owner.__dict__[attribute]

        @functools.wraps(original)
        def traced(instance, *args, **kwargs):
            if self.trace_id is None:
                return original(instance, *args, **kwargs)
            if observe is not None:
                observe(instance)
            index = self._open(name)
            if root:
                self._root = index
            try:
                return original(instance, *args, **kwargs)
            finally:
                if root:
                    self._root = None
                self._close(index)

        setattr(owner, attribute, traced)
        self._patched.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every wrapped method back."""
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    # -- summaries -------------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the time its children cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        result = []
        for index, span in enumerate(self.spans):
            covered, reach = 0, span.start_ns
            for child in sorted(children.get(index, ()), key=lambda s: s.start_ns):
                start = max(child.start_ns, reach)
                if child.end_ns > start:
                    covered += child.end_ns - start
                    reach = child.end_ns
            result.append(span.duration_ns - covered)
        return result

    def totals(self, group: Callable[[Span], str] = lambda span: ""
               ) -> dict[tuple[str, str], dict[str, float]]:
        """``{(group, name): {"calls", "total_ms", "self_ms"}}``."""
        out: dict[tuple[str, str], dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        for span, self_time in zip(self.spans, self.self_ns()):
            entry = out[(group(span), span.name)]
            entry["calls"] += 1
            entry["total_ms"] += span.duration_ns / 1e6
            entry["self_ms"] += self_time / 1e6
        return dict(out)

    def to_json(self) -> list[dict[str, Any]]:
        """The spans as plain records, for the results file."""
        return [
            {"name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
             "parent": s.parent, "trace_id": s.trace_id}
            for s in self.spans
        ]

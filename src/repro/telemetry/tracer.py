"""Structured tracing and hot-path metrics for the AGENP loop.

The paper's closed loop needs "a history of the decisions that have been
made ... and the effects they have had on the state of the system"; the
ILASP line of work likewise reports per-run search statistics as a
first-class output.  This module is the low-level substrate for both: a
zero-dependency tracer producing monotonic-clock timed, parent-linked
span records plus typed counters and value observations aggregated per
span and per tracer.

Design constraints (mirroring :mod:`repro.runtime.budget`):

* **Ambient installation.**  A tracer is installed for a dynamic extent
  with :func:`tracer_scope`; instrumented primitives call the
  module-level :func:`span` / :func:`incr` / :func:`observe` helpers,
  which consult the ambient tracer.  One scope therefore traces an
  arbitrarily deep call tree (PDP -> interpreter -> ASG membership ->
  grounder -> solver) with no signature changes.
* **No-op cheap.**  With no tracer installed, :func:`span` returns the
  shared :data:`NULL_SPAN` singleton (no allocation) and
  :func:`incr` / :func:`observe` return after one context-variable read.
  Hot inner loops (solver propagation, Earley chart processing) never
  call into telemetry per iteration anyway — they keep plain integer
  counters and record them once at operation end.
* **Deterministic ids.**  Span and trace ids come from per-tracer
  counters, not randomness, so two identical runs produce identical
  traces (the same property PR 1 gave message and record ids).
"""

from __future__ import annotations

import contextlib
import itertools
import time
from contextvars import ContextVar
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Metrics",
    "Span",
    "Tracer",
    "NULL_SPAN",
    "current_tracer",
    "tracer_scope",
    "span",
    "incr",
    "observe",
]


class Metrics:
    """Typed counters and value observations.

    ``incr`` accumulates named integer counters; ``observe`` records a
    numeric value into a running (count, total, min, max) aggregate —
    enough for rates and gauges without storing every sample.
    """

    __slots__ = ("counters", "observations")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        # name -> [count, total, min, max]
        self.observations: Dict[str, List[float]] = {}

    def incr(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        agg = self.observations.get(name)
        if agg is None:
            self.observations[name] = [1, value, value, value]
        else:
            agg[0] += 1
            agg[1] += value
            if value < agg[2]:
                agg[2] = value
            if value > agg[3]:
                agg[3] = value

    def merge_from(self, other: "Metrics") -> None:
        for name, n in other.counters.items():
            self.incr(name, n)
        for name, (count, total, low, high) in other.observations.items():
            agg = self.observations.get(name)
            if agg is None:
                self.observations[name] = [count, total, low, high]
            else:
                agg[0] += count
                agg[1] += total
                agg[2] = min(agg[2], low)
                agg[3] = max(agg[3], high)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "observations": {
                name: {"count": c, "total": t, "min": lo, "max": hi}
                for name, (c, t, lo, hi) in self.observations.items()
            },
        }


class Span:
    """One timed operation: name, attributes, counters, parent link.

    Spans are created by :meth:`Tracer.span` and finished by the
    context manager; ``duration`` is monotonic-clock elapsed seconds and
    ``ts`` a wall-clock start timestamp for cross-process correlation.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attrs",
        "metrics",
        "ts",
        "duration",
        "status",
        "error",
        "_t0",
    )

    def __init__(
        self,
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        attrs: Dict[str, Any],
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.metrics = Metrics()
        self.ts: float = 0.0
        self.duration: float = 0.0
        self.status = "ok"
        self.error: Optional[str] = None
        self._t0: float = 0.0

    # The Span API doubles as the NullSpan API; keep it tiny.

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def incr(self, name: str, n: int = 1) -> None:
        self.metrics.incr(name, n)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def as_record(self) -> Dict[str, Any]:
        """A JSON-serialisable flat record of this finished span."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "ts": self.ts,
            "duration": self.duration,
            "status": self.status,
            "error": self.error,
            "attrs": dict(self.attrs),
            "counters": dict(self.metrics.counters),
            "observations": self.metrics.as_dict()["observations"],
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r} trace={self.trace_id} id={self.span_id} "
            f"parent={self.parent_id} {self.duration * 1e3:.3f}ms {self.status})"
        )


class _NullSpan:
    """Shared do-nothing span returned when no tracer is installed.

    Also usable directly as a context manager, so instrumentation can be
    written unconditionally::

        with span("asp.solve") as sp:
            ...
            sp.incr("solver.models", len(models))
    """

    __slots__ = ()

    trace_id: Optional[int] = None
    span_id: Optional[int] = None
    parent_id: Optional[int] = None
    duration = 0.0

    def set(self, **attrs: Any) -> None:
        pass

    def incr(self, name: str, n: int = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager that opens/closes one :class:`Span` on a tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc_type is not None:
            # an exception class may name its own status (``unsat`` for an
            # expected "no solution" verdict); anything else is an error
            self._span.status = getattr(exc_type, "span_status", "error")
            self._span.error = f"{exc_type.__name__}: {exc}"
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Collects finished spans and tracer-wide metric aggregates.

    ``exporters`` is a sequence of objects with an
    ``export(record: dict)`` method (see :mod:`repro.telemetry.exporters`);
    every finished span is handed to each exporter and also kept in
    ``self.spans`` (the in-memory record used by tests and
    :func:`~repro.telemetry.exporters.summarize`).

    Spans nest: :meth:`span` links the new span to the innermost open
    one and roots start fresh traces.  Counters recorded on a span via
    the module-level :func:`incr` / :func:`observe` also aggregate into
    ``self.metrics`` (tracer-wide totals) and bubble into every open
    ancestor span, so a root span's counters summarise its whole tree.
    """

    def __init__(
        self,
        exporters: Optional[List[Any]] = None,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: Callable[[], float] = time.time,
    ):
        self.exporters: List[Any] = list(exporters) if exporters else []
        self.spans: List[Dict[str, Any]] = []
        self.metrics = Metrics()
        self._clock = clock
        self._wall_clock = wall_clock
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._stack: List[Span] = []

    # -- span lifecycle ------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        parent = self._stack[-1] if self._stack else None
        trace_id = parent.trace_id if parent is not None else next(self._trace_ids)
        parent_id = parent.span_id if parent is not None else None
        record = Span(name, trace_id, next(self._span_ids), parent_id, attrs)
        return _SpanHandle(self, record)

    def _push(self, span: Span) -> None:
        span.ts = self._wall_clock()
        span._t0 = self._clock()
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        span.duration = self._clock() - span._t0
        # tolerate exceptions unwinding through several instrumented frames
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        # bubble counters to the parent so root spans summarise their tree
        if self._stack:
            self._stack[-1].metrics.merge_from(span.metrics)
        record = span.as_record()
        self.spans.append(record)
        for exporter in self.exporters:
            exporter.export(record)

    # -- ambient metric recording -------------------------------------------

    @property
    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def incr(self, name: str, n: int = 1) -> None:
        self.metrics.incr(name, n)
        if self._stack:
            self._stack[-1].metrics.incr(name, n)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)
        if self._stack:
            self._stack[-1].metrics.observe(name, value)

    def close(self) -> None:
        """Close every exporter that supports it."""
        for exporter in self.exporters:
            close = getattr(exporter, "close", None)
            if close is not None:
                close()


_AMBIENT: ContextVar[Optional[Tracer]] = ContextVar("repro_ambient_tracer", default=None)


def current_tracer() -> Optional[Tracer]:
    """The innermost ambient tracer, or None outside any scope."""
    return _AMBIENT.get()


@contextlib.contextmanager
def tracer_scope(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Install ``tracer`` as the ambient tracer for the dynamic extent.

    ``tracer_scope(None)`` masks any outer scope (useful to exempt a
    subcomputation from tracing).
    """
    token = _AMBIENT.set(tracer)
    try:
        yield tracer
    finally:
        _AMBIENT.reset(token)


def span(name: str, **attrs: Any):
    """Open a span on the ambient tracer (shared no-op outside a scope)."""
    tracer = _AMBIENT.get()
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def incr(name: str, n: int = 1) -> None:
    """Increment a counter on the ambient tracer (no-op outside a scope)."""
    tracer = _AMBIENT.get()
    if tracer is not None:
        tracer.incr(name, n)


def observe(name: str, value: float) -> None:
    """Record a value observation on the ambient tracer (no-op outside)."""
    tracer = _AMBIENT.get()
    if tracer is not None:
        tracer.observe(name, value)

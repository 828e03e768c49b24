"""Nesting stage spans: wall + CPU time per pipeline stage.

:func:`trace_span` is the one primitive: a context manager that opens a
:class:`Span` for a named stage, nests under whatever span the current
thread already has open, and on exit records three instruments into the
owning registry —

* ``{stage}.calls`` (counter),
* ``{stage}.wall_seconds`` (histogram, ``time.perf_counter`` delta),
* ``{stage}.cpu_seconds`` (histogram, ``time.thread_time`` delta — CPU
  consumed by *this thread*, so lock waits and sleeps don't count).

Spans form a per-thread stack (``threading.local``), so a sweep span
opened inside a serving-pick span knows its parent; :func:`current_span`
exposes the innermost open span for ad-hoc tag enrichment. Exceptions
propagate untouched, but the span still closes and records — a failing
sweep is precisely the latency you want in the histogram.

**Disabled fast path.** When the registry is disabled and no profilers
are registered, ``trace_span(...)`` returns a shared no-op context
manager: no Span allocation, no clock reads, no stack push — two attr
loads and a branch.

Profilers — any object with ``on_span_start(span)`` /
``on_span_end(span)``, attached with ``registry.add_profiler`` — receive
those callbacks for every span on every thread, even when metric
recording is disabled: profiling is an independent opt-in. They run
inline on the instrumented thread, so an exception from one propagates
into the traced stage.
"""

from __future__ import annotations

import threading
import time

from repro.obs.registry import MetricsRegistry, get_registry

_STACK = threading.local()


def _span_stack() -> list:
    stack = getattr(_STACK, "spans", None)
    if stack is None:
        stack = []
        _STACK.spans = stack
    return stack


def current_span() -> Span | None:
    """The innermost open span on this thread, or ``None``."""
    stack = getattr(_STACK, "spans", None)
    return stack[-1] if stack else None


class Span:
    """One timed execution of a named stage.

    ``wall_seconds``/``cpu_seconds`` are populated on close; ``tags`` is
    a plain dict callers may enrich while the span is open (via
    :func:`current_span`). ``parent`` is the enclosing span on the same
    thread, or ``None`` at the root.
    """

    __slots__ = (
        "stage",
        "tags",
        "parent",
        "wall_seconds",
        "cpu_seconds",
        "error",
        "_wall_start",
        "_cpu_start",
    )

    def __init__(self, stage: str, tags: dict, parent: Span | None) -> None:
        self.stage = stage
        self.tags = tags
        self.parent = parent
        self.wall_seconds = None
        self.cpu_seconds = None
        self.error = None
        self._wall_start = time.perf_counter()
        self._cpu_start = time.thread_time()

    def _close(self) -> None:
        self.wall_seconds = time.perf_counter() - self._wall_start
        self.cpu_seconds = time.thread_time() - self._cpu_start

    @property
    def depth(self) -> int:
        depth = 0
        span = self.parent
        while span is not None:
            depth += 1
            span = span.parent
        return depth


class _NullSpan:
    """Shared do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class trace_span:
    """Context manager timing one stage; see the module docstring.

    Class-based (not ``@contextmanager``) so the disabled path can skip
    generator machinery entirely: ``__new__`` returns a shared no-op
    object when the registry is off and no profilers listen.
    """

    __slots__ = ("registry", "stage", "tags", "span")

    def __new__(cls, stage: str, *, registry: MetricsRegistry | None = None, **tags):
        reg = registry if registry is not None else get_registry()
        if not reg.enabled and not reg.profilers:
            return _NULL_SPAN
        self = object.__new__(cls)
        self.registry = reg
        self.stage = stage
        self.tags = tags
        self.span = None
        return self

    def __enter__(self) -> Span:
        stack = _span_stack()
        span = Span(self.stage, self.tags, stack[-1] if stack else None)
        stack.append(span)
        self.span = span
        for profiler in self.registry.profilers:
            profiler.on_span_start(span)
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self.span
        span._close()
        if exc is not None:
            span.error = exc
        stack = _span_stack()
        if stack and stack[-1] is span:
            stack.pop()
        registry = self.registry
        if registry.enabled:
            registry.counter(f"{span.stage}.calls").inc()
            registry.histogram(f"{span.stage}.wall_seconds").observe(
                span.wall_seconds
            )
            registry.histogram(f"{span.stage}.cpu_seconds").observe(
                span.cpu_seconds
            )
        for profiler in registry.profilers:
            profiler.on_span_end(span)
        return False

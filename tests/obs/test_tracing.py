"""trace_span: nesting, wall/CPU recording, exceptions, disabled path."""

import threading

import pytest

from repro.obs import MetricsRegistry, current_span, trace_span


class Recorder:
    """A profiler: anything with ``on_span_start`` / ``on_span_end``."""

    def __init__(self) -> None:
        self.started = []
        self.ended = []

    def on_span_start(self, span) -> None:
        self.started.append(span.stage)

    def on_span_end(self, span) -> None:
        self.ended.append((span.stage, span.wall_seconds, span.error))


def test_span_records_calls_wall_and_cpu():
    registry = MetricsRegistry()
    with trace_span("stage.a", registry=registry) as span:
        pass
    assert span.wall_seconds >= 0.0
    assert span.cpu_seconds >= 0.0
    assert registry.counter("stage.a.calls").value == 1
    assert registry.histogram("stage.a.wall_seconds").count == 1
    assert registry.histogram("stage.a.cpu_seconds").count == 1


def test_spans_nest_and_track_parents():
    registry = MetricsRegistry()
    assert current_span() is None
    with trace_span("outer", registry=registry) as outer:
        assert current_span() is outer
        assert outer.parent is None
        assert outer.depth == 0
        with trace_span("inner", registry=registry, step=3) as inner:
            assert current_span() is inner
            assert inner.parent is outer
            assert inner.depth == 1
            assert inner.tags == {"step": 3}
        assert current_span() is outer
    assert current_span() is None


def test_exception_still_records_and_propagates():
    registry = MetricsRegistry()
    with pytest.raises(ValueError, match="boom"):
        with trace_span("failing", registry=registry):
            raise ValueError("boom")
    assert current_span() is None  # stack unwound
    assert registry.counter("failing.calls").value == 1
    assert registry.histogram("failing.wall_seconds").count == 1


def test_disabled_registry_returns_shared_noop_span():
    registry = MetricsRegistry(enabled=False)
    first = trace_span("anything", registry=registry)
    second = trace_span("other", registry=registry)
    assert first is second  # the shared null context manager
    with first as span:
        assert span is None
        assert current_span() is None
    assert registry.snapshot()["counters"] == {}


def test_profiler_sees_spans_even_when_metrics_disabled():
    registry = MetricsRegistry(enabled=False)
    profiler = Recorder()
    registry.add_profiler(profiler)
    with trace_span("profiled", registry=registry):
        pass
    assert profiler.started == ["profiled"]
    [(stage, wall_seconds, error)] = profiler.ended
    assert stage == "profiled" and wall_seconds >= 0.0 and error is None
    # Metric recording stayed off.
    assert registry.snapshot()["counters"] == {}
    registry.remove_profiler(profiler)
    with trace_span("after", registry=registry):
        pass
    assert [stage for stage, __, __ in profiler.ended] == ["profiled"]


def test_profiler_counts_errors():
    registry = MetricsRegistry()
    profiler = Recorder()
    registry.add_profiler(profiler)
    with pytest.raises(RuntimeError):
        with trace_span("sometimes", registry=registry):
            raise RuntimeError
    with trace_span("sometimes", registry=registry):
        pass
    assert [stage for stage, __, __ in profiler.ended] == ["sometimes"] * 2
    errors = [error for __, __, error in profiler.ended]
    assert isinstance(errors[0], RuntimeError) and errors[1] is None


def test_span_stacks_are_per_thread():
    registry = MetricsRegistry()
    seen = {}
    ready = threading.Barrier(2)

    def worker(name):
        with trace_span(name, registry=registry) as span:
            ready.wait()
            seen[name] = current_span() is span

    threads = [
        threading.Thread(target=worker, args=(f"t{i}",)) for i in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert seen == {"t0": True, "t1": True}

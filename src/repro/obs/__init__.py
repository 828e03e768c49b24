"""Dependency-free observability plane: metrics, spans, profilers.

Two modules, one import surface:

* :mod:`repro.obs.registry` — thread-safe :class:`MetricsRegistry`
  (counters / gauges / fixed-bucket histograms with p50/p95/p99
  estimation), process-wide default via :func:`get_registry`, and
  :func:`snapshot_delta` for before/after bench instrumentation;
* :mod:`repro.obs.tracing` — :func:`trace_span` nesting context-manager
  spans recording wall/CPU time per stage, also handed to any profiler
  attached with ``MetricsRegistry.add_profiler``.

The whole plane is stdlib-only and sits below storage/stats/engine in
the import graph; a disabled registry is near-zero-cost. See the README
"Observability" section for the span/metric taxonomy.
"""

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    percentile_from_buckets,
    set_registry,
    snapshot_delta,
)
from repro.obs.tracing import Span, current_span, trace_span

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "current_span",
    "get_registry",
    "percentile_from_buckets",
    "set_registry",
    "snapshot_delta",
    "trace_span",
]

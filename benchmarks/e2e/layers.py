"""Spans around the calls into each layer, recorded from outside.

The traced run installs timing wrappers around a declared table of the
program's public callables and removes them afterwards; nothing in
``src/`` is edited. Each span records name, start, end, its parent span
and a per-request id (a root span opens a new request; children inherit
it), is kept in memory, and is written out only when the benchmark ends.
A layer's self time is its span minus the part its child spans cover.

A callable that no longer exists is listed as missing and its time stays
in its parent's self time: a later refactor degrades attribution, it
does not break the benchmark.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from statistics import median

#: (span name, module, attribute path). A module-level function is
#: patched where its *caller* looks it up, which is why the picker's
#: stages are named in ``repro.core.picker`` and not where defined.
TRACED = (
    ("api.query", "repro.api", "PS3.query"),
    ("api.append", "repro.api", "PS3.append"),
    ("api.checkpoint", "repro.api", "PS3.checkpoint"),
    ("core.picker.select", "repro.core.picker", "PS3Picker.select"),
    (
        "stats.features.featurize",
        "repro.stats.features",
        "FeatureBuilder.features_for_query",
    ),
    (
        "stats.normalization.transform",
        "repro.stats.normalization",
        "Normalizer.transform",
    ),
    ("core.outliers.find", "repro.core.picker", "find_outliers"),
    ("core.importance.funnel", "repro.core.picker", "importance_groups"),
    ("core.cluster_sampler.cluster", "repro.core.picker", "cluster_sample"),
    (
        "engine.execute",
        "repro.engine.batch_executor",
        "BatchExecutor.partition_answers",
    ),
    ("engine.sweep", "repro.engine.serving", "answer_selections"),
    ("engine.combine", "repro.api", "finalize_answer"),
    ("engine.combine", "repro.engine.serving", "finalize_answer"),
    ("storage.wal.append", "repro.storage.wal", "StatisticsStore.log_append"),
    ("storage.checkpoint", "repro.storage.wal", "StatisticsStore.checkpoint"),
    ("storage.recover.load", "repro.storage.wal", "StatisticsStore.load_statistics"),
    ("sketches.append", "repro.sketches.builder", "append_partition_statistics"),
    ("stats.features.refresh", "repro.stats.features", "FeatureBuilder.refresh"),
    ("engine.fused_view.extend", "repro.api", "fused_view"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "children_time")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.children_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_time


class Tracer:
    """Installs the wrappers, collects spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._open = threading.local()
        self._requests = 0
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> Tracer:
        for name, module_name, path in TRACED:
            try:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attribute]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(original, (staticmethod, classmethod)):
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attribute, self._wrap(name, original))
            self._patched.append((owner, attribute, original))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> Tracer:
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _wrap(self, name: str, original):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._open, "stack", None)
            if stack is None:
                stack = tracer._open.stack = []
            parent = stack[-1] if stack else None
            if parent is None:
                with tracer._lock:
                    tracer._requests += 1
                    request = tracer._requests
            else:
                request = parent.request
            span = Span(name, time.perf_counter(), parent, request)
            stack.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.children_time += span.duration
                tracer.spans.append(span)

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    # -- aggregation --------------------------------------------------------

    def total_seconds(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def per_request_ms(self, name: str, self_time: bool = False) -> float:
        """Median, over requests in which ``name`` ran, of its time."""
        per_request: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.name == name:
                per_request[span.request] += (
                    span.self_time if self_time else span.duration
                )
        if not per_request:
            return 0.0
        return median(per_request.values()) * 1e3

    def self_sum_share(self) -> float:
        """Sum of every span's self time over the sum of root spans.

        1.0 when parents and children are accounted consistently; the
        acceptance check is that it stays within 10 % of that.
        """
        roots = sum(s.duration for s in self.spans if s.parent is None)
        if roots <= 0.0:
            return 0.0
        return sum(s.self_time for s in self.spans) / roots

    def dump(self) -> list[dict]:
        """Spans as JSON-serializable rows (parent by row index)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": index.get(id(s.parent)) if s.parent else None,
                "request": s.request,
            }
            for s in self.spans
        ]

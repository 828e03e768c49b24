"""Thread-safe metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the one data structure every plane reports into: serving
(admission wait, pick/sweep/scatter latency, queue depth, shed and
failure counts), engine (sweep timings, plan-cache hit rates), and
storage (WAL append/fsync latency, checkpoint duration). It is
deliberately dependency-free — stdlib plus nothing — so the storage and
stats layers at the bottom of the import graph can use it.

Three instrument kinds, all created idempotently by name:

* :class:`Counter` — monotonic ``inc``-only totals;
* :class:`Gauge` — a point-in-time value (``set``/``add``), plus
  ``set_max`` for high-water marks;
* :class:`Histogram` — fixed upper-bound buckets with conserved
  ``count``/``sum`` and percentile *estimation* (p50/p95/p99 read from
  the cumulative bucket counts with linear interpolation inside the
  bucket — exact to within one bucket's width, by construction).

**Disabled fast path.** Every mutating call starts with one attribute
load and a branch on the owning registry's ``enabled`` flag; a disabled
registry therefore costs a few tens of nanoseconds per call. Reads
(``value``, ``snapshot``) work either way.

**Snapshots.** :meth:`MetricsRegistry.snapshot` returns a plain
JSON-serializable dict (``json.dumps`` safe); :func:`snapshot_delta`
subtracts two snapshots — counters and histogram counts/sums/buckets
difference, gauges take the *after* value, percentiles are re-estimated
from the bucket-count deltas — the before/after shape bench
instrumentation wants.

A process-wide default registry backs the module-level conveniences
(:func:`get_registry` / :func:`set_registry`); components bind to it at
construction unless handed an explicit registry (the serving front end
keeps a private one per instance so concurrent front ends never mix
their counts).
"""

from __future__ import annotations

import threading
from bisect import bisect_left

from repro.errors import ConfigError

#: Default histogram upper bounds: geometric, 1µs .. ~56s in quarter
#: decades. Latency-shaped — wide enough for a WAL fsync and a full
#: checkpoint, fine enough that p99 interpolation stays within ~78% of
#: the true value at the coarse end (one bucket spans 10**0.25 ≈ 1.78x).
DEFAULT_BUCKETS = tuple(10.0 ** (-6 + i / 4) for i in range(32))


class Counter:
    """A monotonic counter. ``inc`` is atomic; ``value`` is a live read."""

    __slots__ = ("name", "_registry", "_lock", "_value")

    def __init__(self, name: str, registry: MetricsRegistry) -> None:
        self.name = name
        self._registry = registry
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def _snapshot(self):
        return self._value


class Gauge:
    """A point-in-time value: ``set``/``add``/``set_max``.

    ``add`` returns the post-update value (under the instrument lock),
    so callers can track a derived high-water mark without a race
    between their read and their write.
    """

    __slots__ = ("name", "_registry", "_lock", "_value")

    def __init__(self, name: str, registry: MetricsRegistry) -> None:
        self.name = name
        self._registry = registry
        self._lock = threading.Lock()
        self._value = 0

    def set(self, value) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value = value

    def add(self, delta):
        if not self._registry.enabled:
            return self._value
        with self._lock:
            self._value += delta
            return self._value

    def set_max(self, value) -> None:
        """Raise the gauge to ``value`` if it is a new high-water mark."""
        if not self._registry.enabled:
            return
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self):
        return self._value

    def _snapshot(self):
        return self._value


class Histogram:
    """Fixed-bucket histogram with conserved totals and percentiles.

    ``bounds`` are the bucket *upper* bounds, ascending; one implicit
    overflow bucket catches everything above the last bound. ``observe``
    keeps ``count``/``sum``/``min``/``max`` exactly (the conservation law
    the concurrency hammer asserts); percentiles are estimated from the
    bucket counts — see :func:`percentile_from_buckets`.
    """

    __slots__ = (
        "name",
        "bounds",
        "_registry",
        "_lock",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(
        self,
        name: str,
        registry: MetricsRegistry,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ConfigError(
                f"histogram {name!r} bounds must be strictly ascending"
            )
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self._registry = registry
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)  # + overflow
        self._count = 0
        self._sum = 0.0
        self._min = None
        self._max = None

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        value = float(value)
        bucket = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[bucket] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def percentile(self, q: float) -> float | None:
        """Estimated ``q``-th percentile (``None`` on an empty histogram)."""
        with self._lock:
            return percentile_from_buckets(
                self.bounds, self._counts, q, self._min, self._max
            )

    def _snapshot(self) -> dict:
        with self._lock:
            counts = list(self._counts)
            snap = {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "buckets": counts,
                "bounds": list(self.bounds),
            }
        for label, q in (("p50", 50.0), ("p95", 95.0), ("p99", 99.0)):
            snap[label] = percentile_from_buckets(
                self.bounds, counts, q, snap["min"], snap["max"]
            )
        return snap


def percentile_from_buckets(
    bounds,
    counts,
    q: float,
    lo: float | None = None,
    hi: float | None = None,
) -> float | None:
    """Estimate the ``q``-th percentile from cumulative bucket counts.

    The rank is located in the cumulative distribution, then linearly
    interpolated between the bucket's lower and upper bound; the first
    bucket's lower bound is the observed ``lo`` (or 0), and the overflow
    bucket is pinned to the observed ``hi`` (or the last bound). Shared
    by :meth:`Histogram.percentile` and :func:`snapshot_delta`, which
    re-estimates percentiles from bucket-count *differences*.
    """
    total = sum(counts)
    if total == 0:
        return None
    if not 0.0 <= q <= 100.0:
        raise ConfigError(f"percentile must be in [0, 100], got {q}")
    rank = q / 100.0 * total
    seen = 0
    for bucket, n in enumerate(counts):
        if n == 0:
            continue
        if seen + n >= rank:
            if bucket >= len(bounds):  # overflow: no upper bound to lerp to
                return hi if hi is not None else bounds[-1]
            upper = bounds[bucket]
            lower = bounds[bucket - 1] if bucket else (lo if lo is not None else 0.0)
            lower = min(lower, upper)
            fraction = (rank - seen) / n
            value = lower + (upper - lower) * fraction
            # Clamp interpolation to the observed range so estimates
            # never exceed a value that was actually seen.
            if hi is not None:
                value = min(value, hi)
            if lo is not None:
                value = max(value, lo)
            return value
        seen += n
    return hi if hi is not None else bounds[-1]  # pragma: no cover - rank<=total


class MetricsRegistry:
    """A named family of counters/gauges/histograms with one on/off switch.

    Instruments are created on first use and returned idempotently
    thereafter; asking for an existing name with a different instrument
    kind raises :class:`~repro.errors.ConfigError` (a name is one time
    series, not a union type). ``enabled`` gates every *write* — the
    instruments stay readable, they just stop moving — and flipping it
    is safe at any time from any thread.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: Registered profilers (``on_span_start`` / ``on_span_end``),
        #: notified on span start/end even when ``enabled`` is False.
        #: A tuple, replaced wholesale on (un)register, so span-close
        #: iteration never needs a lock.
        self.profilers: tuple = ()
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def enable(self) -> MetricsRegistry:
        self.enabled = True
        return self

    def disable(self) -> MetricsRegistry:
        self.enabled = False
        return self

    def add_profiler(self, profiler) -> None:
        """Attach a profiler; it starts receiving span callbacks at once."""
        with self._lock:
            if profiler not in self.profilers:
                self.profilers = self.profilers + (profiler,)

    def remove_profiler(self, profiler) -> None:
        """Detach a profiler (no-op if it was never attached)."""
        with self._lock:
            self.profilers = tuple(
                p for p in self.profilers if p is not profiler
            )

    def _get(self, name: str, kind, factory):
        instrument = self._instruments.get(name)
        if instrument is not None:
            if not isinstance(instrument, kind):
                raise ConfigError(
                    f"metric {name!r} already exists as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise ConfigError(
                    f"metric {name!r} already exists as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name, self))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name, self))

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, self, bounds))

    def snapshot(self) -> dict:
        """A point-in-time, JSON-serializable view of every instrument."""
        with self._lock:
            instruments = dict(self._instruments)
        snap = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(instruments):
            instrument = instruments[name]
            if isinstance(instrument, Counter):
                snap["counters"][name] = instrument._snapshot()
            elif isinstance(instrument, Gauge):
                snap["gauges"][name] = instrument._snapshot()
            else:
                snap["histograms"][name] = instrument._snapshot()
        return snap


def snapshot_delta(before: dict, after: dict) -> dict:
    """What happened between two :meth:`MetricsRegistry.snapshot` calls.

    Counters and histogram ``count``/``sum``/``buckets`` subtract
    (instruments absent from ``before`` count from zero); gauges are
    point-in-time, so the *after* value is reported as-is; histogram
    percentiles are re-estimated from the bucket-count differences, so a
    delta's p50/p95/p99 describe only the interval's observations — the
    before/after shape bench instrumentation wants.
    """
    delta = {"counters": {}, "gauges": dict(after.get("gauges", {}))}
    for name, value in after.get("counters", {}).items():
        delta["counters"][name] = value - before.get("counters", {}).get(name, 0)
    histograms = {}
    for name, hist in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(name)
        if prior is None:
            entry = dict(hist)
        else:
            counts = [
                a - b for a, b in zip(hist["buckets"], prior["buckets"])
            ]
            entry = {
                "count": hist["count"] - prior["count"],
                "sum": hist["sum"] - prior["sum"],
                "min": hist["min"],
                "max": hist["max"],
                "buckets": counts,
                "bounds": hist["bounds"],
            }
            for label, q in (("p50", 50.0), ("p95", 95.0), ("p99", 99.0)):
                entry[label] = percentile_from_buckets(
                    tuple(hist["bounds"]), counts, q, hist["min"], hist["max"]
                )
        histograms[name] = entry
    delta["histograms"] = histograms
    return delta


#: Process-wide default registry; engine/storage instruments bind to it
#: at construction. Swap with :func:`set_registry` (tests), or flip
#: ``get_registry().enabled`` to turn the whole plane off.
_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one (tests)."""
    global _DEFAULT_REGISTRY
    previous = _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = registry
    return previous

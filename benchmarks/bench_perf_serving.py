"""Serving throughput: micro-batched front end vs one-at-a-time queries.

Times a closed-loop, zipf-skewed serving workload — C client threads,
each blocking on its answer before issuing the next request, drawing
from a small pool of hot-and-cold query templates — through two planes:

- **sequential**: every request answered by ``PS3.query`` (one lock
  hold, one pick, one subset pass per request);
- **serving**: requests submitted to the :class:`ServingFrontEnd`, which
  admits them into micro-batches: one lock hold per batch, one pick per
  distinct ``(query, budget)`` (pick dedup), one subset pass per
  distinct ``(query, selected partitions)`` — the same
  ``answer_selections`` call ``PS3.query`` makes, over more pairs.

Both planes run the same request streams and the same trained picker, so
the measured difference is purely the batching: the zipf skew is what a
dashboard fan-out or a popular-filter serving mix looks like, and it is
exactly the shape pick dedup exploits (at s=2.0 most batch-mates repeat
a hot template, so this is the most favourable case for sharing work
inside a batch — PR 15 ran it on both commits before deleting the
multi-query subset sweep; numbers in CHANGES.md). Per-request latencies are
recorded in serving mode (p50/p95/p99) alongside both planes'
throughput. Emits a text table plus ``BENCH_perf_serving.json`` under
``benchmarks/results/``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_perf_serving.py

or via pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_serving.py -q
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np

from repro.api import PS3
from repro.bench.reporting import emit, format_table, results_dir
from repro.datasets.registry import get_dataset
from repro.engine.serving import ServingConfig
from repro.errors import ServingOverloadError
from repro.workload import QueryGenerator

PARTITION_COUNTS = (64, 256)
ROWS_PER_PARTITION = 200
REPEATS = 3

#: Closed-loop client counts; the acceptance bar applies from 8 up.
CONCURRENCY_LEVELS = (2, 8, 16)
REQUESTS_PER_CLIENT = 8
#: Query-pool skew: rank r drawn with probability ∝ 1/r^ZIPF_S.
ZIPF_S = 2.0
POOL_SIZE = 8
BUDGET_FRACTION = 0.3

SERVING_CONFIG = ServingConfig(max_batch_size=32, max_hold_seconds=0.002)

#: Overload scenario: an open-loop flood (submit without waiting) from
#: this many clients at the largest partition count, offered load far
#: above the worker's drain rate, under three admission policies.
OVERLOAD_CLIENTS = 12
OVERLOAD_QUEUE_DEPTH = 16
OVERLOAD_POLICIES = ("off", "reject", "degrade")

#: Observability no-op microbench: per-call cost of a *disabled*
#: registry, asserted in-run against these bounds — "metrics are free
#: when off" is the obs plane's contract, so the bench gates it like a
#: parity claim. Bounds are generous (shared CI machines are noisy);
#: the real cost is tens of nanoseconds per call.
OBS_MICROBENCH_ITERATIONS = 100_000
MAX_DISABLED_COUNTER_NS = 2_000.0
MAX_DISABLED_SPAN_NS = 5_000.0


def _overload_config(policy: str) -> ServingConfig:
    if policy == "off":
        return ServingConfig(
            max_batch_size=4, max_hold_seconds=0.0, max_queue_depth=None
        )
    return ServingConfig(
        max_batch_size=4,
        max_hold_seconds=0.0,
        max_queue_depth=OVERLOAD_QUEUE_DEPTH,
        shed_policy=policy,
        min_degraded_fraction=0.25,
    )


def _build_system(num_partitions: int):
    spec = get_dataset("kdd")
    ptable = spec.build(num_partitions * ROWS_PER_PARTITION, num_partitions, seed=7)
    workload = spec.workload()
    generator = QueryGenerator(workload, ptable.table, seed=19)
    train, pool = generator.train_test_split(12, POOL_SIZE)
    return PS3(ptable, workload).fit(train), pool


def _request_streams(pool, concurrency: int, seed: int) -> list[list]:
    """One zipf-skewed query stream per client (deterministic)."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
    probabilities = ranks**-ZIPF_S
    probabilities /= probabilities.sum()
    return [
        [
            pool[int(i)]
            for i in rng.choice(
                len(pool), size=REQUESTS_PER_CLIENT, p=probabilities
            )
        ]
        for __ in range(concurrency)
    ]


def _time_sequential(system, streams) -> float:
    """Seconds to answer every request one at a time, in client order."""
    started = time.perf_counter()
    for stream in streams:
        for query in stream:
            system.query(query, budget_fraction=BUDGET_FRACTION)
    return time.perf_counter() - started


def _time_serving(system, streams):
    """Closed-loop wall seconds + per-request latencies + stats."""
    latencies: list[float] = []
    errors: list[BaseException] = []
    lock = threading.Lock()
    barrier = threading.Barrier(len(streams) + 1)

    front = system.serve(SERVING_CONFIG)

    def client(stream) -> None:
        local: list[float] = []
        barrier.wait()
        try:
            for query in stream:
                started = time.perf_counter()
                front.query(query, budget_fraction=BUDGET_FRACTION)
                local.append(time.perf_counter() - started)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
        with lock:
            latencies.extend(local)

    threads = [
        threading.Thread(target=client, args=(stream,)) for stream in streams
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    front.stop()
    if errors:
        raise errors[0]
    return wall, latencies, front.stats


def _time_overload(system, streams, policy: str) -> dict:
    """Open-loop flood under one admission policy; returns a report row.

    Every client submits its whole stream without waiting for answers,
    so the queue fills far faster than the worker drains it — exactly
    the regime admission control exists for. Latency is measured per
    request from submit to future completion via done-callbacks.
    """
    offered = sum(len(stream) for stream in streams)
    latencies: list[float] = []
    answers: list = []
    failures: list[BaseException] = []
    sheds = [0]
    futures: list = []
    lock = threading.Lock()
    barrier = threading.Barrier(len(streams))
    front = system.serve(_overload_config(policy))

    def client(stream) -> None:
        barrier.wait()
        for query in stream:
            started = time.perf_counter()
            try:
                future = front.submit(query, budget_fraction=BUDGET_FRACTION)
            except ServingOverloadError:
                with lock:
                    sheds[0] += 1
                continue

            def _done(done_future, started=started) -> None:
                elapsed = time.perf_counter() - started
                with lock:
                    if done_future.exception() is None:
                        latencies.append(elapsed)
                        answers.append(done_future.result())
                    else:
                        failures.append(done_future.exception())

            future.add_done_callback(_done)
            with lock:
                futures.append(future)

    threads = [
        threading.Thread(target=client, args=(stream,)) for stream in streams
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for future in futures:
        future.exception(timeout=120)
    front.stop()
    if failures:
        raise failures[0]
    degraded = sum(1 for answer in answers if answer.degraded)
    latencies_ms = (
        np.sort(np.asarray(latencies)) * 1e3
        if latencies
        else np.zeros(1)
    )
    return {
        "policy": policy,
        "partitions": system.ptable.num_partitions,
        "offered": offered,
        "answered": len(answers),
        "shed": sheds[0],
        "shed_rate": sheds[0] / offered,
        "degraded": degraded,
        "degraded_fraction": degraded / len(answers) if answers else 0.0,
        "p50_ms": float(np.percentile(latencies_ms, 50)),
        "p99_ms": float(np.percentile(latencies_ms, 99)),
        "queue_peak": front.stats.queue_peak,
    }


def _obs_overhead() -> dict:
    """Per-call cost of the obs plane, with the disabled path asserted.

    The disabled fast path is one attribute load and a branch for
    counters, and a shared null context manager for spans — measured
    here over ``OBS_MICROBENCH_ITERATIONS`` calls and required to stay
    under the (deliberately loose) nanosecond bounds above. Enabled
    costs are reported alongside for scale but not gated.
    """
    from repro.obs import MetricsRegistry, trace_span

    iterations = OBS_MICROBENCH_ITERATIONS

    def per_call_ns(target) -> float:
        started = time.perf_counter()
        for __ in range(iterations):
            target()
        return (time.perf_counter() - started) / iterations * 1e9

    disabled = MetricsRegistry(enabled=False)
    off_counter = disabled.counter("bench.noop")
    off_hist = disabled.histogram("bench.noop_lat")

    def off_span() -> None:
        with trace_span("bench.noop_span", registry=disabled):
            pass

    enabled = MetricsRegistry()
    on_counter = enabled.counter("bench.noop")
    on_hist = enabled.histogram("bench.noop_lat")

    def on_span() -> None:
        with trace_span("bench.noop_span", registry=enabled):
            pass

    report = {
        "iterations": iterations,
        "disabled_counter_ns": per_call_ns(off_counter.inc),
        "disabled_histogram_ns": per_call_ns(lambda: off_hist.observe(1e-3)),
        "disabled_span_ns": per_call_ns(off_span),
        "enabled_counter_ns": per_call_ns(on_counter.inc),
        "enabled_histogram_ns": per_call_ns(lambda: on_hist.observe(1e-3)),
        "enabled_span_ns": per_call_ns(on_span),
        "max_disabled_counter_ns": MAX_DISABLED_COUNTER_NS,
        "max_disabled_span_ns": MAX_DISABLED_SPAN_NS,
    }
    # Sanity: the disabled registry really recorded nothing.
    assert off_counter.value == 0 and off_hist.count == 0
    assert report["disabled_counter_ns"] <= MAX_DISABLED_COUNTER_NS, report
    assert report["disabled_histogram_ns"] <= MAX_DISABLED_COUNTER_NS, report
    assert report["disabled_span_ns"] <= MAX_DISABLED_SPAN_NS, report
    return report


def run() -> dict:
    rows = []
    overload_inputs = None
    for num_partitions in PARTITION_COUNTS:
        system, pool = _build_system(num_partitions)
        if num_partitions == PARTITION_COUNTS[-1]:
            overload_inputs = (system, pool)
        for concurrency in CONCURRENCY_LEVELS:
            streams = _request_streams(pool, concurrency, seed=concurrency)
            num_requests = concurrency * REQUESTS_PER_CLIENT
            # Warm both planes (fused view, plan caches, allocator).
            _time_serving(system, streams[:1])
            _time_sequential(system, streams[:1])
            best_seq = min(
                _time_sequential(system, streams) for __ in range(REPEATS)
            )
            best_serve, best_latencies, stats = min(
                (_time_serving(system, streams) for __ in range(REPEATS)),
                key=lambda result: result[0],
            )
            latencies_ms = np.sort(np.asarray(best_latencies)) * 1e3
            rows.append(
                {
                    "partitions": num_partitions,
                    "concurrency": concurrency,
                    "requests": num_requests,
                    "sequential_s": best_seq,
                    "serving_s": best_serve,
                    "sequential_qps": num_requests / best_seq,
                    "serving_qps": num_requests / best_serve,
                    "p50_ms": float(np.percentile(latencies_ms, 50)),
                    "p95_ms": float(np.percentile(latencies_ms, 95)),
                    "p99_ms": float(np.percentile(latencies_ms, 99)),
                    "mean_batch": stats.mean_batch_size,
                    "pick_dedup_hits": stats.pick_dedup_hits,
                    "speedup": best_seq / best_serve,
                }
            )
    overload_system, overload_pool = overload_inputs
    overload_streams = _request_streams(
        overload_pool, OVERLOAD_CLIENTS, seed=101
    )
    overload_rows = [
        _time_overload(overload_system, overload_streams, policy)
        for policy in OVERLOAD_POLICIES
    ]
    obs = _obs_overhead()
    report = {
        "benchmark": "perf_serving",
        "rows_per_partition": ROWS_PER_PARTITION,
        "repeats": REPEATS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "zipf_s": ZIPF_S,
        "pool_size": POOL_SIZE,
        "budget_fraction": BUDGET_FRACTION,
        "timed_step": "closed-loop clients: serving front end vs PS3.query",
        "results": rows,
        "overload_queue_depth": OVERLOAD_QUEUE_DEPTH,
        "overload": overload_rows,
        "obs": obs,
    }
    (results_dir() / "BENCH_perf_serving.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    closed_loop_table = format_table(
        [
            "partitions",
            "clients",
            "seq qps",
            "serve qps",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "batch",
            "speedup",
        ],
        [
            [
                r["partitions"],
                r["concurrency"],
                r["sequential_qps"],
                r["serving_qps"],
                r["p50_ms"],
                r["p95_ms"],
                r["p99_ms"],
                f"{r['mean_batch']:.1f}",
                f"{r['speedup']:.1f}x",
            ]
            for r in rows
        ],
        title=f"Closed-loop serving, zipf({ZIPF_S}) over {POOL_SIZE} "
        f"templates (best of {REPEATS})",
    )
    overload_table = format_table(
        [
            "policy",
            "offered",
            "answered",
            "shed rate",
            "degraded",
            "p50 (ms)",
            "p99 (ms)",
            "queue peak",
        ],
        [
            [
                r["policy"],
                r["offered"],
                r["answered"],
                f"{r['shed_rate']:.2f}",
                f"{r['degraded_fraction']:.2f}",
                r["p50_ms"],
                r["p99_ms"],
                r["queue_peak"],
            ]
            for r in overload_rows
        ],
        title=f"Open-loop overload, {OVERLOAD_CLIENTS} clients, "
        f"queue depth {OVERLOAD_QUEUE_DEPTH} (admission off/reject/degrade)",
    )
    obs_table = format_table(
        ["path", "counter (ns)", "histogram (ns)", "span (ns)"],
        [
            [
                "disabled",
                f"{obs['disabled_counter_ns']:.0f}",
                f"{obs['disabled_histogram_ns']:.0f}",
                f"{obs['disabled_span_ns']:.0f}",
            ],
            [
                "enabled",
                f"{obs['enabled_counter_ns']:.0f}",
                f"{obs['enabled_histogram_ns']:.0f}",
                f"{obs['enabled_span_ns']:.0f}",
            ],
        ],
        title=f"Obs per-call overhead over {obs['iterations']} iterations "
        f"(disabled bounds: counter {MAX_DISABLED_COUNTER_NS:.0f}ns, "
        f"span {MAX_DISABLED_SPAN_NS:.0f}ns)",
    )
    emit(
        "perf_serving",
        closed_loop_table + "\n\n" + overload_table + "\n\n" + obs_table,
    )
    return report


def test_perf_serving():
    report = run()
    for row in report["results"]:
        assert row["speedup"] > 0.0, row
        assert row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"], row
        # The acceptance bar: batching wins >= 2x once there are enough
        # concurrent clients to fill real batches.
        if row["concurrency"] >= 8:
            assert row["speedup"] >= 2.0, row
    overload = {row["policy"]: row for row in report["overload"]}
    for row in overload.values():
        assert row["answered"] + row["shed"] == row["offered"], row
        assert row["p50_ms"] <= row["p99_ms"], row
    # No admission control: nothing shed, queue grows with offered load.
    assert overload["off"]["shed"] == 0
    # Reject: the bound bites under a flood and never trades accuracy.
    assert overload["reject"]["shed"] > 0
    assert overload["reject"]["degraded"] == 0
    assert overload["reject"]["queue_peak"] <= OVERLOAD_QUEUE_DEPTH
    # Degrade: accuracy is shed instead — some answers ran on shrunken
    # budgets while the queue stayed bounded.
    assert overload["degrade"]["degraded"] > 0
    assert overload["degrade"]["queue_peak"] <= OVERLOAD_QUEUE_DEPTH
    # Admission control is what bounds tail latency under overload.
    for policy in ("reject", "degrade"):
        assert overload[policy]["p99_ms"] <= overload["off"]["p99_ms"], (
            overload
        )
    # The disabled obs plane stays near-zero-cost (also asserted
    # in-run by _obs_overhead; repeated here so the gate reads off the
    # report alone).
    obs = report["obs"]
    assert obs["disabled_counter_ns"] <= obs["max_disabled_counter_ns"], obs
    assert obs["disabled_span_ns"] <= obs["max_disabled_span_ns"], obs


if __name__ == "__main__":
    run()

"""One workload run: set-up, timed phases, checks, metric assembly.

End-to-end metrics come from a phase run with tracing off. Per-layer
metrics come from a second, traced phase in the same process (wrappers
from :mod:`layers`, counts from the public ``PS3.metrics()`` snapshot
taken before and after it); the gap between the two phases' median
operation time is reported as the tracing overhead.

Every time is reported at the reference machine speed: it is multiplied
by the ``factor`` of the :class:`speed.Probe` that ran beside it (see
:mod:`speed` for why). Counts, shares and byte sizes are as measured.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import subprocess
import time
from pathlib import Path
from statistics import median

import numpy as np

import inputs as inp
import reference
from layers import Tracer
from speed import Probe
from workloads import WORKLOADS, Phase
from repro.obs import snapshot_delta

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space for ``ingest_mixed``'s store; inside the checkout (the
#: benchmark may write nowhere else), on the local file system.
WORK = HERE / ".work"

#: Answers whose relative error is averaged: the first operations of the
#: untraced phase, which for the pooled workloads is each pool query
#: once, in the seeded order — so the value repeats exactly for a seed.
ERROR_SAMPLE = 64
FLOOR_SAMPLE = 128
EXACT_QUERIES = 8


def environment(seed: int, scale: str) -> dict:
    """Stamp written into every result."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "commit": commit or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "scale": scale,
    }


def metric(value, unit: str, n: int | None = None) -> dict:
    out = {"value": float(value), "unit": unit}
    if n is not None:
        out["n"] = int(n)
    return out


def median_or_zero(values) -> float:
    return float(median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- checking -----------------------------------------------------------------


def sample_indices(count: int, limit: int) -> list[int]:
    """The first ``ERROR_SAMPLE`` answers plus an even stride of the rest."""
    head = list(range(min(count, ERROR_SAMPLE, limit)))
    rest = limit - len(head)
    if rest <= 0 or count <= len(head):
        return head
    tail = np.linspace(len(head), count - 1, min(rest, count - len(head)))
    return head + sorted(set(int(i) for i in tail))


def verify(table, answers, limit, exact_cache, phase: Phase) -> list:
    """Check a sample of ``answers``; failures go to ``phase``.

    Returns the checked answers. A failed check turns an operation that
    completed into a failed one, so ``attempted`` does not move.
    """
    checked = []
    for i in sample_indices(len(answers), limit):
        problems = reference.check_answer(table, answers[i], exact_cache)
        if problems:
            phase.fail(f"answer {i}: {problems[0]}")
        checked.append(answers[i])
    return checked


def check_exact(ps3, table, queries) -> Phase:
    """Time ``execute_exact`` and hold it to the oracle.

    It is what a user pays without PS3, and the ground truth other
    tools lean on.
    """
    phase = Phase()
    for query in queries:
        phase.attempted += 1
        started = time.perf_counter()
        got = ps3.execute_exact(query)
        phase.latencies_ms.append((time.perf_counter() - started) * 1e3)
        phase.probe.tick()
        if reference.answers_match(reference.exact_answer(table, query), got):
            phase.operations += 1
        else:
            phase.fail("execute_exact differs from the reference full scan")
    return phase


def corrupt(answers) -> None:
    """Self-check hook: spoil one answer so the oracle must object."""
    for answer in answers:
        for values in answer.groups.values():
            values[0] = values[0] * 1.5 + 1.0
            return


# -- metric assembly ----------------------------------------------------------


def end_to_end(workload, untraced: Phase, finish, extra: dict) -> dict:
    factor = untraced.probe.factor
    latencies = untraced.latencies_ms
    reads = [len(a.selection.selection) / a.num_partitions for a in untraced.answers]
    out = {
        "setup_s": metric(
            median_or_zero([s["setup_s"] for s in workload.setups]),
            "s",
            len(workload.setups),
        ),
        "op_p50_ms": metric(percentile(latencies, 50) * factor, "ms", len(latencies)),
        "api.op_p90_ms": metric(
            percentile(latencies, 90) * factor, "ms", len(latencies)
        ),
        "partitions_read_share": metric(
            float(np.mean(reads)) if reads else 0.0, "share", len(reads)
        ),
    }
    if untraced.throughput is not None:  # served_open: the saturation probe
        out["ops_per_s"] = metric(untraced.throughput, "1/s")
    else:
        busy_s = (untraced.wall_s - untraced.probe.spent_s) * factor
        out["ops_per_s"] = metric(
            untraced.operations / busy_s, "1/s", untraced.operations
        )
    out.update(extra)
    if workload.name == "ingest_mixed":
        appends = untraced.extra["append_ms"] + finish.extra["append_ms"]
        checkpoints = untraced.extra["checkpoint_ms"]
        recoveries = finish.extra["recover_s"]
        out["api.append_p50_ms"] = metric(
            median_or_zero(appends) * factor, "ms", len(appends)
        )
        out["api.checkpoint_p50_ms"] = metric(
            median_or_zero(checkpoints) * factor, "ms", len(checkpoints)
        )
        out["api.recover_s"] = metric(
            median_or_zero(recoveries) * finish.probe.factor, "s", len(recoveries)
        )
    return out


def step_metrics(phase: Phase, scale: inp.Scale) -> tuple[dict, list]:
    """Per-step numbers, the SLO rate, and printable step rows."""
    out, rows = {}, []
    steps = phase.extra["steps"]
    slo_rate, all_lower_pass = 0.0, True
    for number, (step, probe) in enumerate(
        zip(steps, phase.extra["step_probes"]), start=1
    ):
        sent = len(step.requests)
        done = [r for r in step.requests if r.answer is not None]
        failed = sum(1 for r in step.requests if r.error is not None)
        latencies = [r.latency * 1e3 * probe.factor for r in done]
        within = sum(1 for ms in latencies if ms <= scale.latency_limit_ms)
        lateness_p90 = percentile(step.lateness, 90) * 1e3
        valid = lateness_p90 <= inp.MAX_LATENESS_SHARE * 1e3 / step.rate_qps
        passed = valid and within >= inp.SLO_SHARE * sent
        if passed and all_lower_pass:
            slo_rate = step.rate_qps
        all_lower_pass = all_lower_pass and passed
        row = {
            "rate_qps": step.rate_qps,
            "sent": sent,
            "completed": len(done),
            "late_cancelled": step.late_cancelled,
            "failed": failed,
            "p50_ms": percentile(latencies, 50),
            "p90_ms": percentile(latencies, 90),
            "within_limit_share": within / sent,
            "lateness_p90_ms": lateness_p90,
            "valid": valid,
            "passed": passed,
        }
        rows.append(row)
        prefix = f"served.step{number}"
        out[f"{prefix}.rate_qps"] = metric(step.rate_qps, "1/s")
        out[f"{prefix}.p50_ms"] = metric(row["p50_ms"], "ms", len(done))
        out[f"{prefix}.p90_ms"] = metric(row["p90_ms"], "ms", len(done))
        out[f"{prefix}.within_limit_share"] = metric(within / sent, "share", sent)
        out[f"{prefix}.late_cancelled"] = metric(step.late_cancelled, "count")
    if len(steps) > 1:
        out["api.slo_rate_qps"] = metric(slo_rate, "1/s")
    return out, rows


def floor_times(table, answers) -> tuple[list, float]:
    """The reference's time for each answer's rows, and its speed factor."""
    probe, floor_ms = Probe(), []
    for answer in answers[:FLOOR_SAMPLE]:
        choices = answer.selection.selection
        started = time.perf_counter()
        reference.weighted_answer(
            table,
            answer.query,
            [c.partition for c in choices],
            [c.weight for c in choices],
        )
        floor_ms.append((time.perf_counter() - started) * 1e3)
        probe.tick()
    return floor_ms, probe.factor


def per_layer(workload, tracer, delta, traced: Phase, untraced: Phase, table) -> dict:
    """Layer metrics of the traced phase; the README says what each moves."""
    out = {}
    factor = traced.probe.factor

    def counter(name: str) -> float:
        return float(delta["counters"].get(name, 0))

    def histogram_mean_ms(name: str) -> float:
        hist = delta["histograms"].get(name)
        if not hist or not hist["count"]:
            return 0.0
        return hist["sum"] / hist["count"] * 1e3 * factor

    def span_ms(name: str, self_time: bool = False) -> dict:
        return metric(
            tracer.per_request_ms(name, self_time) * factor, "ms", tracer.count(name)
        )

    select_s = tracer.total_seconds("core.picker.select")
    operations_s = tracer.total_seconds("api.query") or sum(
        s.duration for s in tracer.spans if s.parent is None
    )
    out["core.picker.select_ms"] = span_ms("core.picker.select")
    out["core.picker.share"] = metric(share(select_s, operations_s), "share")
    out["core.picker.self_ms"] = span_ms("core.picker.select", self_time=True)
    out["core.picker.clustering_share"] = metric(
        share(tracer.total_seconds("core.cluster_sampler.cluster"), select_s), "share"
    )
    for name in (
        "stats.features.featurize",
        "stats.normalization.transform",
        "core.outliers.find",
        "core.importance.funnel",
        "core.cluster_sampler.cluster",
        "engine.combine",
        "sketches.append",
        "stats.features.refresh",
        "engine.fused_view.extend",
        "storage.recover.load",
    ):
        out[f"{name}_ms"] = span_ms(name)
    out["api.query.self_ms"] = span_ms("api.query", self_time=True)
    engine = "engine.execute" if tracer.count("engine.execute") else "engine.sweep"
    engine_s = tracer.total_seconds(engine) * factor
    out["engine.execute_ms"] = span_ms(engine)

    answers = traced.answers + traced.extra.get("probe_answers", [])
    count = max(len(answers), 1)
    sizes = np.diff(table.boundaries)
    weights = [sum(c.weight for c in a.selection.selection) for a in answers]
    rows = sum(
        int(sizes[[c.partition for c in a.selection.selection]].sum()) for a in answers
    )
    out["engine.rows_scanned_per_s"] = metric(share(rows, engine_s), "rows/s")
    out["core.picker.passing_mean"] = metric(
        sum(weights) / count, "count", len(answers)
    )
    out["core.picker.selected_mean"] = metric(
        sum(len(a.selection.selection) for a in answers) / count, "count"
    )
    out["core.picker.outliers_mean"] = metric(
        sum(len(getattr(a.selection, "outliers", ())) for a in answers) / count, "count"
    )
    out["core.picker.exact_share"] = metric(
        sum(1 for a, w in zip(answers, weights) if round(w) <= a.effective_budget)
        / count,
        "share",
    )
    for cache, layer in (("plan_cache", "stats"), ("mask_cache", "engine")):
        hits = counter(f"{cache}.hits")
        out[f"{layer}.{cache}.hit_share"] = metric(
            share(hits, hits + counter(f"{cache}.misses")), "share"
        )

    floor_ms, floor_factor = floor_times(table, answers)
    out["engine.floor_ms"] = metric(
        median_or_zero(floor_ms) * floor_factor, "ms", len(floor_ms)
    )
    out["engine.floor_ratio"] = metric(
        share(
            engine_s * 1e3 / count,
            float(np.mean(floor_ms)) * floor_factor if floor_ms else 0.0,
        ),
        "ratio",
    )

    untraced_p50 = percentile(untraced.latencies_ms, 50) * untraced.probe.factor
    traced_p50 = percentile(traced.latencies_ms, 50) * factor
    out["obs.trace_overhead_share"] = metric(
        share(traced_p50 - untraced_p50, untraced_p50), "share"
    )
    out["obs.trace_self_sum_share"] = metric(tracer.self_sum_share(), "share")
    out["obs.trace_missing"] = metric(len(tracer.missing), "count")

    if workload.name == "served_open":
        queries = counter("serving.queries")
        out["engine.serving.saturation_qps"] = metric(untraced.throughput, "1/s")
        out["engine.serving.batch_size_mean"] = metric(
            share(queries, counter("serving.batches")), "count"
        )
        out["engine.serving.pick_dedup_share"] = metric(
            share(counter("serving.pick_dedup_hits"), queries), "share"
        )
        wait = delta["histograms"].get("serving.admission_wait_seconds", {})
        out["engine.serving.admission_wait_p50_ms"] = metric(
            (wait.get("p50") or 0.0) * 1e3 * factor, "ms"
        )
        for stage in ("pick", "sweep", "scatter"):
            out[f"engine.serving.{stage}_ms"] = metric(
                histogram_mean_ms(f"serving.{stage}.wall_seconds"), "ms"
            )
        out["engine.serving.queue_peak"] = metric(
            delta["gauges"].get("serving.queue_peak", 0), "count"
        )
        lateness = [v for step in traced.extra["steps"] for v in step.lateness]
        out["loadgen.lateness_p90_ms"] = metric(
            percentile(lateness, 90) * 1e3, "ms", len(lateness)
        )
    if workload.name == "ingest_mixed":
        wal_bytes = counter("storage.wal.bytes")
        bundles = traced.extra["checkpoint_bytes"]
        post_append = traced.extra["post_append_ms"]
        out["storage.wal.append_ms"] = metric(
            histogram_mean_ms("storage.wal.append_seconds"), "ms"
        )
        out["storage.wal.fsync_ms"] = metric(
            histogram_mean_ms("storage.wal.fsync_seconds"), "ms"
        )
        out["storage.wal.bytes_per_row"] = metric(
            share(wal_bytes, traced.extra["appended_rows"]), "bytes"
        )
        out["storage.checkpoint.bytes"] = metric(
            median_or_zero(bundles), "bytes", len(bundles)
        )
        out["storage.checkpoint.write_amp"] = metric(
            share(sum(bundles), wal_bytes), "ratio"
        )
        out["storage.recover.replayed_batches"] = metric(
            counter("storage.wal.replayed_batches") / inp.RECOVERIES, "count"
        )
        out["api.query.post_append_ms"] = metric(
            median_or_zero(post_append) * factor, "ms", len(post_append)
        )
    return out


# -- the run ------------------------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    scale_name: str,
    seconds: float,
    trace: str,
    corrupt_answer: bool = False,
) -> dict:
    """Run one workload; ``trace`` is ``"0"``, ``"1"`` or ``"both"``.

    ``"0"`` spends ``seconds`` untraced (end-to-end metrics), ``"1"``
    splits them between an untraced and a traced phase (per-layer
    metrics), ``"both"`` adds a half-length traced phase to a full
    untraced one.
    """
    scale = inp.SCALES[scale_name]
    untraced_s = seconds / 2 if trace == "1" else seconds
    traced_s = 0.0 if trace == "0" else seconds / 2
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = None
    try:
        started = time.perf_counter()
        inputs = inp.build_inputs(name, scale, seed, untraced_s + traced_s)
        datasets_build_s = time.perf_counter() - started
        workload = WORKLOADS[name](inputs, scale, seed, str(workdir))
        for repeat in range(scale.setup_repeats):
            if repeat:
                workload.teardown()
            workload.setup()
        ps3 = workload.ps3

        untraced = workload.phase(untraced_s, 0, ladder=trace != "0")
        stats_kb = ps3.storage_overhead_bytes() / 1024
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        tracer, traced, delta = None, None, None
        if traced_s:
            before = ps3.metrics()
            with Tracer() as tracer:
                traced = workload.phase(traced_s, 1, ladder=False)
                finish = workload.finish()
            delta = snapshot_delta(before, ps3.metrics())
        else:
            finish = workload.finish()

        # Timing is over; everything below reads answers already taken.
        table = reference.ReferenceTable(
            ps3.ptable.table.columns, ps3.ptable.boundaries
        )
        if corrupt_answer:
            corrupt(untraced.answers)
        exact_cache: dict = {}
        limit = scale.check_limit
        checked = verify(table, untraced.answers, limit, exact_cache, untraced)
        others = [untraced.extra.get("probe_answers", [])]
        for number, step in enumerate(untraced.extra.get("steps", [])):
            if number != untraced.extra["base_step"]:  # that one is .answers
                others.append([r.answer for r in step.requests if r.answer is not None])
        for answers in others:
            verify(table, answers, limit // 4, exact_cache, untraced)
        phases = [untraced]
        if traced is not None:
            verify(table, traced.answers, limit, exact_cache, traced)
            phases.append(traced)
        if finish is not None:
            phases.append(finish)

        errors = []
        for answer in checked[:ERROR_SAMPLE]:
            key = (answer.query, answer.num_partitions)
            if key not in exact_cache:
                exact_cache[key] = reference.exact_answer(
                    table, answer.query, answer.num_partitions
                )
            errors.append(reference.relative_error(exact_cache[key], answer.groups))

        exact_phase = check_exact(ps3, table, inputs.pool[:EXACT_QUERIES])
        phases.append(exact_phase)

        attempted = sum(p.attempted for p in phases)
        failed = sum(p.failed for p in phases)
        extra = {
            "stats_kb_per_partition": metric(stats_kb, "KiB"),
            "peak_rss_mb": metric(peak_rss_mb, "MiB"),
            "api.rel_error_mean": metric(
                float(np.mean(errors)) if errors else 0.0, "share", len(errors)
            ),
            "api.failed_share": metric(failed / max(attempted, 1), "share", attempted),
        }
        last = workload.setups[-1]
        layer = {
            "machine.kernel_ms": metric(
                untraced.probe.kernel_ms, "ms", len(untraced.probe.samples_ms)
            ),
            "machine.setup_kernel_ms": metric(last["kernel_ms"], "ms"),
            "datasets.build_s": metric(datasets_build_s, "s"),
            "sketches.build_s": metric(last["sketches.build_s"], "s"),
            "sketches.build_rows_per_s": metric(
                inputs.ptable.num_rows / last["sketches.build_s"], "rows/s"
            ),
            "core.training.fit_s": metric(last["core.training.fit_s"], "s"),
            "engine.exact_scan_ms": metric(
                median_or_zero(exact_phase.latencies_ms) * exact_phase.probe.factor,
                "ms",
                EXACT_QUERIES,
            ),
        }
        result = {
            "workload": name,
            "environment": environment(seed, scale_name),
            "shape": vars(inputs.shape),
            "seconds": {"untraced": untraced_s, "traced": traced_s},
            "attempted": attempted,
            "failed": failed,
            "checked": len(checked),
            "errors": [e for p in phases for e in p.errors][:8],
            "end_to_end": end_to_end(workload, untraced, finish, extra),
            "per_layer": layer,
        }
        if "steps" in untraced.extra:
            steps, result["steps"] = step_metrics(untraced, scale)
            layer.update(steps)
        if tracer is not None:
            layer.update(per_layer(workload, tracer, delta, traced, untraced, table))
            result["trace"] = {
                "missing": tracer.missing,
                "spans": len(tracer.spans),
                "rows": tracer.dump(),
            }
        return result
    finally:
        if workload is not None and workload.ps3 is not None:
            workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

"""The four workloads: set-up, timed phases, and what each one measures.

Every workload drives the system only through calls that survive the
refactors the roadmap plans — ``PS3(...)``, ``fit``, ``query``,
``serve`` → ``front.submit``, ``append``, ``attach_store``,
``checkpoint``, ``execute_exact``, ``storage_overhead_bytes``,
``metrics`` and ``StatisticsStore(dir).load_statistics`` — and times
them from outside.

Why these four (each stresses a layer the others leave idle):

``scan_heavy``
    Few large partitions, half of them read per query, a small pool
    cycled so every plan is cached: execution dominates. An engine
    change must show here and barely move ``pick_heavy``.
``pick_heavy``
    Many small partitions, a 3 % budget, every query distinct and issued
    once so every predicate compiles cold: the picker dominates (the
    paper's Table 5 shape). Featurize / funnel / clustering work must
    show here and barely move ``scan_heavy``.
``served_open``
    Independent users, so an open loop through ``front.submit``: the
    only workload where admission, micro-batching, the pick under the
    state lock and the batch sweep do the work.
``ingest_mixed``
    Appends and checkpoints beside queries on the same sketch index,
    fused view and plan caches: a read-path cache that makes ``append``
    dearer, or a checkpoint that stalls queries, shows here and nowhere
    else. The only workload that exercises ``storage``.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import inputs as inp
import loadgen
from speed import Probe
from repro.api import PS3
from repro.stats.features import FeatureBuilder
from repro.storage import StatisticsStore


@dataclass
class Phase:
    """What one timed phase produced."""

    latencies_ms: list = field(default_factory=list)  # query operations
    answers: list = field(default_factory=list)  # aligned with latencies
    attempted: int = 0
    failed: int = 0
    operations: int = 0  # completed, of every kind
    wall_s: float = 0.0  # includes the probe's own time, probe.spent_s
    throughput: float | None = None  # set when it is not operations / wall_s
    errors: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    probe: Probe = field(default_factory=Probe)  # ticked after every operation

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 8:
            self.errors.append(what)


class Workload:
    """Shared set-up and the closed-loop query primitive."""

    name = ""

    def __init__(self, inputs: inp.Inputs, scale: inp.Scale, seed: int, workdir):
        self.inputs = inputs
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.budget = inputs.shape.budget_fraction
        self.ps3: PS3 | None = None
        self.setups: list[dict] = []

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """Sketch build + fit + warm-up (+ what the workload serves from).

        The two long calls cannot be interleaved with the speed probe,
        so it runs in bursts around them; times are at reference speed.
        """
        probe = Probe()
        probe.burst()
        started = time.perf_counter()
        self.ps3 = PS3(self.inputs.fresh_table(), self.inputs.spec)
        build_s = time.perf_counter() - started
        probe.burst()
        mark = time.perf_counter()
        self.ps3.fit(self.inputs.train)
        fit_s = time.perf_counter() - mark
        probe.burst()
        mark, spent = time.perf_counter(), probe.spent_s
        for query in self.inputs.warmup:
            self.ps3.query(query, budget_fraction=self.budget)
            probe.tick()
        self.start_serving()
        rest_s = time.perf_counter() - mark - (probe.spent_s - spent)
        probe.burst()
        self.setups.append(
            {
                "setup_s": (build_s + fit_s + rest_s) * probe.factor,
                "sketches.build_s": build_s * probe.factor,
                "core.training.fit_s": fit_s * probe.factor,
                "kernel_ms": probe.kernel_ms,
            }
        )

    def start_serving(self) -> None:
        """Hook: whatever must run before the first timed operation."""

    def teardown(self) -> None:
        """Drop the system so the next set-up starts from nothing."""
        # Compiled plans are process-wide; without this the second
        # set-up's fit and warm-up would find them already compiled.
        self.ps3.feature_builder.plan_cache.clear()
        self.ps3 = None
        gc.collect()

    # -- timed work ----------------------------------------------------------

    def timed_query(self, query, phase: Phase) -> float | None:
        phase.attempted += 1
        started = time.perf_counter()
        try:
            answer = self.ps3.query(query, budget_fraction=self.budget)
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            phase.fail(f"query raised {exc!r}")
            return None
        elapsed_ms = (time.perf_counter() - started) * 1e3
        phase.latencies_ms.append(elapsed_ms)
        phase.answers.append(answer)
        phase.operations += 1
        phase.probe.tick()
        return elapsed_ms

    def phase(self, seconds: float, index: int, ladder: bool) -> Phase:
        raise NotImplementedError

    def finish(self) -> Phase | None:
        """Work after the last phase; may return operations to count."""
        return None


class ScanHeavy(Workload):
    name = "scan_heavy"

    def phase(self, seconds, index, ladder):
        phase = Phase()
        pool = self.inputs.pool
        order = inp.pool_order(self.seed, len(pool), index)
        started = time.perf_counter()
        deadline = started + seconds
        position = 0
        while time.perf_counter() < deadline:
            self.timed_query(pool[order[position % len(order)]], phase)
            position += 1
        phase.wall_s = time.perf_counter() - started
        return phase


class PickHeavy(Workload):
    name = "pick_heavy"

    def __init__(self, *args):
        super().__init__(*args)
        self._next = 0  # distinct queries are consumed, never reissued

    def phase(self, seconds, index, ladder):
        phase = Phase()
        pool = self.inputs.pool
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline and self._next < len(pool):
            self.timed_query(pool[self._next], phase)
            self._next += 1
        phase.wall_s = time.perf_counter() - started
        return phase


class ServedOpen(Workload):
    name = "served_open"

    def start_serving(self):
        self.front = self.ps3.serve()

    def teardown(self):
        self.front.stop()
        super().teardown()

    def _step(self, step_index, multiple, count, phase_index, after_submit):
        rate = self.scale.base_rate_qps * multiple
        due, picks = inp.arrival_schedule(
            self.seed, 16 * phase_index + step_index, rate, count, len(self.inputs.pool)
        )
        return loadgen.open_loop_step(
            self.front,
            self.inputs.pool,
            self.budget,
            rate,
            due,
            picks,
            self.scale.drain_seconds,
            after_submit,
        )

    def phase(self, seconds, index, ladder):
        """Open-loop step(s) for 70 % of the time, then the probe.

        With ``ladder`` every rate multiple runs, each with the same
        request count, so the lowest step takes the longest; without,
        only the base rate runs. Operation latencies are the base-rate
        step's, counted from due time.
        """
        phase = Phase()
        multiples = inp.LADDER_MULTIPLES if ladder else (1,)
        step_seconds = 0.7 * seconds / sum(1.0 / m for m in multiples)
        count = max(16, int(step_seconds * self.scale.base_rate_qps))
        started = time.perf_counter()
        # One probe per step: a step's latencies are scaled by the
        # machine speed seen while that step ran.
        probes = [Probe("cpu") for __ in multiples]
        steps = [
            self._step(i, multiple, count, index, probes[i].tick)
            for i, multiple in enumerate(multiples)
        ]
        phase.extra["step_probes"] = probes
        phase.probe = probes[multiples.index(1)]
        for step in steps:
            phase.attempted += len(step.requests)
            for request in step.requests:
                if request.error is not None:
                    phase.fail(f"request failed {request.error!r}")
                elif request.done is not None:
                    phase.operations += 1
        for request in steps[multiples.index(1)].requests:
            if request.answer is not None:
                phase.latencies_ms.append(request.latency * 1e3)
                phase.answers.append(request.answer)
        phase.extra["steps"] = steps
        phase.extra["base_step"] = multiples.index(1)

        __, picks = inp.arrival_schedule(
            self.seed,
            16 * index + 15,
            1.0,
            int(seconds * 2000) + self.scale.probe_inflight,
            len(self.inputs.pool),
        )
        speed = Probe("cpu")
        probe, probe_wall = loadgen.saturation_probe(
            self.front,
            self.inputs.pool,
            self.budget,
            picks,
            self.scale.probe_inflight,
            0.3 * seconds,
            speed.tick,
        )
        phase.attempted += len(probe)
        completed = 0
        for request in probe:
            if request.error is not None:
                phase.fail(f"probe request failed {request.error!r}")
            else:
                completed += 1
        phase.operations += completed
        phase.extra["probe_answers"] = [
            r.answer for r in probe if r.answer is not None
        ]
        phase.throughput = completed / (probe_wall * speed.factor)
        phase.wall_s = time.perf_counter() - started
        return phase


class IngestMixed(Workload):
    name = "ingest_mixed"

    def __init__(self, *args):
        super().__init__(*args)
        self._round = 0
        self._appended = 0
        self._store_dir = None

    def start_serving(self):
        # Default flush policy: every journal record is fsynced before
        # the in-memory state changes. The first checkpoint is what
        # recovery loads when no append was ever checkpointed.
        self._store_dir = os.path.join(self.workdir, f"store-{len(self.setups)}")
        os.makedirs(self._store_dir)
        self.ps3.attach_store(self._store_dir)
        self.ps3.checkpoint()

    def teardown(self):
        shutil.rmtree(self._store_dir)
        super().teardown()

    def _timed(self, call, phase: Phase, what: str) -> float | None:
        phase.attempted += 1
        started = time.perf_counter()
        try:
            call()
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            phase.fail(f"{what} raised {exc!r}")
            return None
        elapsed_ms = (time.perf_counter() - started) * 1e3
        phase.operations += 1
        phase.probe.tick()
        return elapsed_ms

    def _append(self, phase: Phase) -> None:
        columns = self.inputs.append_columns[self._appended]
        self._appended += 1
        elapsed = self._timed(lambda: self.ps3.append(columns), phase, "append")
        if elapsed is not None:
            phase.extra["append_ms"].append(elapsed)

    def phase(self, seconds, index, ladder):
        phase = Phase()
        phase.extra.update(
            append_ms=[], checkpoint_ms=[], post_append_ms=[], checkpoint_bytes=[]
        )
        pool = self.inputs.pool
        order = inp.pool_order(self.seed, len(pool), index)
        last_round = self._round + int(seconds * inp.ROUNDS_PER_SECOND)
        position = 0
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline and self._round < last_round:
            self._round += 1
            self._append(phase)
            for i in range(inp.QUERIES_PER_ROUND):
                query = pool[order[position % len(order)]]
                position += 1
                elapsed = self.timed_query(query, phase)
                if i == 0 and elapsed is not None:
                    phase.extra["post_append_ms"].append(elapsed)
            if self._round % inp.CHECKPOINT_EVERY == 0:
                elapsed = self._timed(self.ps3.checkpoint, phase, "checkpoint")
                if elapsed is not None:
                    phase.extra["checkpoint_ms"].append(elapsed)
                    phase.extra["checkpoint_bytes"].append(
                        os.path.getsize(self.ps3.store.stats_path)
                    )
        phase.wall_s = time.perf_counter() - started
        phase.extra["appended_rows"] = (
            len(phase.extra["append_ms"]) * self.inputs.shape.rows_per_partition
        )
        return phase

    def finish(self):
        """Two un-checkpointed appends, timed recoveries, durability.

        Recovery must reproduce the live system from the bytes on disk:
        a ``FeatureBuilder`` over the recovered statistics has to give
        the live system's feature matrices exactly. On a mismatch every
        append of the run counts as failed — none of them is known good.
        """
        phase = Phase()
        phase.extra.update(append_ms=[], recover_s=[])
        for __ in range(inp.TAIL_APPENDS):
            self._append(phase)
        recovered = None
        for __ in range(inp.RECOVERIES):
            phase.attempted += 1
            started = time.perf_counter()
            try:
                recovered = StatisticsStore(self._store_dir).load_statistics()
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                phase.fail(f"recovery raised {exc!r}")
                continue
            phase.extra["recover_s"].append(time.perf_counter() - started)
            phase.operations += 1
            phase.probe.burst(10)
        if recovered is not None and not self._durable(*recovered):
            for __ in range(self._appended):
                phase.fail("recovered statistics differ from the live system")
        return phase

    def _durable(self, statistics, index) -> bool:
        if statistics.num_partitions != self.ps3.ptable.num_partitions:
            return False
        rebuilt = FeatureBuilder(
            statistics, self.ps3.workload.groupby_universe, index=index
        )
        live = self.ps3.feature_builder
        return all(
            np.array_equal(
                rebuilt.features_for_query(query).matrix,
                live.features_for_query(query).matrix,
            )
            for query in self.inputs.pool[: inp.DURABILITY_QUERIES]
        )


WORKLOADS = {
    cls.name: cls for cls in (ScanHeavy, PickHeavy, ServedOpen, IngestMixed)
}

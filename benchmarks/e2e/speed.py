"""A probe of how fast the machine is running, taken while it is measured.

The sandbox this benchmark runs in shares its cores. For seconds to
minutes at a time the same code runs up to 40 % slower (hypervisor
steal, a busy sibling thread), then fast again; ten identical 5-second
phases in one process gave a median operation time with an
interquartile range of 19 % of the median. No amount of work inside one
run averages that out, and a bound of 25 % cannot see a 10 % regression
through it.

So every run interleaves a fixed ~1 ms kernel with its operations — the
same mix the program is made of: interpreter-bound Python, many small
numpy calls, a memory-bound pass — and reports time metrics at a
reference speed: ``measured * REFERENCE_MS / mean kernel time``. Over
those ten phases the kernel's mean time tracked the operations' with a
correlation of 0.98, and the scaled median's spread fell from 19 % to
5 %. The kernel's own time is reported beside the metrics
(``machine.kernel_ms``), so a reader can undo the scaling.

The kernel never touches the program under test, so no change to the
repo can move it; only the machine can.
"""

from __future__ import annotations

import time

import numpy as np

#: The kernel's usual time on this sandbox, frozen when the benchmark
#: was defined. Only a unit: changing it rescales every time metric of
#: every commit alike. Single-threaded phases time the kernel by wall
#: clock, which also sees steal. ``served_open`` runs it on the
#: generator thread beside the serving worker and times it by thread CPU
#: time, so that waiting for the worker to release the interpreter lock —
#: which a change to the program could alter — never counts as a slow
#: machine; a thread that wakes from sleep for each kernel runs it on
#: colder caches, hence the larger reference.
REFERENCE_MS = {"wall": 1.3, "cpu": 1.5}

_RNG = np.random.default_rng(2020)
_LARGE = _RNG.random(40_000)
_CODES = (_LARGE * 60).astype(np.int64)
_SMALL = _RNG.random(64)


def kernel() -> tuple[float, float]:
    """Run the fixed kernel once; ``(wall ms, thread CPU ms)``."""
    wall = time.perf_counter()
    cpu = time.thread_time()
    total = 0
    for i in range(4_000):  # interpreter-bound
        total += i * i
    small = _SMALL
    for __ in range(200):  # call overhead of small numpy operations
        small = np.minimum(small * 1.0001 + 0.0001, 1.0)
    keep = _LARGE > 0.3  # a memory-bound pass, the executor's shape
    np.bincount(_CODES[keep], weights=_LARGE[keep], minlength=60)
    np.sort(_LARGE[:8_000])
    return (time.perf_counter() - wall) * 1e3, (time.thread_time() - cpu) * 1e3


class Probe:
    """Kernel timings gathered across one phase (or one set-up)."""

    def __init__(self, clock: str = "wall") -> None:
        self.clock = clock
        self.samples_ms: list[float] = []
        self.spent_s = 0.0  # wall time the probe itself took

    def tick(self) -> None:
        wall_ms, cpu_ms = kernel()
        self.samples_ms.append(wall_ms if self.clock == "wall" else cpu_ms)
        self.spent_s += wall_ms / 1e3

    def burst(self, count: int = 40) -> None:
        """Many ticks at once, around a call that cannot be interleaved."""
        for __ in range(count):
            self.tick()

    @property
    def kernel_ms(self) -> float:
        return float(np.mean(self.samples_ms)) if self.samples_ms else 0.0

    @property
    def factor(self) -> float:
        """Multiplier that takes a measured time to the reference speed."""
        if not self.samples_ms:
            return 1.0
        return REFERENCE_MS[self.clock] / self.kernel_ms

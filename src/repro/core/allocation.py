"""Sampling-budget allocation across importance groups (paper section 4.3).

Groups are ordered least-important first. Group ``i`` (0-based) samples at
rate ``r * alpha^i`` — the rate *decays* by ``alpha > 1`` from each group
to the next-less-important one, i.e. grows toward the most important
group. The base rate ``r`` is found by waterfilling so the integer
allocations (each capped at its group's size) sum to the budget; leftover
slots from capped groups spill toward the most important groups first.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError


def allocate_samples(
    group_sizes: list[int], budget: int, alpha: float
) -> list[int]:
    """Integer sample counts per group (least-important group first).

    Guarantees ``sum(result) == min(budget, sum(group_sizes))`` and
    ``result[i] <= group_sizes[i]`` for every group. Nonempty groups
    receive at least one sample when the budget permits, so no importance
    stratum is starved entirely. Plain float arithmetic: a funnel has a
    handful of groups, and as numpy calls this cost 0.3 ms per pick.
    """
    if not (math.isfinite(alpha) and alpha >= 1.0):
        raise ConfigError(f"alpha must be finite and >= 1, got {alpha!r}")
    if budget < 0:
        raise ConfigError("budget must be non-negative")
    sizes = [float(size) for size in group_sizes]
    if any(size < 0 for size in sizes):
        raise ConfigError("group sizes must be non-negative")
    total_size = int(sum(sizes))
    if budget >= total_size:
        return [int(size) for size in sizes]
    if budget == 0 or total_size == 0:
        return [0] * len(sizes)

    rates = [1.0]  # alpha**rank; a product overflows to inf, ``**`` raises
    for __ in sizes[1:]:
        rates.append(rates[-1] * alpha)
    # An empty group adds 0.0 to any total, so the bisection skips it.
    nonempty = [(size, rate) for size, rate in zip(sizes, rates) if size > 0]

    def total(r: float) -> float:
        filled = 0.0
        for size, rate in nonempty:  # left to right, as ``ndarray.sum`` adds
            share = r * rate * size
            filled += share if share < size else size
        return filled

    # Waterfill the continuous base rate r.
    lo, hi = 0.0, 1.0
    while total(hi) < budget:
        hi *= 2.0
    for __ in range(60):
        mid = (lo + hi) / 2.0
        if total(mid) < budget:
            lo = mid
        else:
            hi = mid

    # Floor of each group's continuous share (shares are >= 0).
    counts = [int(min(size, hi * rate * size)) for size, rate in zip(sizes, rates)]
    # Give every nonempty group at least one sample if budget allows.
    starved = [g for g, size in enumerate(sizes) if size > 0 and counts[g] == 0]
    if sum(counts) + len(starved) <= budget:
        for g in starved:
            counts[g] = 1
    # Distribute the remainder most-important-first: fill each group to
    # its cap before moving to the next-less-important one. (A round-robin
    # here would top up tiny low-importance groups past their waterfilled
    # rate — a size-2 group could saturate at rate 1.0 while more
    # important groups sit far below it.)
    remainder = budget - sum(counts)
    for g in reversed(range(len(sizes))):  # most important group first
        if remainder <= 0:
            break
        take = min(remainder, int(sizes[g]) - counts[g])
        if take > 0:
            counts[g] += take
            remainder -= take
    # Floor+minimums can only overshoot via the at-least-one rule; trim
    # least-important-first.
    idx = 0
    while sum(counts) > budget:
        g = idx % len(counts)
        if counts[g] > 0:
            counts[g] -= 1
        idx += 1
    return counts

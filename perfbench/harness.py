"""Measurement rules shared by every workload: percentiles, op accounting, digests, host stamp."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import sys
from typing import Iterable, Sequence

#: A percentile is reported only when at least this many samples lie beyond it.
SAMPLES_BEYOND = 10


def highest_percentile(n: int) -> int | None:
    """The highest whole percentile of *n* samples with at least ``SAMPLES_BEYOND`` samples above it.

    Percentiles use the nearest-rank rule: the p-th percentile is the sample
    of rank ``ceil(p * n / 100)``, so ``n - rank`` samples lie beyond it.
    ``None`` when even the median has fewer than ``SAMPLES_BEYOND`` samples above it.
    """
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= SAMPLES_BEYOND:
            return p
    return None


def percentile(values: Sequence[float], p: int) -> float:
    """Nearest-rank *p*-th percentile of *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def latency_summary(name: str, seconds: Sequence[float]) -> dict[str, float]:
    """``<name>_p50`` and ``<name>_p95`` in milliseconds, refusing a p95 the sample count cannot support."""
    top = highest_percentile(len(seconds))
    if top is None or top < 95:
        raise ValueError(f"{name}: {len(seconds)} samples cannot support a p95 with {SAMPLES_BEYOND} beyond it")
    return {
        f"{name}_p50": percentile(seconds, 50) * 1000.0,
        f"{name}_p95": percentile(seconds, 95) * 1000.0,
    }


class OpCounter:
    """Attempted and failed user-facing operations; a failed output check never aborts the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def f1_score(predictions: Sequence[bool], labels: Sequence[bool]) -> float:
    tp = sum(1 for p, y in zip(predictions, labels) if p and y)
    fp = sum(1 for p, y in zip(predictions, labels) if p and not y)
    fn = sum(1 for p, y in zip(predictions, labels) if not p and y)
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def digest(items: Iterable[str]) -> str:
    """Order-sensitive SHA-256 over strings (learned definitions, generated inputs)."""
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def effective_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) clock ticks of all CPUs since boot from ``/proc/stat``; ``None`` off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(value) for value in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice, already counted in user and nice]
    return fields[7], sum(fields[:8])


def steal_share(before: tuple[int, int] | None) -> float | None:
    """Share of all CPUs' time since *before* that the hypervisor gave to other tenants."""
    after = cpu_ticks()
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def host_stamp() -> dict[str, object]:
    """What the numbers were measured on."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.core.fanout import _start_method

    return {
        "nproc": os.cpu_count(),
        "effective_cpus": effective_cpus(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "start_method": _start_method(),
        "platform": sys.platform,
    }

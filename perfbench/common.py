"""Helpers shared by the workloads: run records, host speed, percentiles,
pool counting."""

from __future__ import annotations

import gc
import json
import math
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

#: The calibration kernel's time on the reference host (a quiet 2-vCPU
#: x86-64 VM, CPython 3.11): host seconds are scaled to this speed.
REFERENCE_KERNEL_S = 0.005
_KERNEL_DOC = [
    {"t": i * 0.02, "v": (i * 7919 % 1201) / 1201, "source": "active", "k": [i, i / 3.0]}
    for i in range(1200)
]


def kernel_seconds() -> float:
    """Best of three timings of a fixed stdlib kernel (JSON round trip,
    dict and float work, a sort), with the cyclic collector paused so
    the program's heap does not slow it.

    It shares no code with the program, so it measures only how fast
    the host runs this kind of Python at the moment.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            started = time.perf_counter()
            records = json.loads(json.dumps(_KERNEL_DOC))
            total = 0.0
            for record in records:
                total += record["t"] * record["v"] + record["k"][1]
            records.sort(key=lambda record: record["v"])
            best = min(best, time.perf_counter() - started)
        return best
    finally:
        if enabled:
            gc.enable()


@dataclass
class RunRecord:
    """What one pass over a workload's units measured and found."""

    #: Wall seconds of each unit (one fig08 run, campaign or session).
    unit_walls: List[float] = field(default_factory=list)
    #: The same units in seconds of the reference host (see :meth:`segment`).
    scaled_walls: List[float] = field(default_factory=list)
    #: Operations attempted and how many of them failed a check.
    attempted: int = 0
    failed: int = 0
    #: Simulated device-seconds the pass advanced.
    sim_seconds: float = 0.0
    #: Per-layer values the workload computes itself (counts, ratios).
    layer: Dict[str, float] = field(default_factory=dict)
    #: Descriptions of failed checks, printed to stderr.
    problems: List[str] = field(default_factory=list)
    #: Workload-specific outputs kept for the final checks.
    outputs: Dict[str, Any] = field(default_factory=dict)

    def start_unit(self) -> None:
        self._kernel = kernel_seconds()
        self._raw = self._scaled = 0.0

    def segment(self, wall: float) -> float:
        """Add *wall* timed seconds to the current unit; return their scale.

        The kernel is timed again, outside every clock, and the stretch
        is scaled by the host speed averaged over its two ends, so a
        slow spell of the host inflates neither ``wall_s`` nor latency.
        """
        kernel = kernel_seconds()
        scale = REFERENCE_KERNEL_S / ((self._kernel + kernel) / 2.0)
        self._kernel = kernel
        self._raw += wall
        self._scaled += wall * scale
        return scale

    def end_unit(self) -> None:
        self.unit_walls.append(self._raw)
        self.scaled_walls.append(self._scaled)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile; refuses fewer than ten samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < 10:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples has "
            f"{len(ordered) - rank} beyond it; at least 10 are needed"
        )
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SegmentMemos:
    """Cold booster segment memos per unit, and their hit ratio.

    Call :meth:`cold` before a unit and :meth:`tally` right after it:
    the ratio then counts the ``lru_cache`` lookups of units only.  The
    memos are private to the booster; where a version of the program
    has none, the ratio reads 0.
    """

    def __init__(self) -> None:
        from repro.energy import booster

        self._clear = getattr(booster, "clear_segment_caches", None)
        self._memos = [
            memo
            for memo in (
                getattr(booster, "_min_bank_voltage", None),
                getattr(booster, "_time_to_brownout", None),
            )
            if hasattr(memo, "cache_info")
        ]
        self.hits = 0
        self.lookups = 0

    def cold(self) -> None:
        if self._clear is not None:
            self._clear()

    def tally(self) -> None:
        for memo in self._memos:
            info = memo.cache_info()
            self.hits += info.hits
            self.lookups += info.hits + info.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class PoolCounter:
    """Counts ``ProcessPoolExecutor`` constructions anywhere in the process.

    The benchmark measures the serial program; a pool built despite
    ``REPRO_JOBS=1`` and ``jobs=1`` fails the run.
    """

    def __init__(self) -> None:
        from concurrent.futures import ProcessPoolExecutor

        self.created = 0
        self._cls = ProcessPoolExecutor
        self._init = ProcessPoolExecutor.__init__
        counter = self
        original = self._init

        def counting_init(pool, *args, **kwargs):
            counter.created += 1
            original(pool, *args, **kwargs)

        ProcessPoolExecutor.__init__ = counting_init

    def close(self) -> None:
        self._cls.__init__ = self._init

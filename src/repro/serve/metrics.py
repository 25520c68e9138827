"""Per-stage latency metrics for the serving layer.

Every request that passes through :mod:`repro.serve.server` is timed in
stages — ``queue`` (admission to first worker touch), ``decode`` (JSON +
HTML parse), ``route`` (blueprint-distance provider selection),
``extract`` (running the synthesized program), ``encode`` (response
serialization) and ``total`` — and the samples land here.  ``GET
/metrics`` returns :meth:`StageMetrics.snapshot`.

Percentiles are nearest-rank over a bounded ring buffer (the most recent
:data:`WINDOW` samples per stage), so the endpoint reports *recent*
latency, costs O(window) per scrape and the process never accumulates
per-request state without bound.  Counters (requests, responses by
status class, shed 429s, failed requests, reloads) are plain monotonic ints.

Thread-safe by a single lock: samples arrive from the extraction worker
thread while scrapes run on the event loop.
"""

from __future__ import annotations

import threading
import time
from collections import deque

# Ring-buffer length per stage.  2048 samples ≈ a few minutes of steady
# traffic — enough for stable p99s, small enough to scan per scrape.
WINDOW = 2048

# Stage names in reporting order (snapshot emits them in this order so
# scrapes diff cleanly).
STAGES = ("queue", "decode", "route", "extract", "encode", "total")


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty *sorted* sample list."""
    rank = max(0, min(len(samples) - 1, int(q * len(samples) + 0.5) - 1))
    return samples[rank]


class StageMetrics:
    """Bounded per-stage latency histograms plus monotonic counters."""

    def __init__(self, window: int = WINDOW) -> None:
        self._lock = threading.Lock()
        self._stages: dict[str, deque[float]] = {
            stage: deque(maxlen=window) for stage in STAGES
        }
        self._counters: dict[str, int] = {}
        self._started = time.time()

    def observe(self, stage: str, seconds: float) -> None:
        """Record one latency sample (seconds) for ``stage``."""
        with self._lock:
            ring = self._stages.get(stage)
            if ring is None:
                ring = self._stages[stage] = deque(maxlen=WINDOW)
            ring.append(seconds)

    def observe_many(self, samples: dict[str, float]) -> None:
        """Record one request's ``{stage: seconds}`` timings atomically."""
        with self._lock:
            for stage, seconds in samples.items():
                ring = self._stages.get(stage)
                if ring is None:
                    ring = self._stages[stage] = deque(maxlen=WINDOW)
                ring.append(seconds)

    def count(self, name: str) -> None:
        """Bump a monotonic counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + 1

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """The ``/metrics`` payload: per-stage percentiles + counters.

        Latencies are reported in **milliseconds** (p50/p90/p99/mean/max
        over the ring window); counters verbatim.
        """
        with self._lock:
            stages = {
                stage: sorted(ring)
                for stage, ring in self._stages.items()
                if ring
            }
            counters = dict(self._counters)
            uptime = time.time() - self._started
        report: dict = {
            "uptime_seconds": round(uptime, 3),
            "counters": dict(sorted(counters.items())),
            "stages_ms": {},
            "window": WINDOW,
        }
        for stage in (*STAGES, *sorted(set(stages) - set(STAGES))):
            samples = stages.get(stage)
            if not samples:
                continue
            report["stages_ms"][stage] = {
                "count": len(samples),
                "p50": round(percentile(samples, 0.50) * 1000.0, 3),
                "p90": round(percentile(samples, 0.90) * 1000.0, 3),
                "p99": round(percentile(samples, 0.99) * 1000.0, 3),
                "mean": round(sum(samples) / len(samples) * 1000.0, 3),
                "max": round(samples[-1] * 1000.0, 3),
            }
        return report

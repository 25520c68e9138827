"""Memoization and instrumentation for the synthesis pipeline.

Algorithm 3's coarse merging recomputes pairwise ROI-blueprint distances on
every merge round, and Algorithm 4's medoid (``typical_blueprint``) is
quadratic in the same distance function; the landmark-candidate scorer is
re-run for the global training set, every fine cluster and every merged
cluster even when the example set is unchanged.  :class:`DistanceCache`
memoizes all four behind per-run keyed tables so each quantity is computed
once per ``lrsyn`` invocation.

The module also hosts the wall-clock instrumentation used by the benchmark
suite: a :class:`StageTimer` accumulates per-stage seconds/call counts
(``cluster``, ``landmark``, ``region-synth``, ``value-synth``, ``score``)
plus arbitrary counters (cache hits/misses).  Parallel harness workers run
under their own timer (:func:`use_timer`) and ship a :meth:`snapshot` back to
the parent, which merges it — so timings survive process fan-out.

Environment knobs:

* ``REPRO_CACHE`` — set to ``0`` to disable memoization (every lookup
  recomputes); default on.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Hashable, Sequence

# Counter names, built once rather than formatted on every lookup.
_COUNTERS = {
    (kind, hit): f"cache.{kind}.{'hit' if hit else 'miss'}"
    for kind in ("doc_bp", "roi_bp", "distance", "landmark")
    for hit in (True, False)
}


def cache_enabled() -> bool:
    """Whether the memoization layer is active (``REPRO_CACHE`` env knob)."""
    return os.environ.get("REPRO_CACHE", "1") != "0"


class StageTimer:
    """Accumulates wall-clock seconds and call counts per pipeline stage.

    Besides the named pipeline stages, the timer records **per-task**
    wall-clock: each experiment driver wraps one canonical task (see
    :mod:`repro.harness.sharding`) in :meth:`task`, and the resulting
    ``tasks`` table — keyed by the task's string tuple — lands in every
    partial-result file as ``task_seconds``.  Task keys ride through
    :meth:`snapshot`/:meth:`merge` like every other measurement, so
    per-task timings survive the ``REPRO_JOBS`` process fan-out (task
    sets are disjoint across workers, so summing on merge is exact).
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.tasks: dict[tuple[str, ...], float] = {}

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
            self.calls[name] = self.calls.get(name, 0) + 1

    @contextmanager
    def task(self, key: tuple[str, ...]):
        """Record wall-clock against one canonical experiment task."""
        key = tuple(key)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.tasks[key] = self.tasks.get(key, 0.0) + elapsed

    def count(self, name: str, increment: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + increment

    def snapshot(self) -> dict[str, dict]:
        """A picklable copy, suitable for shipping across process boundaries."""
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "tasks": dict(self.tasks),
        }

    def merge(self, snapshot: dict[str, dict]) -> None:
        """Fold a worker's :meth:`snapshot` into this timer."""
        for name, value in snapshot.get("seconds", {}).items():
            self.seconds[name] = self.seconds.get(name, 0.0) + value
        for name, value in snapshot.get("calls", {}).items():
            self.calls[name] = self.calls.get(name, 0) + value
        for name, value in snapshot.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        for key, value in snapshot.get("tasks", {}).items():
            key = tuple(key)
            self.tasks[key] = self.tasks.get(key, 0.0) + value

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()
        self.counters.clear()
        self.tasks.clear()


GLOBAL_TIMER = StageTimer()
_active_timer = GLOBAL_TIMER


def active_timer() -> StageTimer:
    """The timer instrumentation currently records into."""
    return _active_timer


@contextmanager
def use_timer(timer: StageTimer):
    """Route stage/counter recording into ``timer`` for the duration.

    Used by benchmark drivers to isolate one experiment's timings and by
    parallel workers so their measurements can be snapshotted and merged
    into the parent process.
    """
    global _active_timer
    previous = _active_timer
    _active_timer = timer
    try:
        yield timer
    finally:
        _active_timer = previous


class DistanceCache:
    """Keyed memoization of the quantities the LRSyn pipeline recomputes.

    Four tables, all scoped to one cache instance (typically one ``lrsyn``
    call, so document identity is stable for the cache's lifetime):

    * whole-document blueprints, keyed by document identity;
    * ROI blueprints, keyed by ``(document, landmark, common_values)``;
    * pairwise blueprint distances, keyed symmetrically by the blueprint
      values themselves (blueprints are hashable by contract);
    * landmark-candidate lists, keyed by the example set.

    Documents used as keys are pinned (a reference is kept) so ``id()``
    reuse after garbage collection cannot alias entries.  Nothing here is
    persisted: a warm run is served whole programs by the program store
    before it would ever consult these tables.
    """

    def __init__(self, domain, enabled: bool | None = None) -> None:
        self.domain = domain
        self.enabled = cache_enabled() if enabled is None else enabled
        self._doc_blueprints: dict[int, tuple[Any, Hashable]] = {}
        self._roi_blueprints: dict[tuple, tuple[Any, Hashable]] = {}
        self._distances: dict[tuple[Hashable, Hashable], float] = {}
        self._landmarks: dict[tuple, list] = {}
        self._pinned: list[Any] = []
        self.hit_counts: dict[str, int] = {}
        self.miss_counts: dict[str, int] = {}

    # -- stats ----------------------------------------------------------
    @property
    def hits(self) -> int:
        return sum(self.hit_counts.values())

    @property
    def misses(self) -> int:
        return sum(self.miss_counts.values())

    def _record(self, kind: str, hit: bool) -> None:
        table = self.hit_counts if hit else self.miss_counts
        table[kind] = table.get(kind, 0) + 1
        active_timer().count(_COUNTERS[kind, hit])

    # -- blueprints -----------------------------------------------------
    def document_blueprint(self, doc: Any) -> Hashable:
        if not self.enabled:
            return self.domain.document_blueprint(doc)
        key = id(doc)
        entry = self._doc_blueprints.get(key)
        if entry is not None:
            self._record("doc_bp", hit=True)
            return entry[1]
        self._record("doc_bp", hit=False)
        blueprint = self.domain.document_blueprint(doc)
        self._doc_blueprints[key] = (doc, blueprint)
        return blueprint

    def roi_blueprint(
        self,
        doc: Any,
        landmark: str,
        common_values: frozenset,
        compute: Callable[[], Hashable],
    ) -> Hashable:
        """Memoized ROI blueprint for ``(doc, landmark, common_values)``.

        The ROI itself is derived from the document's annotation, which is
        immutable for a cache's lifetime, so the key does not include it.
        ``compute`` runs on a miss and may return ``None`` ("landmark
        anchors no value here"), which is cached too.
        """
        if not self.enabled:
            return compute()
        key = (id(doc), landmark, common_values)
        entry = self._roi_blueprints.get(key)
        if entry is not None:
            self._record("roi_bp", hit=True)
            return entry[1]
        self._record("roi_bp", hit=False)
        blueprint = compute()
        self._roi_blueprints[key] = (doc, blueprint)
        return blueprint

    def distance(self, bp_a: Hashable, bp_b: Hashable) -> float:
        """Memoized ``blueprint_distance``.

        The reversed-order entry is consulted only for domains declaring a
        symmetric metric; for asymmetric metrics (image BoxSummary
        matching) each orientation is cached separately so cached and
        uncached pipelines compute identical values.
        """
        if not self.enabled:
            return self.domain.blueprint_distance(bp_a, bp_b)
        key = (bp_a, bp_b)
        value = self._distances.get(key)
        if value is None and getattr(self.domain, "symmetric_distance", True):
            value = self._distances.get((bp_b, bp_a))
        if value is not None:
            self._record("distance", hit=True)
            return value
        self._record("distance", hit=False)
        value = self.domain.blueprint_distance(bp_a, bp_b)
        self._distances[key] = value
        return value

    # -- landmarks ------------------------------------------------------
    def landmark_candidates(
        self, examples: Sequence, max_candidates: int = 10
    ):
        """Memoized candidate scoring, keyed by the example set.

        Computation is timed under the ``landmark`` stage.
        """
        if not self.enabled:
            with active_timer().stage("landmark"):
                return self.domain.landmark_candidates(
                    examples, max_candidates
                )
        key = (tuple(id(example) for example in examples), max_candidates)
        candidates = self._landmarks.get(key)
        if candidates is not None:
            self._record("landmark", hit=True)
            return list(candidates)
        self._record("landmark", hit=False)
        self._pinned.extend(examples)
        with active_timer().stage("landmark"):
            candidates = self.domain.landmark_candidates(
                examples, max_candidates
            )
        self._landmarks[key] = list(candidates)
        return list(candidates)

"""Per-task wall-clock cost model for the work pool's claim order.

Round-robin sharding (:func:`repro.harness.sharding.assign`) balances
*task counts*, but the tasks are heterogeneous — an image-domain task
can cost many times an HTML field task.  This module is the cost side
of balancing time instead: every shard or pool run records per-task
wall-clock (:meth:`repro.core.caching.StageTimer.task`, surfaced in
each partial's ``task_seconds``), the observations are persisted as a
``timing`` kind in the :class:`~repro.store.BlueprintStore`, and a
:class:`CostModel` loaded from that history predicts what every task of
a graph will cost — which is what the work pool orders its claims by
(:func:`repro.harness.queue.claim_order`).

Timing entries are keyed by ``(experiment, REPRO_SCALE, task_key)``:

* the *experiment* and *task key* identify the work (the scheduler's
  canonical task identity);
* the *scale* partitions the history — wall-clock at ``REPRO_SCALE=1``
  says nothing numeric about a ``0.15`` run, so observations never mix
  across scales;
* like every store key, :data:`~repro.store.BLUEPRINT_ALGO_VERSION`
  is folded in via :func:`~repro.store.entry_key`, so an algorithm
  change that shifts the cost profile orphans the stale timings instead
  of letting them mis-order future claims.

Each entry holds ``{"seconds": <EWMA>, "count": <observations>}``.  New
observations fold in with an exponential moving average
(:data:`EWMA_ALPHA`), so predictions track drift (machine changes, new
optimizations) without being whipsawed by one noisy run.  Rows that are
corrupt, non-numeric, non-finite or non-positive are treated as absent —
a damaged cache degrades predictions, never a run.

Prediction falls back gracefully as history thins::

    exact (experiment, task) EWMA
      -> mean over the experiment's recorded tasks
        -> DEFAULT_SECONDS (uniform costs: the claim order stays
           canonical)

Timings are *advisory*: they shape claim order, never results.  A
cold, stale or disabled store only costs balance, and the balance
feedback loop closes on the next recorded run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.store import BlueprintStore, entry_key, shared_store

TaskKey = tuple[str, ...]

# The store kind holding per-task wall-clock EWMAs.  A small kind: rows
# are tiny dicts, hydrated wholesale like blueprints (never compressed).
TIMING_KIND = "timing"
# Timings belong to the experiment harness, not to either document
# substrate — the substrate slot in the store schema records that.
TIMING_SUBSTRATE = "harness"

# Weight of the newest observation when folding into a stored EWMA.
EWMA_ALPHA = 0.5

# Cost assumed for a task of an experiment with no history: a uniform
# constant leaves the claim order canonical.
DEFAULT_SECONDS = 1.0


def timing_entry_key(experiment: str, scale: float, task: TaskKey) -> str:
    """The store key for one ``(experiment, scale, task)`` timing entry."""
    return entry_key(
        TIMING_SUBSTRATE,
        TIMING_KIND,
        experiment,
        f"scale={scale!r}",
        *task,
    )


def _row_seconds(row) -> float | None:
    """The EWMA seconds of a stored timing row, or ``None`` when unusable.

    The gate for every corruption mode: wrong type, missing field,
    bools, NaN/inf, zero or negative — all read as "no history".
    """
    if not isinstance(row, dict):
        return None
    seconds = row.get("seconds")
    if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
        return None
    if not math.isfinite(seconds) or seconds <= 0:
        return None
    return float(seconds)


def _row_count(row) -> int:
    if not isinstance(row, dict):
        return 0
    count = row.get("count")
    if isinstance(count, bool) or not isinstance(count, int) or count < 0:
        return 0
    return count


def record_task_timings(
    experiment: str,
    observations: Mapping[TaskKey, float],
    *,
    scale: float,
    store: BlueprintStore | None = None,
) -> int:
    """Fold one run's observed per-task seconds into the timing store.

    Invalid observations (non-finite, non-positive) are skipped; valid
    ones EWMA-blend into any existing entry.  Returns how many entries
    were written.  A disabled store records nothing — predictions then
    stay on their fallbacks, which is the documented degradation.
    """
    store = store if store is not None else shared_store()
    if not store.enabled:
        return 0
    recorded = 0
    for task, seconds in sorted(observations.items()):
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
            continue
        if not math.isfinite(seconds) or seconds <= 0:
            continue
        task = tuple(task)
        key = timing_entry_key(experiment, scale, task)
        previous = store.get(TIMING_KIND, key)
        stored_seconds = _row_seconds(previous)
        if stored_seconds is None:
            blended = float(seconds)
        else:
            blended = (
                EWMA_ALPHA * float(seconds)
                + (1.0 - EWMA_ALPHA) * stored_seconds
            )
        store.put(
            TIMING_KIND,
            key,
            TIMING_SUBSTRATE,
            {"seconds": blended, "count": _row_count(previous) + 1},
            overwrite=True,
        )
        recorded += 1
    if recorded:
        store.flush()
    return recorded


@dataclass
class CostModel:
    """Predicted per-task seconds with an experiment-mean fallback.

    Built by :meth:`load`, which probes the timing store for every task
    of every graph it is given.
    """

    scale: float
    exact: dict[tuple[str, TaskKey], float] = field(default_factory=dict)
    experiment_means: dict[str, float] = field(default_factory=dict)

    @classmethod
    def load(
        cls,
        graphs: Mapping[str, Sequence[TaskKey]],
        *,
        scale: float,
        store: BlueprintStore | None = None,
    ) -> "CostModel":
        store = store if store is not None else shared_store()
        exact: dict[tuple[str, TaskKey], float] = {}
        if store.enabled:
            for experiment in sorted(graphs):
                for task in graphs[experiment]:
                    task = tuple(task)
                    seconds = _row_seconds(
                        store.get(
                            TIMING_KIND,
                            timing_entry_key(experiment, scale, task),
                        )
                    )
                    if seconds is not None:
                        exact[(experiment, task)] = seconds
        experiment_means = {}
        for experiment in graphs:
            values = [
                seconds
                for (name, _), seconds in exact.items()
                if name == experiment
            ]
            if values:
                experiment_means[experiment] = sum(values) / len(values)
        return cls(
            scale=scale, exact=exact, experiment_means=experiment_means
        )

    def predict(self, experiment: str, task: TaskKey) -> float:
        """Predicted seconds for one task (never raises, never <= 0)."""
        exact = self.exact.get((experiment, tuple(task)))
        if exact is not None:
            return exact
        return self.experiment_means.get(experiment, DEFAULT_SECONDS)

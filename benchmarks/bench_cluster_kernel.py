"""Microbenchmark: the interned-bitset distance kernel vs the legacy path.

Times the two pairwise hot paths of the clustering pipeline on *real* M2H
workloads at the ambient ``REPRO_SCALE``:

* **cluster** — the full whole-document blueprint distance matrix over the
  pooled train+test documents of every provider
  (:func:`repro.core.clustering.pairwise_distance_matrix`);
* **landmark** — the merge-loop prefill shape: an explicit pair list over
  the pooled annotation-derived ROI blueprints, seeded into a
  :class:`~repro.core.caching.DistanceCache`
  (:func:`repro.core.clustering.prefill_pairwise_distances` with the kernel
  on; the serial ``cache.distance`` demand loop it replaces with it off).

Each arm toggles ``REPRO_BITSET`` only — same workload, same process,
serial (``n_jobs=1``) — takes the median of ``REPEATS`` runs, and the
resulting distances are verified identical before anything is reported.
Results land in ``benchmarks/results/BENCH_cluster_kernel.json`` (pairs/sec
and stage seconds per arm); the smoke-bench CI leg runs this module via
pytest, which additionally gates on the bitset arm being faster.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import random
import sys
import time
from contextlib import contextmanager

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))  # for benchmarks.common

from benchmarks.common import RESULTS_DIR  # noqa: E402

from repro.core import bitset
from repro.core.caching import DistanceCache
from repro.core.clustering import fine_cluster, prefill_pairwise_distances
from repro.core.document import TrainingExample
from repro.datasets import m2h
from repro.datasets.base import CONTEMPORARY, LONGITUDINAL
from repro.harness.runner import scale, scaled
from repro.html.domain import HtmlDomain

RESULT_FILE = RESULTS_DIR / "BENCH_cluster_kernel.json"

REPEATS = 3
# Pair-list size cap for the landmark (prefill) stage.
LANDMARK_PAIRS = 40_000
# Corpus seeds pooled into the prefill workload: distinct blueprints
# recur across seeds only where the template truly repeats, so extra
# seeds widen the distinct-blueprint pool the pair list draws from.
POOL_SEEDS = (0, 1)


@contextmanager
def _bitset_knob(value: str):
    """Pin one arm's kernel selection (and keep both arms serial)."""
    knobs = {"REPRO_BITSET": value, "REPRO_JOBS": "1"}
    previous = {name: os.environ.get(name) for name in knobs}
    os.environ.update(knobs)
    try:
        yield
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _workload():
    """Document and ROI blueprints pooled from every M2H provider.

    Mirrors what the pipeline feeds the kernels: whole-document blueprints
    exactly as ``fine_cluster`` sees them (one per contemporary document,
    duplicates and all), and a deduplicated pool of blueprints for the
    prefill pair list — document blueprints from both settings plus region
    blueprints of the enclosing ROIs of each training annotation (the
    merge loop compares landmark-anchored ROIs; the annotation-anchored
    ones have the same shape and size without requiring landmark
    inference here).  Prefill demand is deduplicated in production
    (:func:`repro.core.clustering._missing_merge_pairs`), hence the
    distinct pool.
    """
    domain = HtmlDomain()
    examples = []
    distinct: dict = {}
    for provider in m2h.PROVIDERS:
        for setting, seed in itertools.product(
            (CONTEMPORARY, LONGITUDINAL), POOL_SEEDS
        ):
            corpus = m2h.generate_corpus(
                provider,
                train_size=scaled(60),
                test_size=scaled(520, minimum=30),
                setting=setting,
                seed=seed,
            )
            docs = [labeled.doc for labeled in corpus.train + corpus.test]
            # Memoize the blueprints on the documents now, so the timed
            # fine_cluster arms measure the distance kernel, not
            # blueprint extraction.
            blueprints = [
                domain.document_blueprint(doc) for doc in docs
            ]
            if setting == CONTEMPORARY and seed == 0:
                examples.extend(
                    TrainingExample(doc=doc, annotation=None)
                    for doc in docs
                )
            distinct.update(dict.fromkeys(blueprints))
            common_values = domain.common_values(
                [labeled.doc for labeled in corpus.train]
            )
            for labeled in corpus.train + corpus.test:
                for field in m2h.fields_for(provider):
                    example = labeled.training_example(field)
                    if not example.annotation.locations:
                        continue
                    region = domain.enclosing_region(
                        labeled.doc, list(example.annotation.locations)
                    )
                    distinct[
                        domain.region_blueprint(
                            labeled.doc, region, common_values
                        )
                    ] = None
    return domain, examples, list(distinct)


def _prefill_pairs(pool):
    """A deterministic pair list over the distinct blueprint pool."""
    n = len(pool)
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng = random.Random(0)
    if len(all_pairs) > LANDMARK_PAIRS:
        all_pairs = rng.sample(all_pairs, LANDMARK_PAIRS)
    return [(pool[i], pool[j]) for i, j in all_pairs]


def _fresh_cache(domain):
    """A cache whose seeded distances start from an empty table."""
    return DistanceCache(domain, enabled=True)


def _time_arm(run, repeats: int = REPEATS):
    """Median wall-clock of ``run`` plus its (stable) return value."""
    times, value = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        value = run()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2], value


def _cluster_stage(domain, examples):
    """The fine-clustering pipeline stage, bitset vs legacy.

    ``fine_cluster`` is where the document-blueprint distances are
    actually demanded: the bitset arm interns once and runs the
    vectorized placement scan, the legacy arm runs the serial lazy
    ``cache.distance`` loop.  Both arms see documents whose blueprints
    are already memoized (the workload builder computed them), so the
    timing isolates the distance kernel.
    """
    threshold = 0.05  # the pipeline's fine_threshold default

    def bitset_arm():
        cache = _fresh_cache(domain)
        return fine_cluster(domain, examples, threshold, cache=cache), cache

    with _bitset_knob("1"):
        bitset_seconds, (bitset_clusters, _) = _time_arm(bitset_arm)
    with _bitset_knob("0"):
        legacy_seconds, (legacy_clusters, legacy_cache) = _time_arm(
            bitset_arm
        )
    shape = lambda clusters: [  # noqa: E731
        [id(example) for example in cluster] for cluster in clusters
    ]
    assert shape(bitset_clusters) == shape(legacy_clusters), (
        "bitset and legacy fine-cluster placements diverged"
    )
    # Both arms demand the same pair comparisons; the legacy arm's cache
    # counters are the observable count.
    pairs = legacy_cache.hit_counts.get(
        "distance", 0
    ) + legacy_cache.miss_counts.get("distance", 0)
    return _stage_entry(pairs, bitset_seconds, legacy_seconds)


def _landmark_stage(domain, pairs):
    """The merge-loop prefill pair list, bitset vs legacy.

    The bitset arm is the production prefill (intern once, one vectorized
    pass, seed the cache); the legacy arm is the serial demand loop the
    merge rounds would run without it — ``REPRO_BITSET=0`` with one
    worker makes ``prefill_pairwise_distances`` a no-op by design.
    """

    def bitset_arm():
        cache = _fresh_cache(domain)
        prefill_pairwise_distances(domain, pairs, cache)
        return cache

    def legacy_arm():
        cache = _fresh_cache(domain)
        for bp_a, bp_b in pairs:
            cache.distance(bp_a, bp_b)
        return cache

    with _bitset_knob("1"):
        bitset_seconds, bitset_cache = _time_arm(bitset_arm)
    with _bitset_knob("0"):
        legacy_seconds, legacy_cache = _time_arm(legacy_arm)
    # Verification happens outside the timed region: the lookup loop
    # costs about as much as the bitset arm itself.
    for bp_a, bp_b in pairs:
        assert bitset_cache.distance(bp_a, bp_b) == legacy_cache.distance(
            bp_a, bp_b
        ), "bitset and legacy prefill distances diverged"
    return _stage_entry(len(pairs), bitset_seconds, legacy_seconds)


def _stage_entry(pairs: int, bitset_seconds: float, legacy_seconds: float):
    return {
        "pairs": pairs,
        "bitset_seconds": round(bitset_seconds, 4),
        "legacy_seconds": round(legacy_seconds, 4),
        "bitset_pairs_per_sec": round(pairs / bitset_seconds),
        "legacy_pairs_per_sec": round(pairs / legacy_seconds),
        "speedup": round(legacy_seconds / bitset_seconds, 2),
    }


def run_benchmark() -> dict:
    domain, examples, pool = _workload()
    pairs = _prefill_pairs(pool)
    report = {
        "scale": float(scale()),
        "documents": len(examples),
        "distinct_blueprints": len(pool),
        "numpy_packed_kernel": bitset._HAVE_PACKED,
        "repeats": REPEATS,
        "stages": {
            "cluster": _cluster_stage(domain, examples),
            "landmark": _landmark_stage(domain, pairs),
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    RESULT_FILE.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return report


def test_bitset_kernel_faster_and_identical():
    """CI gate: identical distances (asserted inside) and a real speedup.

    The committed JSON records the full ≥5× margins measured at
    ``REPRO_SCALE=0.15``; the live gate only requires the bitset arm to
    win, so shared CI runners with noisy clocks don't flake the leg.
    """
    report = run_benchmark()
    for stage, entry in report["stages"].items():
        assert entry["speedup"] > 1.0, (
            f"{stage}: bitset kernel not faster ({entry})"
        )


if __name__ == "__main__":
    run_benchmark()

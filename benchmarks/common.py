"""Shared infrastructure for the benchmark suite.

Each ``bench_*`` module regenerates one table or analysis of the paper's
evaluation (see DESIGN.md §4).  Experiments are cached per pytest session so
Table 1 and Table 2 (which share the M2H experiment) compute it once, and
every rendered table is both printed and written to ``benchmarks/results/``.

Every experiment run is timed under an isolated
:class:`repro.core.caching.StageTimer` and appended to
``benchmarks/results/BENCH_synthesis_speed.json`` — a trajectory of
per-stage wall-clock (cluster, landmark, region-synth, value-synth, score)
plus cache hit/miss counters, so future optimization PRs can prove their
speedups against the recorded history.  ``REPRO_SCALE``, ``REPRO_JOBS``,
``REPRO_SHARD`` and ``REPRO_CACHE`` (see :mod:`repro.harness.runner`) are
recorded with each entry.
"""

from __future__ import annotations

import functools
import os
import pathlib
import subprocess
import sys
import time

from repro.core.caching import StageTimer, cache_enabled, use_timer
from repro.store import store_enabled
from repro.harness.sharding import env_shard
from repro.harness.ablations import run_ablations_experiment
from repro.harness.images import (
    AfrMethod,
    LrsynImageMethod,
    run_finance_experiment,
    run_m2h_images_experiment,
)
from repro.harness.reporting import record_synthesis_speed, timings_table
from repro.harness.runner import (
    ForgivingXPathsMethod,
    LrsynHtmlMethod,
    NdsynMethod,
    flush_corpus_store,
    jobs,
    run_m2h_experiment,
    run_m2h_robustness_experiment,
    scale,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SPEED_TRAJECTORY = RESULTS_DIR / "BENCH_synthesis_speed.json"

HTML_METHODS = ("ForgivingXPaths", "NDSyn", "LRSyn")
IMAGE_METHODS = ("AFR", "LRSyn")


def run_shard_subprocess(
    experiment: str,
    shard: str,
    seed: int,
    scale: str,
    out: pathlib.Path,
    hash_seed: int | None = None,
    extra_env: dict[str, str] | None = None,
) -> None:
    """Run one ``repro-shard run`` in a child process (CI gate scripts).

    Shared by ``shard_equivalence_check`` (which pins a distinct
    ``PYTHONHASHSEED`` per arm to emulate separate machines),
    ``shard_prewarm_check`` (which inherits the ambient one) and
    ``forge_smoke_check`` (which sets its forge knobs via
    ``extra_env``).  Every arm is a round-robin ``repro-shard run``.
    """
    env = {**os.environ, "REPRO_SCALE": scale, **(extra_env or {})}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    subprocess.run(
        [
            sys.executable, "-m", "repro.harness.sharding", "run",
            "--experiment", experiment, "--shard", shard,
            "--seed", str(seed), "--out", str(out),
        ],
        env=env,
        check=True,
        cwd=REPO_ROOT,
    )


def emit(name: str, text: str) -> None:
    """Print a rendered table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


def timed_experiment(name: str, experiment, *args, **kwargs):
    """Run ``experiment`` under an isolated timer and record its trajectory."""
    timer = StageTimer()
    start = time.perf_counter()
    with use_timer(timer):
        results = experiment(*args, **kwargs)
    wall = time.perf_counter() - start
    # Flush the store (corpora included) after the timer stops, so the
    # next process starts warm without the serialization cost landing
    # on this run's wall-clock.
    flush_corpus_store()
    snapshot = timer.snapshot()
    context = dict(
        scale=scale(),
        jobs=jobs(),
        # The experiment drivers honour REPRO_SHARD, so a sharded bench
        # run records partial-coverage timings; "0/1" marks a full run.
        # (The table benches assert full-table shapes — run those
        # unsharded; sharded CI coverage goes through `repro-shard`.)
        shard=str(env_shard()),
        cache_enabled=cache_enabled(),
        store_enabled=store_enabled(),
    )
    record_synthesis_speed(SPEED_TRAJECTORY, name, wall, snapshot, **context)
    emit(
        f"timings_{name}",
        timings_table(snapshot, title=f"Stage timings: {name} ({wall:.2f}s)"),
    )
    return results


@functools.lru_cache(maxsize=None)
def m2h_results(seed: int = 0):
    """The M2H HTML experiment shared by Tables 1-2 and the size study."""
    methods = [ForgivingXPathsMethod(), NdsynMethod(), LrsynHtmlMethod()]
    return timed_experiment("m2h", run_m2h_experiment, methods, seed=seed)


@functools.lru_cache(maxsize=None)
def finance_results(seed: int = 0):
    return timed_experiment(
        "finance",
        run_finance_experiment,
        [AfrMethod(), LrsynImageMethod()],
        seed=seed,
    )


@functools.lru_cache(maxsize=None)
def m2h_images_results(seed: int = 0):
    return timed_experiment(
        "m2h_images",
        run_m2h_images_experiment,
        [AfrMethod(), LrsynImageMethod()],
        seed=seed,
    )


@functools.lru_cache(maxsize=None)
def robustness_results(seed: int = 0):
    """The Section 7.4 training-set robustness experiment (seed axis in
    ``FieldResult.setting``), routed through the harness like every
    table experiment — caches, store, ``REPRO_JOBS`` and ``REPRO_SHARD``
    all apply."""
    return timed_experiment(
        "robustness",
        run_m2h_robustness_experiment,
        [LrsynHtmlMethod()],
        seed=seed,
    )


@functools.lru_cache(maxsize=None)
def ablations_results(seed: int = 0):
    """The mechanism ablations (mechanism in ``FieldResult.setting``)."""
    return timed_experiment(
        "ablations", run_ablations_experiment, seed=seed
    )

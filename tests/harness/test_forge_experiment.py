"""End-to-end shard tests for the forge experiments.

``forge_html`` at tiny scale must be byte-identical between an unsharded
``repro-shard run`` and a 2-shard run + merge; a warm-store rerun must skip training (the
``tests/harness/test_bench_experiment_store.py`` pattern); and partials
generated under different ``REPRO_FORGE_DOCS`` knob values must refuse to
merge (the knob changes scores without changing the task graph, so it is
folded into the split digest via ``Experiment.config``).
"""

import pytest

from repro.core.caching import StageTimer, use_timer
from repro.harness import sharding
from repro.harness.forge import run_forge_html_experiment
from repro.harness.runner import flush_corpus_store

from tests.harness.test_bench_experiment_store import (
    assert_identical,
    assert_trained_nothing,
    rotate_shared_store,
)


@pytest.fixture(autouse=True)
def tiny_forge(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FORGE_PROVIDERS", "2")
    monkeypatch.setenv("REPRO_FORGE_DOCS", "24")
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    monkeypatch.setenv("REPRO_STORE", "1")
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_JOBS", "1")
    monkeypatch.delenv("REPRO_SHARD", raising=False)
    yield
    flush_corpus_store()


def scores(partial):
    return sharding.canonical_scores(sharding.flat_results(partial))


class TestShardedForgeRuns:
    def test_two_shard_merge_matches_unsharded(self):
        baseline = sharding.run_shard("forge_html")
        partials = [
            sharding.run_shard("forge_html", f"{index}/2")
            for index in range(2)
        ]
        merged = sharding.merge_partials(partials)
        assert scores(merged) == scores(baseline)
        assert sharding.render_tables(merged) == sharding.render_tables(
            baseline
        )
        assert merged["graph_digest"] == baseline["graph_digest"]

    def test_forge_images_two_shard_merge_matches_unsharded(self):
        baseline = sharding.run_shard("forge_images")
        partials = [
            sharding.run_shard("forge_images", f"{index}/2")
            for index in range(2)
        ]
        merged = sharding.merge_partials(partials)
        assert scores(merged) == scores(baseline)
        assert sharding.render_tables(merged) == sharding.render_tables(
            baseline
        )

    def test_docs_knob_mismatch_refuses_to_merge(self, monkeypatch):
        left = sharding.run_shard("forge_html", "0/2")
        monkeypatch.setenv("REPRO_FORGE_DOCS", "32")
        right = sharding.run_shard("forge_html", "1/2")
        assert left["graph_digest"] != right["graph_digest"]
        with pytest.raises(ValueError, match="incompatible partials"):
            sharding.merge_partials([left, right])


FORGE_TASKS = [
    ("forge000", "OrderId"),
    ("forge000", "Total"),
    ("forge001", "OrderDate"),
]


def _run_forge(seed=0):
    return run_forge_html_experiment(
        train_size=3, test_size=4, seed=seed, tasks=FORGE_TASKS
    )


class TestWarmForgeRun:
    def test_warm_second_run_skips_training(self, tmp_path, monkeypatch):
        cold_timer = StageTimer()
        with use_timer(cold_timer):
            cold = _run_forge()
        flush_corpus_store()
        assert cold_timer.counters.get("store.program.miss", 0) > 0

        rotate_shared_store(
            monkeypatch, tmp_path, tmp_path / "store"
        )

        warm_timer = StageTimer()
        with use_timer(warm_timer):
            warm = _run_forge()
        assert_identical(cold, warm)
        # Two methods (NDSyn, LRSyn) per task, all served from the store.
        assert warm_timer.counters.get("store.program.hit", 0) == 2 * len(
            FORGE_TASKS
        )
        assert_trained_nothing(warm_timer)

    def test_cache_disabled_bypasses_store(self, monkeypatch):
        baseline = _run_forge()
        flush_corpus_store()
        monkeypatch.setenv("REPRO_CACHE", "0")
        timer = StageTimer()
        with use_timer(timer):
            uncached = _run_forge()
        assert_identical(baseline, uncached)
        assert timer.counters.get("store.program.hit", 0) == 0

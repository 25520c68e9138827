"""Parallel experiment runner: REPRO_JOBS fan-out must not change results."""

import math
from collections import Counter

import pytest

from repro.core.caching import StageTimer, use_timer
from repro.datasets import m2h
from repro.datasets.base import SETTINGS
from repro.harness import runner, sharding
from repro.harness.images import (
    AfrMethod,
    LrsynImageMethod,
    run_finance_experiment,
)
from repro.harness.runner import (
    FieldResult,
    LrsynHtmlMethod,
    NdsynMethod,
    _transportable,
    flush_corpus_store,
    jobs,
    run_m2h_experiment,
)


def result_keys(results):
    """The observable outcome of a run: ordering plus per-field scores."""
    return [
        (r.method, r.provider, r.field, r.setting,
         r.f1, r.precision, r.recall)
        for r in results
    ]


def assert_identical(serial, parallel):
    assert len(serial) == len(parallel)
    for left, right in zip(result_keys(serial), result_keys(parallel)):
        assert left[:4] == right[:4]
        for a, b in zip(left[4:], right[4:]):
            assert (math.isnan(a) and math.isnan(b)) or a == b


class TestJobsKnob:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert jobs() == 1

    def test_env_override_and_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert jobs() == 4
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert jobs() == 1


class TestParallelMatchesSerial:
    def test_m2h_scores_identical(self, monkeypatch):
        methods = [NdsynMethod(), LrsynHtmlMethod()]
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = run_m2h_experiment(
            methods, providers=["delta"], train_size=4, test_size=5
        )
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = run_m2h_experiment(
            methods, providers=["delta"], train_size=4, test_size=5
        )
        assert_identical(serial, parallel)

    @pytest.mark.slow
    def test_finance_scores_identical(self, monkeypatch):
        methods = [AfrMethod(), LrsynImageMethod()]
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = run_finance_experiment(
            methods, doc_types=["AccountsInvoice"], train_size=3, test_size=4
        )
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = run_finance_experiment(
            methods, doc_types=["AccountsInvoice"], train_size=3, test_size=4
        )
        assert_identical(serial, parallel)

    @pytest.mark.parametrize("name", sorted(sharding.EXPERIMENTS))
    def test_registry_experiment_identical(self, name, monkeypatch):
        """Every registry driver runs through the one task loop: the pool
        reproduces the in-process scores and times the same tasks."""
        monkeypatch.setenv("REPRO_STORE", "0")
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        monkeypatch.setenv("REPRO_FORGE_PROVIDERS", "2")
        monkeypatch.setenv("REPRO_FORGE_DOCS", "24")
        experiment = sharding.EXPERIMENTS[name]
        tasks = task_subset(experiment.tasks())
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial_scores, serial_tasks = run_registered(experiment, tasks)
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel_scores, parallel_tasks = run_registered(experiment, tasks)
        assert parallel_scores == serial_scores
        assert serial_tasks == parallel_tasks == set(tasks)


def task_subset(graph):
    """The first two tasks (one shared corpus) plus the last (another)."""
    return list(dict.fromkeys(graph[:2] + graph[-1:]))


def run_registered(experiment, tasks):
    """Canonical scores and timed task keys of one registry run."""
    timer = StageTimer()
    with use_timer(timer):
        results = experiment.run(experiment.methods(), tasks, 0)
    return sharding.canonical_scores(results), set(timer.tasks)


class TestHeld:
    def test_each_corpus_generated_once_and_released(
        self, tmp_path, monkeypatch
    ):
        flush_corpus_store()  # flush earlier tests' pending puts
        monkeypatch.setenv("REPRO_STORE", "1")
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_JOBS", "1")
        generated = Counter()
        generate = m2h.generate_corpus

        def counting(provider, **kwargs):
            generated[provider, kwargs["setting"]] += 1
            return generate(provider, **kwargs)

        monkeypatch.setattr(m2h, "generate_corpus", counting)
        providers = ["delta", "getthere"]

        def run(store_dir):
            monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))
            results = run_m2h_experiment(
                [NdsynMethod()], providers=providers,
                train_size=3, test_size=4,
            )
            flush_corpus_store()
            return sharding.canonical_scores(results)

        first = run(tmp_path / "first")
        assert generated == {(p, s): 1 for p in providers for s in SETTINGS}
        assert runner._held == {}
        # A second run in this process builds its corpora again.
        second = run(tmp_path / "second")
        assert generated == {(p, s): 2 for p in providers for s in SETTINGS}
        assert runner._held == {}
        assert second == first


class TestTransportable:
    def test_picklable_extractor_is_kept(self):
        result = FieldResult("m", "p", "f", "s", None, extractor="picklable")
        assert _transportable(result).extractor == "picklable"

    def test_unpicklable_extractor_is_dropped(self):
        unpicklable = lambda doc: None  # noqa: E731 - locals don't pickle
        result = FieldResult("m", "p", "f", "s", None, extractor=unpicklable)
        assert _transportable(result).extractor is None

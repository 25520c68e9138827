"""The collector policy field tasks run under (runner.gc_policy / held)."""

import gc
import weakref

import pytest

from repro.core.caching import StageTimer, use_timer
from repro.datasets.base import CONTEMPORARY
from repro.harness import runner
from repro.harness.runner import (
    GC_THRESHOLDS,
    FieldResult,
    held,
    run_field_tasks,
)


class Node:
    def __init__(self, name):
        self.name = name
        self.parent = self  # a reference cycle, like a parsed DOM node


def load_corpus(name):
    return [Node(f"{name}{i}") for i in range(200)]


def inspecting_task(name):
    """Load through held() and report what the collector looks like.

    The report rides in a FieldResult, the type pool workers ship back.
    """
    corpus = held(load_corpus, name)
    return [FieldResult(
        name, str(len(corpus)), str(gc.get_freeze_count()),
        repr(gc.get_threshold()), None,
    )]


def seen(results):
    return [
        (r.method, int(r.provider), int(r.field), r.setting)
        for r in results
    ]


def collecting_task(name):
    held(load_corpus, name)
    gc.collect()
    return []


def failing_task(name):
    held(load_corpus, name)
    raise RuntimeError(f"task {name} failed")


@pytest.fixture
def default_gc():
    """Start from distinctive thresholds and no frozen objects."""
    previous = gc.get_threshold()
    gc.unfreeze()
    gc.set_threshold(700, 10, 10)
    yield (700, 10, 10)
    gc.set_threshold(*previous)
    gc.unfreeze()


class TestPolicyWindow:
    def test_inside_a_task_the_corpus_is_frozen_and_thresholds_raised(
        self, default_gc, monkeypatch
    ):
        monkeypatch.setenv("REPRO_JOBS", "1")
        report = seen(
            run_field_tasks(inspecting_task, [("a",), ("a",), ("b",)])
        )
        assert [name for name, *_ in report] == ["a", "a", "b"]
        for _, size, frozen, threshold in report:
            assert size == 200
            assert frozen > 0
            assert threshold == repr(GC_THRESHOLDS)

    def test_return_restores_thresholds_and_unfreezes(
        self, default_gc, monkeypatch
    ):
        monkeypatch.setenv("REPRO_JOBS", "1")
        hooks = list(gc.callbacks)
        run_field_tasks(inspecting_task, [("a",), ("b",)])
        assert gc.get_freeze_count() == 0
        assert gc.get_threshold() == default_gc
        assert gc.callbacks == hooks
        assert not runner._held

    def test_raise_restores_thresholds_and_unfreezes(
        self, default_gc, monkeypatch
    ):
        monkeypatch.setenv("REPRO_JOBS", "1")
        hooks = list(gc.callbacks)
        with pytest.raises(RuntimeError, match="task b failed"):
            run_field_tasks(failing_task, [("b",)])
        assert gc.get_freeze_count() == 0
        assert gc.get_threshold() == default_gc
        assert gc.callbacks == hooks
        assert not runner._held

    @pytest.mark.parametrize("store", ["0", "1"])
    def test_held_unfreezes_before_a_load_and_freezes_after(
        self, default_gc, monkeypatch, store
    ):
        monkeypatch.setenv("REPRO_STORE", store)
        calls = []

        class Recorder:
            def freeze(self):
                calls.append("freeze")
                gc.freeze()

            def unfreeze(self):
                calls.append("unfreeze")
                gc.unfreeze()

            def collect(self):
                calls.append("collect")
                return gc.collect()

        def load(name):
            calls.append(f"load {name}")
            return load_corpus(name)

        monkeypatch.setattr(runner, "gc", Recorder())
        held(load, "a")
        held(load, "a")
        held(load, "b")
        runner._drop_held()
        # Without the store each drop also collects the cycles it leaves
        # behind; with the store and REPRO_CACHE on, the cycles wait for
        # the collector's own schedule (see runner._drop_held).
        drop = ["unfreeze", "collect"] if store == "0" else ["unfreeze"]
        assert calls == [
            "unfreeze", "load a", "freeze",
            *drop, "load b", "freeze",
            *drop,
        ]

    def test_switching_collects_the_dropped_corpus_without_a_store(
        self, default_gc, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STORE", "0")
        first = held(load_corpus, "a")[0]
        ref = weakref.ref(first)
        del first
        gc.collect()
        assert ref() is not None  # held, and frozen
        held(load_corpus, "b")
        # Unfrozen and collected at the switch, so the freeze after the
        # load of "b" did not move its cycles into the permanent
        # generation.
        assert ref() is None
        runner._drop_held()
        assert gc.get_freeze_count() == 0


class TestNothingElseHoldsACorpus:
    def test_dropped_corpus_is_collectable_with_the_store_on(
        self, default_gc, monkeypatch, tmp_path
    ):
        """The store keeps programs only: once held() drops a corpus,
        no store table keeps its documents alive."""
        monkeypatch.setenv("REPRO_STORE", "1")
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        corpora = held(runner.m2h_corpora, "getthere", 3, 4, 0)
        ref = weakref.ref(corpora[CONTEMPORARY].test[0].doc)
        del corpora
        runner._drop_held()
        gc.collect()
        assert ref() is None


class TestPauseCounters:
    def test_collections_and_pause_are_counted_into_the_timer(
        self, default_gc, monkeypatch
    ):
        monkeypatch.setenv("REPRO_JOBS", "1")
        timer = StageTimer()
        with use_timer(timer):
            run_field_tasks(collecting_task, [("a",), ("b",)])
        assert timer.counters["gc.gen2.collections"] >= 2
        assert timer.counters["gc.pause_us"] > 0

    def test_nothing_is_counted_outside_field_tasks(self, default_gc):
        timer = StageTimer()
        with use_timer(timer):
            gc.collect()
        assert not any(name.startswith("gc.") for name in timer.counters)


class TestPoolWorkers:
    def test_workers_run_under_the_same_policy(self, default_gc, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        timer = StageTimer()
        with use_timer(timer):
            report = seen(run_field_tasks(inspecting_task, [("a",), ("b",)]))
            run_field_tasks(collecting_task, [("a",), ("b",)])
        assert [name for name, *_ in report] == ["a", "b"]
        for _, _, frozen, threshold in report:
            assert frozen > 0
            assert threshold == repr(GC_THRESHOLDS)
        # Worker snapshots carry their GC counters back to the parent.
        assert timer.counters["gc.gen2.collections"] >= 2
        assert gc.get_freeze_count() == 0
        assert gc.get_threshold() == default_gc

"""The collector policy field tasks run under (runner.gc_policy / held),
and the release of each corpus that held() drops."""

import gc
import pickle
import weakref

import pytest

from repro.core.caching import StageTimer, use_timer
from repro.datasets.base import CONTEMPORARY, LONGITUDINAL, release_corpora
from repro.harness import runner
from repro.harness.forge import forge_corpora
from repro.harness.images import image_corpus
from repro.harness.runner import (
    GC_THRESHOLDS,
    FieldResult,
    held,
    run_field_tasks,
)
from repro.html.dom import DomNode, HtmlDocument


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
            """Stands in for the gc module: a collect() call fails."""

            def freeze(self):
                calls.append("freeze")
                gc.freeze()

            def unfreeze(self):
                calls.append("unfreeze")
                gc.unfreeze()

        def load(name):
            calls.append(f"load {name}")
            return load_corpus(name)

        monkeypatch.setattr(runner, "gc", Recorder())
        held(load, "a")
        held(load, "a")
        held(load, "b")
        runner._drop_held()
        # The same sequence with the store on or off, and no collection.
        assert calls == [
            "unfreeze", "load a", "freeze",
            "unfreeze", "load b", "freeze",
            "unfreeze",
        ]


@pytest.fixture
def no_collector(default_gc):
    """Only reference counting frees anything while the test runs."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()
    runner._drop_held()


def html_documents(corpora):
    return [
        labeled.doc
        for corpus in corpora.values()
        for labeled in corpus.train + corpus.test
    ]


def unreachable_dom_nodes():
    """How many DOM nodes only the cyclic collector could free.

    A dropped document dies with its last reference whatever its tree
    holds (nothing in the tree refers back to it), so its weakref alone
    does not show that the tree was freed too.
    """
    gc.unfreeze()  # held() froze everything alive, garbage included
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sum(isinstance(obj, DomNode) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


class TestReleaseAtTheSwitch:
    """held() releases a dropped corpus, so it is freed at the switch
    without the collector, whatever the store knob says."""

    @pytest.mark.parametrize("store", ["0", "1"])
    def test_switching_frees_the_dropped_corpus(
        self, no_collector, monkeypatch, tmp_path, store
    ):
        monkeypatch.setenv("REPRO_STORE", store)
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        corpora = held(runner.m2h_corpora, "getthere", 3, 4, 0)
        # The longitudinal corpus shares the contemporary training list.
        assert corpora[LONGITUDINAL].train is corpora[CONTEMPORARY].train
        refs = [weakref.ref(doc) for doc in html_documents(corpora)]
        del corpora
        assert all(ref() is not None for ref in refs)  # held
        held(runner.m2h_corpora, "delta", 3, 4, 0)
        assert all(ref() is None for ref in refs)
        assert unreachable_dom_nodes() == 0

    def test_switching_frees_a_dropped_forge_corpus(self, no_collector):
        corpora = held(forge_corpora, "forge000", 3, 4, 0)
        refs = [weakref.ref(doc) for doc in html_documents(corpora)]
        del corpora
        held(forge_corpora, "forge001", 3, 4, 0)
        assert all(ref() is None for ref in refs)
        assert unreachable_dom_nodes() == 0

    def test_a_shared_training_list_is_released_once(self, monkeypatch):
        corpora = runner.m2h_corpora("getthere", 3, 4, 0)
        released = []
        monkeypatch.setattr(
            HtmlDocument, "release", lambda doc: released.append(id(doc))
        )
        release_corpora(corpora.values())
        documents = {id(doc) for doc in html_documents(corpora)}
        assert sorted(released) == sorted(documents)

    def test_releasing_an_image_corpus_does_nothing(self):
        corpus = image_corpus("finance", "CashInvoice", 3, 4, 0)
        before = pickle.dumps(corpus)
        release_corpora([corpus])
        assert pickle.dumps(corpus) == before


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

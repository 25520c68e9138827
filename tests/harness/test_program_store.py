"""Persistent program/corpus store: warm runs must be score-identical."""

import math

from repro.core.caching import StageTimer, use_timer
from repro.store import BlueprintStore, shared_store
from repro.harness.runner import (
    LrsynHtmlMethod,
    NdsynMethod,
    flush_corpus_store,
    run_m2h_experiment,
)


def result_keys(results):
    return [
        (r.method, r.provider, r.field, r.setting,
         r.f1, r.precision, r.recall)
        for r in results
    ]


def assert_identical(first, second):
    assert len(first) == len(second)
    for left, right in zip(result_keys(first), result_keys(second)):
        assert left[:4] == right[:4]
        for a, b in zip(left[4:], right[4:]):
            assert (math.isnan(a) and math.isnan(b)) or a == b


class TestWarmRunsIdentical:
    def test_program_and_corpus_store_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "1")
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_JOBS", "1")
        methods = [NdsynMethod(), LrsynHtmlMethod()]

        cold_timer = StageTimer()
        with use_timer(cold_timer):
            cold = run_m2h_experiment(
                methods, providers=["getthere"], train_size=4, test_size=6
            )
        flush_corpus_store()
        assert cold_timer.counters.get("store.program.miss", 0) > 0

        # Second run: same process, but every lrsyn/NDSyn training request
        # must be served from the persistent program store, and the corpus
        # from the corpus store — with byte-identical scores.
        warm_timer = StageTimer()
        with use_timer(warm_timer):
            warm = run_m2h_experiment(
                methods, providers=["getthere"], train_size=4, test_size=6
            )
        assert_identical(cold, warm)
        assert warm_timer.counters.get("store.program.hit", 0) > 0
        assert warm_timer.counters.get("store.program.miss", 0) == 0
        assert warm_timer.counters.get("store.corpus.hit", 0) > 0

    def test_cross_store_instance_round_trip(self, tmp_path, monkeypatch):
        """A fresh shared-store instance (new dir ⇒ new config) stays
        correct: stored programs extract like freshly trained ones."""
        monkeypatch.setenv("REPRO_STORE", "1")
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "s2"))
        methods = [LrsynHtmlMethod()]
        first = run_m2h_experiment(
            methods, providers=["delta"], train_size=4, test_size=5
        )
        shared_store().flush()
        second = run_m2h_experiment(
            methods, providers=["delta"], train_size=4, test_size=5
        )
        assert_identical(first, second)

    def test_store_disabled_is_equivalent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "1")
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "s3"))
        methods = [NdsynMethod(), LrsynHtmlMethod()]
        stored = run_m2h_experiment(
            methods, providers=["getthere"], train_size=4, test_size=6
        )
        flush_corpus_store()
        warm = run_m2h_experiment(
            methods, providers=["getthere"], train_size=4, test_size=6
        )
        monkeypatch.setenv("REPRO_STORE", "0")
        monkeypatch.setenv("REPRO_CACHE", "0")
        uncached = run_m2h_experiment(
            methods, providers=["getthere"], train_size=4, test_size=6
        )
        assert_identical(stored, warm)
        assert_identical(stored, uncached)


def landmark_rows(store_dir):
    store = BlueprintStore(directory=store_dir, enabled=True)
    rows = dict(store._hydrate("landmark"))
    store.close()
    return rows


class TestWarmRetrain:
    def test_retraining_on_stored_corpora_matches_cold(
        self, tmp_path, monkeypatch
    ):
        """A warm run that must retrain scores landmarks on unpickled
        documents exactly as the cold run did on the live ones."""
        flush_corpus_store()  # drain earlier tests' write-behind queue
        store_dir = tmp_path / "store"
        monkeypatch.setenv("REPRO_STORE", "1")
        monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_JOBS", "1")
        methods = [LrsynHtmlMethod()]

        def run():
            return run_m2h_experiment(
                methods, providers=["delta"], train_size=4, test_size=6
            )

        cold = run()
        flush_corpus_store()
        cold_landmarks = landmark_rows(store_dir)
        assert cold_landmarks

        store = BlueprintStore(directory=store_dir, enabled=True)
        with store._connect() as db:
            db.execute(
                "DELETE FROM entries WHERE kind IN ('program', 'landmark')"
            )
        store.close()
        # A fresh store front: the rerun reads everything from sqlite.
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "rotate"))
        shared_store()
        monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))

        written = []
        put = BlueprintStore.put

        def recording_put(self, kind, *args, **kwargs):
            written.append(kind)
            return put(self, kind, *args, **kwargs)

        monkeypatch.setattr(BlueprintStore, "put", recording_put)
        warm_timer = StageTimer()
        with use_timer(warm_timer):
            warm = run()
        flush_corpus_store()
        assert warm_timer.counters.get("store.corpus.hit", 0) > 0
        assert warm_timer.counters.get("store.program.miss", 0) > 0
        assert warm_timer.counters.get("store.landmark.miss", 0) > 0
        assert "corpus" not in written
        assert_identical(cold, warm)
        assert landmark_rows(store_dir) == cold_landmarks

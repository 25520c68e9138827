"""Generation-aware GC: stale generations, corpus liveness, acceptance."""

import math

import pytest

import repro.store as store_mod
from repro.store import BlueprintStore, default_generation, entry_key
from repro.store.gc import plan_gc, run_gc


def make_store(tmp_path):
    return BlueprintStore(directory=tmp_path / "store", enabled=True)


def corpus_gen():
    from repro.harness.runner import corpus_store_generation

    return corpus_store_generation()


def put_corpus(store, key, payload="corpus-data"):
    store.put(
        "corpus", key, "corpus", [payload] * 20, eager=True,
        generation=corpus_gen(),
    )


def put_ref(store, corpus_key):
    store.put(
        "corpus_ref",
        entry_key("ds", "corpus_ref", corpus_key),
        "ds",
        corpus_key,
        generation=corpus_gen(),
    )


class TestStalePass:
    def test_stale_generations_dropped_current_kept(self, tmp_path):
        store = make_store(tmp_path)
        store.put("dist", "old", "html", 1.0, generation="algo=1")
        store.put("dist", "new", "html", 2.0)
        report = run_gc(store)
        assert report["stale"]["entries"] == 1
        assert report["deleted_entries"] == 1
        assert store.get("dist", "old") is BlueprintStore.MISS
        assert store.get("dist", "new") == 2.0

    def test_unknown_generation_counts_as_stale(self, tmp_path):
        """Rows migrated from pre-v4 schemas carry '' = unknown."""
        store = make_store(tmp_path)
        store.put("dist", "mystery", "html", 1.0, generation="")
        report = run_gc(store)
        assert report["stale"]["entries"] == 1
        assert report["stale"]["by_kind"] == {"html/dist": 1}

    def test_dry_run_deletes_nothing(self, tmp_path):
        store = make_store(tmp_path)
        store.put("dist", "old", "html", 1.0, generation="algo=1")
        report = run_gc(store, dry_run=True)
        assert report["dry_run"]
        assert report["stale"]["entries"] == 1
        assert report["deleted_entries"] == 0
        assert store.get("dist", "old") == 1.0

    def test_gc_never_touches_current_generation_non_corpus(self, tmp_path):
        store = make_store(tmp_path)
        for kind in ("doc_bp", "roi_bp", "dist", "landmark", "program",
                     "timing"):
            store.put(kind, f"{kind}-key", "html", 0.5)
        report = run_gc(store)
        assert report["deleted_entries"] == 0
        assert store.stats()["entries"] == 6


class TestCorpusLiveness:
    def test_unreferenced_corpus_dropped_referenced_kept(self, tmp_path):
        store = make_store(tmp_path)
        put_corpus(store, "live")
        put_corpus(store, "dead")
        put_ref(store, "live")
        report = run_gc(store)
        assert report["unreferenced_corpora"]["entries"] == 1
        assert store.get("corpus", "live") is not BlueprintStore.MISS
        assert store.get("corpus", "dead") is BlueprintStore.MISS

    def test_dangling_refs_removed(self, tmp_path):
        store = make_store(tmp_path)
        put_corpus(store, "live")
        put_ref(store, "live")
        put_ref(store, "vanished")
        report = run_gc(store)
        assert report["dangling_refs"]["entries"] == 1
        assert report["unreferenced_corpora"]["entries"] == 0
        assert store.get("corpus", "live") is not BlueprintStore.MISS

    def test_refless_store_skips_the_liveness_pass(self, tmp_path):
        """A store with corpora but zero refs was not populated through
        the harness: treat liveness as unknowable, delete nothing."""
        store = make_store(tmp_path)
        put_corpus(store, "handmade")
        report = run_gc(store)
        assert report["skipped_unreferenced_pass"]
        assert report["deleted_entries"] == 0
        assert store.get("corpus", "handmade") is not BlueprintStore.MISS

    def test_cached_corpora_writes_ref_markers(self, tmp_path, monkeypatch):
        """The harness choke point records liveness as it runs."""
        from repro.harness.runner import cached_corpora, flush_corpus_store

        # Drain corpora queued by earlier tests into *their* store before
        # re-pointing the store directory.
        flush_corpus_store()
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "hstore"))
        cached_corpora("m2h", lambda: ["corpus"], provider="p", seed=1)
        flush_corpus_store()
        from repro.store import shared_store

        stats = shared_store().stats()
        assert "m2h/corpus_ref" in stats["by_kind"]
        assert "corpus/corpus" in stats["by_kind"]
        # And the GC therefore keeps the corpus.
        report = run_gc(shared_store())
        assert report["deleted_entries"] == 0


class TestAlgoBumpAcceptance:
    def test_gc_after_bump_shrinks_store_and_warm_run_is_identical(
        self, tmp_path, monkeypatch
    ):
        """The ISSUE's acceptance bar: after a BLUEPRINT_ALGO_VERSION
        bump, `repro-store gc` shrinks the on-disk store, and a
        subsequent warm run is score-identical."""
        from repro.store import shared_store
        from repro.harness.runner import (
            LrsynHtmlMethod,
            flush_corpus_store,
            run_m2h_experiment,
        )

        def rotate(primary):
            monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "other"))
            shared_store()
            monkeypatch.setenv("REPRO_STORE_DIR", str(primary))
            return shared_store()

        flush_corpus_store()  # drain earlier tests' write-behind queue
        store_dir = tmp_path / "gcstore"
        monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))
        monkeypatch.setenv("REPRO_JOBS", "1")
        methods = [LrsynHtmlMethod()]
        run = lambda: run_m2h_experiment(
            methods, providers=["getthere"], train_size=4, test_size=6
        )
        run()
        flush_corpus_store()
        shared_store().flush()

        # The algorithm changes: every v(N) entry is now dead weight.
        monkeypatch.setattr(
            store_mod,
            "BLUEPRINT_ALGO_VERSION",
            store_mod.BLUEPRINT_ALGO_VERSION + 1,
        )
        rotate(store_dir)
        bumped = run()
        flush_corpus_store()
        shared_store().flush()

        db_path = store_dir / "blueprints.sqlite"
        gc_store = BlueprintStore(directory=store_dir, enabled=True)
        before_entries = gc_store.stats()["entries"]
        before_bytes = db_path.stat().st_size
        report = run_gc(gc_store)
        assert report["stale"]["entries"] > 0
        assert report["deleted_entries"] == report["stale"]["entries"]
        after = gc_store.stats()
        gc_store.close()
        assert after["entries"] < before_entries
        assert db_path.stat().st_size < before_bytes
        # Only the current (bumped) generation remains.
        for detail in after["by_kind"].values():
            assert set(detail["generations"]) == {
                gen for gen in detail["generations"]
                if f"algo={store_mod.BLUEPRINT_ALGO_VERSION}" in gen
            }

        # A warm run over the collected store is score-identical.
        rotate(store_dir)
        warm = run()
        assert len(bumped) == len(warm)
        for left, right in zip(bumped, warm):
            for a, b in (
                (left.f1, right.f1),
                (left.precision, right.precision),
                (left.recall, right.recall),
            ):
                assert (math.isnan(a) and math.isnan(b)) or a == b


class TestPlanReport:
    def test_plan_reports_without_mutating(self, tmp_path):
        store = make_store(tmp_path)
        store.put("dist", "old", "html", 1.0, generation="algo=1")
        put_corpus(store, "dead")
        put_ref(store, "missing")
        report = plan_gc(store)
        assert report["scanned"] == 3
        assert report["stale"]["entries"] == 1
        assert report["dangling_refs"]["entries"] == 1
        assert report["unreferenced_corpora"]["entries"] == 1
        assert sorted(report["doomed_keys"])
        assert store.stats()["entries"] == 3

"""Generation-aware GC: retired kinds, stale generations, acceptance."""

import math
import pickle
import sqlite3
import zlib

import repro.store as store_mod
from repro.store import BlueprintStore, entry_key
from repro.store.cli import main as store_cli
from repro.store.gc import RETIRED_KINDS, plan_gc, run_gc


def make_store(tmp_path):
    return BlueprintStore(directory=tmp_path / "store", enabled=True)


class TestStalePass:
    def test_stale_generations_dropped_current_kept(self, tmp_path):
        store = make_store(tmp_path)
        store.put("program", "old", "html", 1.0, generation="algo=1")
        store.put("program", "new", "html", 2.0)
        report = run_gc(store)
        assert report["stale"]["entries"] == 1
        assert report["deleted_entries"] == 1
        assert store.get("program", "old") is BlueprintStore.MISS
        assert store.get("program", "new") == 2.0

    def test_unknown_generation_counts_as_stale(self, tmp_path):
        """Rows migrated from pre-v4 schemas carry '' = unknown."""
        store = make_store(tmp_path)
        store.put("program", "mystery", "html", 1.0, generation="")
        report = run_gc(store)
        assert report["stale"]["entries"] == 1
        assert report["stale"]["by_kind"] == {"html/program": 1}

    def test_dry_run_deletes_nothing(self, tmp_path):
        store = make_store(tmp_path)
        store.put("program", "old", "html", 1.0, generation="algo=1")
        report = run_gc(store, dry_run=True)
        assert report["dry_run"]
        assert report["stale"]["entries"] == 1
        assert report["deleted_entries"] == 0
        assert store.get("program", "old") == 1.0

    def test_gc_never_touches_current_generation_non_corpus(self, tmp_path):
        store = make_store(tmp_path)
        for kind in ("program", "serving", "dropped_program", "timing"):
            store.put(kind, f"{kind}-key", "html", 0.5)
        report = run_gc(store)
        assert report["deleted_entries"] == 0
        assert store.stats()["entries"] == 4


class TestRetiredKinds:
    RETIRED = tuple(sorted(RETIRED_KINDS))

    def test_retired_kinds_dropped_live_kinds_kept(self, tmp_path):
        store = make_store(tmp_path)
        for kind in self.RETIRED:
            store.put(kind, f"{kind}-current", "html", 0.5)
            store.put(kind, f"{kind}-old", "html", 0.5, generation="algo=1")
        store.put("program", "prog", "html", "extractor")
        store.put("serving", "catalog", "html", {"programs": []})
        report = run_gc(store)
        retired = 2 * len(self.RETIRED)
        assert report["retired"]["entries"] == retired
        assert report["retired"]["by_kind"] == {
            f"html/{kind}": 2 for kind in self.RETIRED
        }
        assert report["stale"]["entries"] == 0
        assert report["deleted_entries"] == retired
        kinds = {
            bucket.split("/", 1)[1] for bucket in store.stats()["by_kind"]
        }
        assert kinds == {"program", "serving"}
        assert store.stats()["entries"] == 2
        assert store.get("program", "prog") == "extractor"

    def test_warm_run_over_a_collected_store_is_identical(
        self, tmp_path, monkeypatch
    ):
        """A store an older version filled with blueprint rows loses
        them to gc, and the warm run over what is left is served its
        programs and scores identically."""
        from repro.core.caching import StageTimer, use_timer
        from repro.store import shared_store
        from repro.harness.runner import (
            LrsynHtmlMethod,
            flush_corpus_store,
            run_m2h_experiment,
        )

        flush_corpus_store()  # flush earlier tests' pending puts
        store_dir = tmp_path / "retired"
        monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))
        monkeypatch.setenv("REPRO_JOBS", "1")
        methods = [LrsynHtmlMethod()]
        run = lambda: run_m2h_experiment(
            methods, providers=["getthere"], train_size=4, test_size=6
        )
        cold = run()
        store = shared_store()
        for index, kind in enumerate(self.RETIRED * 5):
            store.put(kind, f"{kind}{index}", "html", frozenset({index}))
        store.flush()
        retired = 5 * len(self.RETIRED)
        live = store.stats()["entries"] - retired

        gc_store = BlueprintStore(directory=store_dir, enabled=True)
        report = run_gc(gc_store)
        after = gc_store.stats()
        gc_store.close()
        assert report["retired"]["entries"] == retired
        assert report["deleted_entries"] == retired
        assert after["entries"] == live
        assert not any(
            bucket.split("/", 1)[1] in self.RETIRED
            for bucket in after["by_kind"]
        )

        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "other"))
        shared_store()
        monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))
        timer = StageTimer()
        with use_timer(timer):
            warm = run()
        assert timer.counters.get("store.program.miss", 0) == 0
        assert len(cold) == len(warm)
        for left, right in zip(cold, warm):
            assert (left.method, left.field, left.setting) == (
                right.method, right.field, right.setting
            )
            for a, b in (
                (left.f1, right.f1),
                (left.precision, right.precision),
                (left.recall, right.recall),
            ):
                assert (math.isnan(a) and math.isnan(b)) or a == b


class TestParentStore:
    """A store written before corpora left the store opens and is
    cleaned: its rows are shaped exactly as that code wrote them."""

    GENERATION = f"algo={store_mod.BLUEPRINT_ALGO_VERSION}"
    CORPUS_GENERATION = f"{GENERATION}|corpus=3"

    def seed(self, directory):
        directory.mkdir(parents=True)
        conn = sqlite3.connect(directory / "blueprints.sqlite")
        conn.execute(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        conn.execute("INSERT INTO meta VALUES ('schema_version', '4')")
        conn.execute(
            "CREATE TABLE entries (key TEXT PRIMARY KEY,"
            " kind TEXT NOT NULL, substrate TEXT NOT NULL,"
            " value BLOB NOT NULL, created REAL NOT NULL,"
            " last_used REAL NOT NULL, size INTEGER NOT NULL,"
            " codec TEXT NOT NULL DEFAULT 'raw',"
            " generation TEXT NOT NULL DEFAULT '')"
        )
        corpus_key = entry_key("m2h", "corpus", "gen=3", "provider=delta")
        program_key = entry_key("html", "program", "LRSyn", "fp")
        corpus = zlib.compress(pickle.dumps({"train": ["<p>x</p>"] * 40}), 6)
        rows = [
            (corpus_key, "corpus", "corpus", corpus, "zlib",
             self.CORPUS_GENERATION),
            (entry_key("m2h", "corpus_ref", corpus_key), "corpus_ref", "m2h",
             pickle.dumps(corpus_key), "raw", self.CORPUS_GENERATION),
            (program_key, "program", "html", pickle.dumps("extractor"),
             "raw", self.GENERATION),
        ]
        conn.executemany(
            "INSERT INTO entries VALUES (?, ?, ?, ?, 0, 0, ?, ?, ?)",
            [(key, kind, substrate, blob, len(blob), codec, generation)
             for key, kind, substrate, blob, codec, generation in rows],
        )
        conn.commit()
        conn.close()
        return corpus_key, program_key

    def test_opens_serves_programs_and_gc_drops_corpus_rows(
        self, tmp_path, capsys
    ):
        directory = tmp_path / "parent"
        corpus_key, program_key = self.seed(directory)
        store = BlueprintStore(directory=directory, enabled=True)
        assert store.get("program", program_key) == "extractor"
        assert store.get("corpus", corpus_key) is BlueprintStore.MISS
        store.close()

        assert store_cli(["--dir", str(directory), "gc"]) == 0
        assert "retired kinds: 2 entries" in capsys.readouterr().out
        store = BlueprintStore(directory=directory, enabled=True)
        assert set(store.stats()["by_kind"]) == {"html/program"}
        assert store.get("program", program_key) == "extractor"
        store.close()


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

        flush_corpus_store()  # flush earlier tests' pending puts
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

        gc_store = BlueprintStore(directory=store_dir, enabled=True)
        before = gc_store.stats()
        report = run_gc(gc_store)
        assert report["stale"]["entries"] > 0
        assert report["deleted_entries"] == report["stale"]["entries"]
        after = gc_store.stats()
        gc_store.close()
        assert after["entries"] < before["entries"]
        # The whole on-disk footprint: the main file and its WAL.
        assert after["bytes"] < before["bytes"]
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
        store.put("program", "old", "html", 1.0, generation="algo=1")
        store.put("corpus", "dead", "corpus", ["corpus-data"] * 20)
        store.put("corpus_ref", "missing", "ds", "dead")
        report = plan_gc(store)
        assert report["scanned"] == 3
        assert report["stale"]["entries"] == 1
        assert report["retired"]["by_kind"] == {
            "corpus/corpus": 1, "ds/corpus_ref": 1,
        }
        assert sorted(report["doomed_keys"]) == ["dead", "missing", "old"]
        assert store.stats()["entries"] == 3

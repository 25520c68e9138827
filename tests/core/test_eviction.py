"""Store size budgeting and LRU eviction (REPRO_STORE_MAX_MB).

The contract under test: the store never exceeds its budget after a
flush/evict, eviction order is least-recently-used, an entry touched by
the current process is *never* evicted (the running experiment's working
set survives its own eviction pass), and eviction only ever costs
recomputation — warm-run scores are unchanged.
"""

import math
import time

import pytest

import repro.store as store_mod
from repro.store import BlueprintStore, store_budget_bytes


def make_store(tmp_path):
    return BlueprintStore(directory=tmp_path / "store", enabled=True)


def fill(store, keys, size=2048, kind="dist"):
    """Insert payloads of roughly ``size`` bytes, oldest first."""
    for key in keys:
        store.put(kind, key, "html", "x" * size)
        store.flush()
        time.sleep(0.01)  # distinct last_used stamps


class TestBudgetKnob:
    def test_unset_means_unlimited(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_MAX_MB", raising=False)
        assert store_budget_bytes() is None

    def test_megabytes(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_MAX_MB", "8")
        assert store_budget_bytes() == 8 * 1024 * 1024
        monkeypatch.setenv("REPRO_STORE_MAX_MB", "0.5")
        assert store_budget_bytes() == 512 * 1024

    def test_non_positive_means_unlimited(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_MAX_MB", "0")
        assert store_budget_bytes() is None
        monkeypatch.setenv("REPRO_STORE_MAX_MB", "-3")
        assert store_budget_bytes() is None

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_MAX_MB", "lots")
        with pytest.raises(ValueError):
            store_budget_bytes()


class TestLruOrder:
    def test_evicts_least_recently_used_first(self, tmp_path):
        size = 50_000
        writer = make_store(tmp_path)
        fill(writer, ["a", "b", "c"], size=size)
        writer.close()

        # A fresh instance (fresh touched set) reads only "a", promoting
        # it to most-recently-used.
        reader = make_store(tmp_path)
        assert reader.get("dist", "a") == "x" * size
        reader.flush()
        reader.close()

        # Budget for two entries plus sqlite overhead: "b" (now the
        # oldest untouched) must go first.
        evictor = make_store(tmp_path)
        entries, nbytes = evictor.evict(max_bytes=int(2.4 * size))
        assert entries == 1
        assert nbytes >= size
        evictor.close()
        survivor = make_store(tmp_path)
        assert survivor.get("dist", "b") is BlueprintStore.MISS
        assert survivor.get("dist", "a") == "x" * size
        assert survivor.get("dist", "c") == "x" * size

    def test_current_run_entries_never_evicted(self, tmp_path):
        store = make_store(tmp_path)
        fill(store, ["a", "b", "c"])
        # Everything was written (touched) by this process: even an
        # absurdly small budget must not evict a single entry.
        assert store.evict(max_bytes=1) == (0, 0)
        assert store.stats()["entries"] == 3

    def test_touched_reads_survive_over_budget(self, tmp_path):
        writer = make_store(tmp_path)
        fill(writer, ["old1", "old2", "old3"])
        writer.close()
        reader = make_store(tmp_path)
        assert reader.get("dist", "old2") is not BlueprintStore.MISS
        entries, _ = reader.evict(max_bytes=1)
        assert entries == 2  # old1 and old3; old2 is this run's working set
        assert reader.get("dist", "old2") is not BlueprintStore.MISS

    def test_evicted_key_can_be_re_stored(self, tmp_path):
        writer = make_store(tmp_path)
        fill(writer, ["a", "b"])
        writer.close()
        store = make_store(tmp_path)
        store.evict(max_bytes=1)
        assert store.stats()["entries"] == 0
        # The in-memory table must have forgotten the key, or this put
        # would be silently skipped as already-present.
        store.put("dist", "a", "html", 1.5)
        store.flush()
        store.close()
        assert make_store(tmp_path).get("dist", "a") == 1.5


class TestBudgetEnforcement:
    def test_flush_enforces_env_budget(self, tmp_path, monkeypatch):
        writer = make_store(tmp_path)
        fill(writer, [f"old{i}" for i in range(30)], size=8192)
        writer.close()

        monkeypatch.setenv("REPRO_STORE_MAX_MB", "0.1")  # ~102 KB
        budget = store_budget_bytes()
        store = make_store(tmp_path)
        store.put("dist", "fresh", "html", "y" * 8192)
        store.flush()
        stats = store.stats()
        assert stats["payload_bytes"] <= budget
        # The budget is about disk footprint, not just accounting.
        assert stats["bytes"] <= budget
        # The entry written by this run survived its own eviction pass.
        store.close()
        assert make_store(tmp_path).get("dist", "fresh") == "y" * 8192

    def test_post_run_file_size_within_budget(self, tmp_path):
        writer = make_store(tmp_path)
        fill(writer, [f"k{i}" for i in range(40)], size=50_000)
        writer.close()
        budget = 1024 * 1024
        store = make_store(tmp_path)
        store.evict(max_bytes=budget)
        store.close()
        assert (tmp_path / "store" / "blueprints.sqlite").stat().st_size <= (
            budget
        )

    def test_no_budget_no_eviction(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_MAX_MB", raising=False)
        store = make_store(tmp_path)
        fill(store, ["a", "b", "c"])
        assert store.evict() == (0, 0)
        assert store.stats()["entries"] == 3

    def test_cli_evict(self, tmp_path, capsys):
        writer = make_store(tmp_path)
        fill(writer, ["a", "b", "c"], size=4096)
        writer.close()
        directory = str(tmp_path / "store")
        assert store_mod.main(
            ["--dir", directory, "evict", "--max-mb", "0.008"]
        ) == 0
        out = capsys.readouterr().out
        assert "evicted" in out
        budget = int(0.008 * 1024 * 1024)
        assert make_store(tmp_path).stats()["payload_bytes"] <= budget

    def test_cli_evict_without_budget_errors(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_MAX_MB", raising=False)
        make_store(tmp_path).close()
        directory = str(tmp_path / "store")
        assert store_mod.main(["--dir", directory, "evict"]) == 2

    def test_cli_evict_zero_budget_is_unlimited_not_wipe(
        self, tmp_path, monkeypatch
    ):
        """--max-mb 0 must follow the env knob's 'non-positive = no
        budget' semantics, not delete the whole store."""
        monkeypatch.delenv("REPRO_STORE_MAX_MB", raising=False)
        writer = make_store(tmp_path)
        fill(writer, ["a", "b"], size=1024)
        writer.close()
        directory = str(tmp_path / "store")
        assert store_mod.main(["--dir", directory, "evict", "--max-mb", "0"]) == 2
        assert make_store(tmp_path).stats()["entries"] == 2

    def test_reclaims_free_pages_when_payload_fits(self, tmp_path):
        """File over budget with payload under it (deleted-but-unvacuumed
        pages) must shrink on the next eviction pass."""
        writer = make_store(tmp_path)
        fill(writer, [f"k{i}" for i in range(20)], size=20_000)
        conn = writer._connect()
        # Simulate a pass whose VACUUM was skipped under contention:
        # rows deleted, pages left on the freelist.
        conn.execute("DELETE FROM entries WHERE key != 'k19'")
        conn.commit()
        writer.close()
        path = tmp_path / "store" / "blueprints.sqlite"
        budget = 64 * 1024
        assert path.stat().st_size > budget
        store = make_store(tmp_path)
        assert store.evict(max_bytes=budget) == (0, 0)  # nothing to delete
        store.close()
        assert path.stat().st_size <= budget


class TestScoresSurviveEviction:
    def test_warm_scores_identical_after_full_eviction(
        self, tmp_path, monkeypatch
    ):
        """Eviction discards cache state only: a rerun recomputes every
        evicted entry and lands on bit-identical scores."""
        from repro.store import shared_store
        from repro.harness.runner import (
            LrsynHtmlMethod,
            flush_corpus_store,
            run_m2h_experiment,
        )

        store_dir = tmp_path / "estore"
        monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))
        methods = [LrsynHtmlMethod()]
        cold = run_m2h_experiment(
            methods, providers=["getthere"], train_size=4, test_size=6
        )
        flush_corpus_store()

        evictor = BlueprintStore(directory=store_dir, enabled=True)
        entries, _ = evictor.evict(max_bytes=1)
        assert entries > 0
        assert evictor.stats()["entries"] == 0
        evictor.close()

        # Rotate the shared store through another directory so the rerun
        # rehydrates from the (now empty) database instead of process
        # memory — i.e. behaves like a fresh process.
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "other"))
        shared_store()
        monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))

        warm = run_m2h_experiment(
            methods, providers=["getthere"], train_size=4, test_size=6
        )
        assert len(cold) == len(warm)
        for left, right in zip(cold, warm):
            assert (left.method, left.provider, left.field, left.setting) == (
                right.method, right.provider, right.field, right.setting
            )
            for a, b in (
                (left.f1, right.f1),
                (left.precision, right.precision),
                (left.recall, right.recall),
            ):
                assert (math.isnan(a) and math.isnan(b)) or a == b

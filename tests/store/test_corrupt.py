"""A corrupt/truncated sqlite file degrades the store — never the run."""

import math
import warnings

import pytest

from repro.store import BlueprintStore


def corrupt(directory):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "blueprints.sqlite").write_bytes(
        b"this is definitely not a sqlite database" * 64
    )


class TestDegrade:
    def test_reads_become_misses_writes_are_dropped(self, tmp_path):
        directory = tmp_path / "store"
        corrupt(directory)
        store = BlueprintStore(directory=directory, enabled=True)
        with pytest.warns(RuntimeWarning, match="persistent store disabled"):
            assert store.get("dist", "k") is BlueprintStore.MISS
        # One warning only; everything keeps working in degraded mode.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store.put("dist", "k", "html", 0.5)
            store.flush()
            assert store.get("dist", "k2") is BlueprintStore.MISS
            stats = store.stats()
            assert stats["entries"] == 0
            store.clear()
            store.close()

    def test_truncated_database_degrades_too(self, tmp_path):
        directory = tmp_path / "store"
        good = BlueprintStore(directory=directory, enabled=True)
        good.put("dist", "k", "html", 0.5)
        good.close()
        path = directory / "blueprints.sqlite"
        path.write_bytes(path.read_bytes()[:100])
        # Remove WAL sidecars: sqlite would otherwise "recover" the file.
        for sidecar in ("blueprints.sqlite-wal", "blueprints.sqlite-shm"):
            sidecar_path = directory / sidecar
            if sidecar_path.exists():
                sidecar_path.unlink()
        store = BlueprintStore(directory=directory, enabled=True)
        with pytest.warns(RuntimeWarning, match="persistent store disabled"):
            assert store.get("dist", "k") is BlueprintStore.MISS
        store.close()

    def test_scores_still_produced_with_garbage_db(self, tmp_path, monkeypatch):
        """The satellite's acceptance: a full experiment over a garbage
        store file completes and produces real scores (cold path)."""
        from repro.harness.runner import (
            LrsynHtmlMethod,
            flush_corpus_store,
            run_m2h_experiment,
        )

        store_dir = tmp_path / "gstore"
        corrupt(store_dir)
        monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))
        monkeypatch.setenv("REPRO_JOBS", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results = run_m2h_experiment(
                [LrsynHtmlMethod()],
                providers=["getthere"],
                train_size=4,
                test_size=6,
            )
            # Flush this run's pending corpus puts into the (degraded)
            # store now, before a later test swaps the shared store.
            flush_corpus_store()
        assert results
        assert any(
            math.isfinite(result.f1) and result.f1 > 0 for result in results
        )

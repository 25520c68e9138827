"""Backend-protocol conformance across sqlite and memory.

Every backend must serve the same front (:class:`BlueprintStore`)
contract: round-trips (including ``None`` as a value), the MISS
sentinel, large-kind point reads, LRU eviction with touched-key
protection, per-generation stats — plus the env-driven selection
(``REPRO_STORE_BACKEND``) and the
``shared_store()`` rebuild key that covers it.
"""

import pytest

from repro.store import (
    BlueprintStore,
    default_generation,
    make_backend,
    shared_store,
    store_backend_name,
)
from repro.store.memory import MemoryBackend
from repro.store.sqlite import SqliteBackend

BACKENDS = ["sqlite", "memory"]


@pytest.fixture(params=BACKENDS)
def any_store(request, tmp_path):
    store = BlueprintStore(
        directory=tmp_path / "store", enabled=True, backend=request.param
    )
    yield store
    store.close()


class TestConformance:
    def test_round_trip_and_miss(self, any_store):
        any_store.put("doc_bp", "k1", "html", frozenset({"a", "b"}))
        any_store.put("roi_bp", "k2", "html", None)
        assert any_store.get("doc_bp", "k1") == frozenset({"a", "b"})
        assert any_store.get("roi_bp", "k2") is None
        assert any_store.get("doc_bp", "absent") is BlueprintStore.MISS

    def test_large_kind_point_reads(self, any_store):
        value = (False, ["<html>doc</html>"] * 50)
        any_store.put("corpus", "ck", "corpus", value)
        any_store.flush()
        any_store._forget_unprotected()
        assert any_store.get("corpus", "ck") == value
        assert any_store.get("corpus", "other") is BlueprintStore.MISS

    def test_stats_count_generations(self, any_store):
        any_store.put("dist", "k1", "html", 0.5)
        any_store.put("dist", "k2", "html", 0.25, generation="algo=1")
        stats = any_store.stats()
        assert stats["entries"] == 2
        detail = stats["by_kind"]["html/dist"]
        assert detail["entries"] == 2
        assert detail["generations"] == {default_generation(): 1, "algo=1": 1}

    def test_touched_keys_survive_eviction(self, any_store):
        for index in range(6):
            any_store.put("dist", f"k{index}", "html", "x" * 4096)
        any_store.flush()
        # Everything was written (touched) by this store: even a tiny
        # budget must not evict a single entry.
        assert any_store.evict(max_bytes=1) == (0, 0)
        assert any_store.stats()["entries"] == 6
        # Forget the protection: now the budget bites.
        any_store._touched = set()
        evicted, nbytes = any_store.evict(max_bytes=1)
        assert evicted == 6
        assert nbytes > 0
        assert any_store.stats()["entries"] == 0

    def test_clear(self, any_store):
        any_store.put("dist", "k", "html", 0.5)
        any_store.clear()
        assert any_store.stats()["entries"] == 0
        assert any_store.get("dist", "k") is BlueprintStore.MISS


class TestMemoryBackend:
    def test_survives_store_rotation_within_process(self, tmp_path):
        """The rotate-and-rebuild test pattern must still see the data."""
        first = BlueprintStore(
            directory=tmp_path / "m", enabled=True, backend="memory"
        )
        first.put("dist", "k", "html", 0.5)
        first.close()
        second = BlueprintStore(
            directory=tmp_path / "m", enabled=True, backend="memory"
        )
        assert second.get("dist", "k") == 0.5
        # A different directory is a different memory store.
        other = BlueprintStore(
            directory=tmp_path / "other", enabled=True, backend="memory"
        )
        assert other.get("dist", "k") is BlueprintStore.MISS

    def test_no_files_created(self, tmp_path):
        store = BlueprintStore(
            directory=tmp_path / "m", enabled=True, backend="memory"
        )
        store.put("dist", "k", "html", 0.5)
        store.flush()
        assert not (tmp_path / "m").exists()
        assert store.stats()["path"].startswith("memory://")


class TestSelection:
    def test_default_is_sqlite(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_BACKEND", raising=False)
        assert store_backend_name() == "sqlite"

    def test_unknown_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "redis")
        with pytest.raises(ValueError, match="REPRO_STORE_BACKEND"):
            store_backend_name()

    def test_make_backend_resolves_names(self, tmp_path):
        assert isinstance(make_backend("sqlite", tmp_path), SqliteBackend)
        assert isinstance(make_backend("memory", tmp_path), MemoryBackend)

    def test_shared_store_rebuilds_on_backend_change(
        self, monkeypatch, tmp_path
    ):
        """Satellite fix: the rebuild key must cover backend selection,
        not just (enabled, dir)."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "shared"))
        monkeypatch.delenv("REPRO_STORE_BACKEND", raising=False)
        first = shared_store()
        assert first.backend.name == "sqlite"
        monkeypatch.setenv("REPRO_STORE_BACKEND", "memory")
        second = shared_store()
        assert second is not first
        assert second.backend.name == "memory"
        # Same config again: no rebuild.
        assert shared_store() is second

"""The store front over its sqlite file.

The front (:class:`BlueprintStore`) contract: round-trips (including
``None`` as a value), the MISS sentinel, per-generation stats, clear —
plus the storage-engine name perfsuite records.
"""

import pytest

from repro.store import BlueprintStore, default_generation, store_backend_name


# One engine is left; the parameter names it in every test id.
@pytest.fixture(params=["sqlite"])
def any_store(request, tmp_path):
    store = BlueprintStore(directory=tmp_path / "store", enabled=True)
    assert store.backend.name == request.param
    yield store
    store.close()


class TestConformance:
    def test_round_trip_and_miss(self, any_store):
        any_store.put("doc_bp", "k1", "html", frozenset({"a", "b"}))
        any_store.put("roi_bp", "k2", "html", None)
        assert any_store.get("doc_bp", "k1") == frozenset({"a", "b"})
        assert any_store.get("roi_bp", "k2") is None
        assert any_store.get("doc_bp", "absent") is BlueprintStore.MISS

    def test_stats_count_generations(self, any_store):
        any_store.put("dist", "k1", "html", 0.5)
        any_store.put("dist", "k2", "html", 0.25, generation="algo=1")
        stats = any_store.stats()
        assert stats["entries"] == 2
        detail = stats["by_kind"]["html/dist"]
        assert detail["entries"] == 2
        assert detail["generations"] == {default_generation(): 1, "algo=1": 1}

    def test_clear(self, any_store):
        any_store.put("dist", "k", "html", 0.5)
        any_store.clear()
        assert any_store.stats()["entries"] == 0
        assert any_store.get("dist", "k") is BlueprintStore.MISS


class TestSelection:
    def test_default_is_sqlite(self):
        assert store_backend_name() == "sqlite"

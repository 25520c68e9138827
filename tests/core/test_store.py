"""Tests for the persistent blueprint store (repro.store)."""

import pickle
import sqlite3

import repro.store as store_mod
from repro.store import (
    BlueprintStore,
    entry_key,
    shared_store,
    store_dir,
    store_enabled,
)
from repro.store.sqlite import file_lock
from repro.core.caching import DistanceCache
from repro.html.domain import HtmlDomain
from repro.html.parser import parse_html


def make_store(tmp_path, **kwargs):
    return BlueprintStore(directory=tmp_path / "store", enabled=True, **kwargs)


class TestRoundTrip:
    def test_put_get_same_instance(self, tmp_path):
        store = make_store(tmp_path)
        store.put("doc_bp", "k1", "html", frozenset({"a", "b"}))
        assert store.get("doc_bp", "k1") == frozenset({"a", "b"})

    def test_none_is_a_value_not_a_miss(self, tmp_path):
        store = make_store(tmp_path)
        store.put("roi_bp", "k1", "html", None)
        assert store.get("roi_bp", "k1") is None
        assert store.get("roi_bp", "absent") is BlueprintStore.MISS

    def test_survives_across_instances(self, tmp_path):
        first = make_store(tmp_path)
        first.put("dist", "k1", "html", 0.25)
        first.close()
        second = make_store(tmp_path)
        assert second.get("dist", "k1") == 0.25

    def test_blueprint_values_round_trip_exactly(self, tmp_path):
        summaries = frozenset(
            {("Total", "⊥", "⊤", "Date", "⊥"), ("Date", "⊤", "⊤", "⊥", "⊥")}
        )
        store = make_store(tmp_path)
        store.put("roi_bp", "k", "images", summaries)
        store.close()
        assert make_store(tmp_path).get("roi_bp", "k") == summaries

    def test_disabled_store_never_hits(self, tmp_path):
        store = BlueprintStore(directory=tmp_path, enabled=False)
        store.put("dist", "k", "html", 0.5)
        assert store.get("dist", "k") is BlueprintStore.MISS
        store.flush()
        assert not (tmp_path / "blueprints.sqlite").exists()


class TestEnvKnobs:
    def test_repro_store_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert store_enabled()
        monkeypatch.setenv("REPRO_STORE", "0")
        assert not store_enabled()

    def test_store_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "custom"))
        assert store_dir() == tmp_path / "custom"

    def test_shared_store_tracks_env_changes(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "one"))
        first = shared_store()
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "two"))
        second = shared_store()
        assert first is not second
        assert second.directory == tmp_path / "two"


class TestKeyDerivation:
    def test_algo_version_bump_invalidates_keys(self, monkeypatch):
        """The stale-cache guard: bumping the constant changes every key."""
        before = entry_key("html", "doc_bp", "fingerprint")
        monkeypatch.setattr(
            store_mod,
            "BLUEPRINT_ALGO_VERSION",
            store_mod.BLUEPRINT_ALGO_VERSION + 1,
        )
        after = entry_key("html", "doc_bp", "fingerprint")
        assert before != after

    def test_keys_partition_by_substrate_and_kind(self):
        assert entry_key("html", "dist", "a", "b") != entry_key(
            "images", "dist", "a", "b"
        )
        assert entry_key("html", "dist", "a") != entry_key("html", "doc_bp", "a")

    def test_keys_independent_of_runtime_knobs(self, monkeypatch):
        """REPRO_SCALE / REPRO_JOBS must never leak into store keys."""
        html = "<html><body><p>Depart: 8:18 PM</p></body></html>"
        domain = HtmlDomain()

        def keys():
            doc = parse_html(html)
            return (
                domain.document_fingerprint(doc),
                entry_key(
                    domain.substrate,
                    "doc_bp",
                    domain.document_fingerprint(doc),
                ),
            )

        monkeypatch.setenv("REPRO_SCALE", "0.05")
        monkeypatch.setenv("REPRO_JOBS", "1")
        small = keys()
        monkeypatch.setenv("REPRO_SCALE", "1.0")
        monkeypatch.setenv("REPRO_JOBS", "8")
        large = keys()
        assert small == large


class TestAsymmetricOrientationKeys:
    """Image-metric orientation: d(a, b) != d(b, a) needs two entries.

    Distances live only in the per-call ``DistanceCache``; the shared
    store, pointed at a fresh directory, must stay free of them.
    """

    class AsymmetricDomain(HtmlDomain):
        substrate = "asym-test"
        symmetric_distance = False

        def blueprint_distance(self, bp1, bp2):
            return 0.25 if len(bp1) <= len(bp2) else 0.75

    class SymmetricDomain(HtmlDomain):
        substrate = "sym-test"

    def test_orientations_stored_separately(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        domain = self.AsymmetricDomain()
        bp_a, bp_b = frozenset({"x"}), frozenset({"x", "y"})
        cache = DistanceCache(domain, enabled=True)
        assert cache.distance(bp_a, bp_b) == 0.25
        assert cache.distance(bp_b, bp_a) == 0.75
        assert cache.miss_counts.get("distance") == 2
        # Each orientation is then served its own value.
        assert cache.distance(bp_a, bp_b) == 0.25
        assert cache.distance(bp_b, bp_a) == 0.75
        assert cache.hit_counts.get("distance") == 2
        store = shared_store()
        store.flush()
        assert store.stats()["entries"] == 0

    def test_symmetric_domain_shares_one_entry(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        domain = self.SymmetricDomain()
        bp_a, bp_b = frozenset({"x"}), frozenset({"x", "y"})
        cache = DistanceCache(domain, enabled=True)
        value = cache.distance(bp_a, bp_b)
        # Reversed orientation is served from the single entry.
        assert cache.distance(bp_b, bp_a) == value
        assert list(cache._distances) == [(bp_a, bp_b)]
        assert cache.miss_counts.get("distance") == 1
        assert cache.hit_counts.get("distance") == 1
        store = shared_store()
        store.flush()
        assert store.stats()["entries"] == 0


class TestHygiene:
    def test_schema_version_mismatch_wipes(self, tmp_path):
        store = make_store(tmp_path)
        store.put("dist", "k", "html", 0.5)
        store.flush()
        conn = store._connect()
        conn.execute(
            "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
        )
        conn.commit()
        store.close()
        reopened = make_store(tmp_path)
        assert reopened.get("dist", "k") is BlueprintStore.MISS

    def test_stats_and_clear(self, tmp_path):
        store = make_store(tmp_path)
        store.put("dist", "k1", "html", 0.5)
        store.put("doc_bp", "k2", "html", frozenset({"a"}))
        stats = store.stats()
        assert stats["entries"] == 2
        assert sorted(stats["by_kind"]) == ["html/dist", "html/doc_bp"]
        for detail in stats["by_kind"].values():
            assert detail["entries"] == 1
            assert detail["bytes"] > 0
        assert stats["payload_bytes"] == sum(
            detail["bytes"] for detail in stats["by_kind"].values()
        )
        assert stats["schema_version"] == store_mod.SCHEMA_VERSION
        assert stats["algo_version"] == store_mod.BLUEPRINT_ALGO_VERSION
        store.clear()
        assert store.stats()["entries"] == 0
        assert store.get("dist", "k1") is BlueprintStore.MISS

    def test_bytes_counts_the_database_and_its_wal(self, tmp_path):
        store = make_store(tmp_path)
        for index in range(50):
            store.put("program", f"k{index}", "html", "x" * 2048)
        store.flush()
        db = tmp_path / "store" / "blueprints.sqlite"
        wal = db.with_name(db.name + "-wal")
        assert wal.stat().st_size > 0  # committed rows not yet folded in
        assert store.stats()["bytes"] == (
            db.stat().st_size + wal.stat().st_size
        )

    def test_corrupt_value_is_skipped(self, tmp_path):
        store = make_store(tmp_path)
        store.put("dist", "good", "html", 0.5)
        store.flush()
        conn = store._connect()
        conn.execute(
            "INSERT OR REPLACE INTO entries"
            " (key, kind, substrate, value, created, last_used, size, codec)"
            " VALUES ('bad', 'dist', 'html', ?, 0, 0, 12, 'raw')",
            (b"not a pickle",),
        )
        conn.commit()
        store.close()
        reopened = make_store(tmp_path)
        assert reopened.get("dist", "bad") is BlueprintStore.MISS
        assert reopened.get("dist", "good") == 0.5

    def test_v2_store_migrates_in_place(self, tmp_path):
        """A schema-v2 database (pre-codec) keeps its entries readable."""
        directory = tmp_path / "store"
        directory.mkdir(parents=True)
        conn = sqlite3.connect(directory / "blueprints.sqlite")
        conn.execute(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        conn.execute("INSERT INTO meta VALUES ('schema_version', '2')")
        conn.execute(
            "CREATE TABLE entries ("
            " key TEXT PRIMARY KEY, kind TEXT NOT NULL,"
            " substrate TEXT NOT NULL, value BLOB NOT NULL,"
            " created REAL NOT NULL, last_used REAL NOT NULL,"
            " size INTEGER NOT NULL)"
        )
        for key, kind, value in (
            ("p", "program", "extractor"),
            ("d", "dist", 0.5),
        ):
            blob = pickle.dumps(value)
            conn.execute(
                "INSERT INTO entries VALUES (?, ?, 'html', ?, 0, 0, ?)",
                (key, kind, blob, len(blob)),
            )
        conn.commit()
        conn.close()

        store = BlueprintStore(directory=directory, enabled=True)
        # Old entries are served (codec defaulted to raw)...
        assert store.get("program", "p") == "extractor"
        assert store.get("dist", "d") == 0.5
        assert store.stats()["schema_version"] == store_mod.SCHEMA_VERSION
        # ...and new writes land alongside them.
        store.put("program", "new", "html", "other")
        store.flush()
        rows = dict(
            store._connect().execute(
                "SELECT key, codec FROM entries WHERE kind = 'program'"
            ).fetchall()
        )
        assert rows == {"p": "raw", "new": "raw"}

    def test_file_lock_serializes(self, tmp_path):
        # Smoke test: the lock context is reentrant-free and releases.
        lock = tmp_path / "store.lock"
        with file_lock(lock):
            pass
        with file_lock(lock):
            pass
        assert lock.exists()


class TestCli:
    def test_stats_command(self, tmp_path, capsys):
        store = make_store(tmp_path)
        store.put("dist", "k", "html", 0.5)
        store.close()
        assert store_mod.main(["--dir", str(tmp_path / "store"), "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:  1" in out
        assert "html/dist: 1 entries" in out
        assert "bytes" in out

    def test_clear_command(self, tmp_path, capsys):
        store = make_store(tmp_path)
        store.put("dist", "k", "html", 0.5)
        store.close()
        assert store_mod.main(["--dir", str(tmp_path / "store"), "clear"]) == 0
        assert "cleared 1 entries" in capsys.readouterr().out
        assert make_store(tmp_path).get("dist", "k") is BlueprintStore.MISS

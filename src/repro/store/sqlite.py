"""The sqlite file behind :class:`repro.store.BlueprintStore`.

One database file (``blueprints.sqlite``) under the store directory,
written in batched transactions under an advisory file lock so
concurrent CI jobs sharing a cache directory cannot corrupt it.  WAL
mode + a 30 s busy timeout are the backstop on platforms without
``fcntl``.

The backend only ever sees *rows* — ``(key, kind, substrate, blob,
codec, size, generation)`` tuples whose blob is an already-pickled
payload; the front owns keys, pickling and batching.

Since schema v4 every row records its **generation** — the
``algo=<BLUEPRINT_ALGO_VERSION>`` stamp current code would write it
with — so ``repro-store gc`` can enumerate and drop entries stranded by
a version bump without reverse-engineering the key hashes.  v2/v3
databases migrate in place: the ``codec`` and ``generation`` columns
are pure additions (old rows read as ``raw`` / unknown generation), so
a warm CI cache survives the upgrade instead of recomputing from
scratch.  Current code writes every row ``raw``; the column stays so
older stores open unchanged.

A corrupt or truncated database never kills the run: the first failing
open/DDL degrades the backend to a disabled state — one warning, then
every read is a miss and every write a no-op, i.e. cold-path recompute.
"""

from __future__ import annotations

import contextlib
import os
import sqlite3
import time
import warnings
from pathlib import Path
from typing import Iterable, Sequence

# The on-disk artifacts (stable across releases so existing cache
# directories keep working).
DB_NAME = "blueprints.sqlite"
LOCK_NAME = "store.lock"

# One store row as the front ships it:
# (key, kind, substrate, blob, codec, size, generation).
StoreRow = tuple[str, str, str, bytes, str, int, str]

# Bump when the sqlite layout itself changes.  (2: last_used + size
# columns.  3: codec column.  4: generation column for generation-aware
# GC.)  v2/v3 databases migrate in place — both new columns are pure
# additions whose defaults describe the old rows exactly; any other
# mismatch wipes the database on open rather than attempting migration.
SCHEMA_VERSION = 4

# sqlite's host-parameter limit is 999 in older builds; chunk IN (...)
# point lookups well under it.
_SELECT_CHUNK = 400


@contextlib.contextmanager
def file_lock(path: Path):
    """Advisory exclusive lock for cross-process write serialization.

    Uses ``fcntl.flock`` where available (Linux/macOS — including every CI
    runner this repo targets); on platforms without ``fcntl`` it degrades
    to sqlite's own locking, which still guarantees consistency, just with
    busy-retry instead of blocking.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX fallback
        yield
        return
    with open(path, "a+b") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


class SqliteBackend:
    """Rows in one sqlite file, flushed under an advisory ``flock``.

    Tolerant rather than fatal: a damaged or unreachable database
    degrades to misses and dropped writes (cold-path recompute) — it
    never kills the experiment using it.
    """

    name = "sqlite"

    _ENTRIES_DDL = (
        "CREATE TABLE IF NOT EXISTS entries ("
        " key TEXT PRIMARY KEY,"
        " kind TEXT NOT NULL,"
        " substrate TEXT NOT NULL,"
        " value BLOB NOT NULL,"
        " created REAL NOT NULL,"
        " last_used REAL NOT NULL,"
        " size INTEGER NOT NULL,"
        " codec TEXT NOT NULL DEFAULT 'raw',"
        " generation TEXT NOT NULL DEFAULT '')"
    )

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.path = self.directory / DB_NAME
        self._lock_path = self.directory / LOCK_NAME
        self._conn: sqlite3.Connection | None = None
        self._pid = os.getpid()
        # Set when the database proved unusable (corrupt/truncated file):
        # the backend then serves misses and swallows writes instead of
        # killing the run.
        self._failed = False

    # -- connection management ------------------------------------------
    def _connect(self) -> sqlite3.Connection | None:
        if self._failed:
            return None
        if self._pid != os.getpid():
            # Forked child: the inherited connection belongs to the
            # parent — drop the reference without closing it.
            self._conn = None
            self._pid = os.getpid()
        if self._conn is None:
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
                # check_same_thread=False: the server's threads reach
                # this connection from threads other than the one that
                # opened it; their callers serialize access, so it is
                # shared, never used concurrently.
                conn = sqlite3.connect(
                    self.path, timeout=30.0, check_same_thread=False
                )
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                self._ensure_schema(conn)
            except (sqlite3.DatabaseError, OSError) as exc:
                self._degrade(exc)
                return None
            self._conn = conn
        return self._conn

    def _degrade(self, exc: Exception) -> None:
        """Corrupt/unopenable database: warn once, then act disabled.

        The store is a cache — losing it costs recomputation, never
        correctness — so a truncated or garbage ``blueprints.sqlite``
        must not take the whole experiment down with it.
        """
        self._failed = True
        self._conn = None
        warnings.warn(
            f"persistent store disabled: {self.path} is unusable ({exc});"
            " continuing with cold-path recompute"
            " (delete the file or run `repro-store clear` to recover)",
            RuntimeWarning,
            stacklevel=3,
        )

    def _ensure_schema(self, conn: sqlite3.Connection) -> None:
        conn.execute(
            "CREATE TABLE IF NOT EXISTS meta"
            " (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        version = row[0] if row is not None else None
        if version in ("2", "3"):
            # v2 -> v4 and v3 -> v4 are pure column additions whose
            # defaults describe the old rows exactly (uncompressed,
            # generation unknown), so the warm store survives the
            # upgrade instead of being wiped.  Unknown-generation rows
            # read fine; `repro-store gc` treats them as stale.
            conn.execute(self._ENTRIES_DDL)
            for ddl in (
                "ALTER TABLE entries"
                " ADD COLUMN codec TEXT NOT NULL DEFAULT 'raw'",
                "ALTER TABLE entries"
                " ADD COLUMN generation TEXT NOT NULL DEFAULT ''",
            ):
                try:
                    conn.execute(ddl)
                except sqlite3.OperationalError:
                    # Column already present (v3's codec), or the
                    # entries table was absent and the DDL above made a
                    # current one.
                    pass
            conn.execute(
                "INSERT OR REPLACE INTO meta VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            conn.commit()
        elif version != str(SCHEMA_VERSION):
            # Other layouts differ structurally, so a row-wise DELETE is
            # not enough — drop and recreate under the current DDL.
            conn.execute("DROP TABLE IF EXISTS entries")
            conn.execute(self._ENTRIES_DDL)
            conn.execute(
                "INSERT OR REPLACE INTO meta VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            conn.commit()
        else:
            conn.execute(self._ENTRIES_DDL)

    # -- reads -----------------------------------------------------------
    def get_many(
        self, kind: str, keys: Sequence[str] | None = None
    ) -> dict[str, tuple[bytes, str]]:
        """Rows of ``kind`` as ``{key: (blob, codec)}``.

        ``keys=None`` reads the whole kind (the front's hydration);
        an explicit list performs batched point lookups (the serving
        router's program reads).  Missing keys are simply absent.
        """
        conn = self._connect()
        if conn is None:
            return {}
        result: dict[str, tuple[bytes, str]] = {}
        try:
            if keys is None:
                rows = conn.execute(
                    "SELECT key, value, codec FROM entries WHERE kind = ?",
                    (kind,),
                ).fetchall()
            else:
                rows = []
                keys = list(keys)
                for start in range(0, len(keys), _SELECT_CHUNK):
                    chunk = keys[start:start + _SELECT_CHUNK]
                    marks = ",".join("?" * len(chunk))
                    rows.extend(
                        conn.execute(
                            "SELECT key, value, codec FROM entries"
                            f" WHERE kind = ? AND key IN ({marks})",
                            (kind, *chunk),
                        ).fetchall()
                    )
        except sqlite3.DatabaseError:
            return {}
        for key, blob, codec in rows:
            result[key] = (blob, codec)
        return result

    # -- writes ----------------------------------------------------------
    def commit(self, rows: Sequence[StoreRow], stamps: Iterable[str]) -> None:
        """Upsert ``rows`` in one transaction under the file lock.

        ``stamps`` is always empty from the front; the two-argument call
        is the shape perfsuite's row counter wraps.
        """
        conn = self._connect()
        if conn is None or not rows:
            return
        now = time.time()
        db_rows = [
            (key, kind, substrate, blob, now, now, size, codec, generation)
            for key, kind, substrate, blob, codec, size, generation in rows
        ]
        with file_lock(self._lock_path):
            conn.executemany(
                "INSERT OR REPLACE INTO entries VALUES"
                " (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                db_rows,
            )
            conn.commit()

    def _vacuum(self, conn: sqlite3.Connection) -> bool:
        """VACUUM + fold the WAL back in; False under reader contention.

        VACUUM needs exclusive access; concurrent jobs' readers do not
        take the file lock, so contention is tolerated (reclaiming space
        is hygiene, not correctness) rather than raised.
        """
        try:
            conn.execute("VACUUM")
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except sqlite3.OperationalError:
            return False
        return True

    # -- GC primitives ---------------------------------------------------
    def scan(self) -> list[tuple[str, str, str, int, str]]:
        """Every row's metadata: ``(key, kind, substrate, size, generation)``.

        GC's enumeration primitive — no blobs, so a large store scans
        cheaply.
        """
        conn = self._connect()
        if conn is None:
            return []
        try:
            return conn.execute(
                "SELECT key, kind, substrate, size, generation FROM entries"
                " ORDER BY kind, key"
            ).fetchall()
        except sqlite3.DatabaseError:
            return []

    def delete_many(self, keys: Sequence[str]) -> tuple[int, int]:
        """Delete ``keys``, then VACUUM; ``(deleted_entries, bytes)``."""
        conn = self._connect()
        if conn is None or not keys:
            return (0, 0)
        keys = list(keys)
        deleted = 0
        nbytes = 0
        with file_lock(self._lock_path):
            for start in range(0, len(keys), _SELECT_CHUNK):
                chunk = keys[start:start + _SELECT_CHUNK]
                marks = ",".join("?" * len(chunk))
                nbytes += conn.execute(
                    "SELECT COALESCE(SUM(size), 0) FROM entries"
                    f" WHERE key IN ({marks})",
                    chunk,
                ).fetchone()[0]
                cursor = conn.execute(
                    f"DELETE FROM entries WHERE key IN ({marks})", chunk
                )
                deleted += cursor.rowcount
            conn.commit()
            if deleted:
                self._vacuum(conn)
        return (deleted, nbytes)

    # -- hygiene ---------------------------------------------------------
    def stats(self) -> dict:
        """Raw aggregates: ``path``, ``entries``, ``by_kind`` (with
        per-generation counts), ``payload_bytes``, ``bytes``."""
        counts: dict[str, dict] = {}
        total = 0
        payload = 0
        conn = self._connect()
        if conn is not None:
            try:
                rows = conn.execute(
                    "SELECT substrate, kind, generation,"
                    " COUNT(*), COALESCE(SUM(size), 0)"
                    " FROM entries GROUP BY substrate, kind, generation"
                    " ORDER BY substrate, kind, generation"
                ).fetchall()
            except sqlite3.DatabaseError:
                rows = []
            for substrate, kind, generation, count, nbytes in rows:
                bucket = counts.setdefault(
                    f"{substrate}/{kind}",
                    {"entries": 0, "bytes": 0, "generations": {}},
                )
                bucket["entries"] += count
                bucket["bytes"] += nbytes
                label = generation or "unknown"
                bucket["generations"][label] = (
                    bucket["generations"].get(label, 0) + count
                )
                total += count
                payload += nbytes
        # Committed rows sit in the -wal file until a checkpoint folds
        # them into the main file, so the footprint counts both.
        wal = self.path.with_name(self.path.name + "-wal")
        size = sum(path.stat().st_size for path in (self.path, wal)
                   if path.exists())
        return {
            "path": str(self.path),
            "entries": total,
            "by_kind": counts,
            "payload_bytes": payload,
            "bytes": size,
        }

    def clear(self) -> None:
        conn = self._connect()
        if conn is None:
            return
        with file_lock(self._lock_path):
            conn.execute("DELETE FROM entries")
            conn.commit()
            conn.execute("VACUUM")

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        if self._conn is not None and self._pid == os.getpid():
            self._conn.close()
        self._conn = None

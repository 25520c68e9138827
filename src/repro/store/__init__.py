"""Persistent content-hash store for trained programs and serving catalogs.

:class:`BlueprintStore` persists what a warm run reads back, keyed by
**content hash** (never by object identity, file path, or corpus
position):

* ``program`` rows — a trained extractor (or a recorded synthesis
  failure), keyed by the method, its configuration and the ordered
  training-example fingerprints (see :mod:`repro.harness.runner`);
* ``serving`` rows — the catalogs ``repro-serve`` loads
  (:mod:`repro.harness.export`).

Corpora are not stored: generation is deterministic and cheap next to
parsing, which a stored corpus needed again on every load.  Blueprints,
distances and landmark lists are not stored either: they live in the
per-``lrsyn`` tables of :class:`repro.core.caching.DistanceCache` and
the per-document memos, and a warm run that hits its ``program`` row
never needs them.  Rows of retired kinds left by older code (``corpus``,
``corpus_ref``, ``doc_bp``, ``roi_bp``, ``dist``, ``landmark``) are
dropped by ``repro-store gc``.

Every key additionally folds in the *substrate* (``html`` / ``images``)
and :data:`BLUEPRINT_ALGO_VERSION` — bump the latter whenever a
blueprint, distance or landmark-scoring algorithm changes so stale
programs can never leak across incompatible code revisions.  Keys are
deliberately independent of ``REPRO_SCALE``, ``REPRO_JOBS`` and every
other runtime knob: the same examples must hit the same entry no matter
how the experiment around it is configured.

This class is the front — key derivation, pickling, per-kind in-memory
tables and write batching — over one sqlite database
(:mod:`repro.store.sqlite`) under ``~/.cache/repro``
(``REPRO_STORE_DIR`` overrides), written in batches under an advisory
file lock.  ``REPRO_STORE=0`` disables the store entirely.  Processes
on one machine share a warm cache by sharing the sqlite file.  Values
round-trip through :mod:`pickle`, so runs served from the store stay
byte-identical to cold runs.

Every row also records its **generation** (``algo=N``), which is what
``repro-store gc`` (:mod:`repro.store.gc`) uses to drop entries stranded
by a version bump — see the CLI (:mod:`repro.store.cli`) for ``stats``
/ ``clear`` / ``gc``.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
from pathlib import Path
from typing import Any

from repro.store.sqlite import DB_NAME, SCHEMA_VERSION, SqliteBackend

__all__ = [
    "BLUEPRINT_ALGO_VERSION",
    "SCHEMA_VERSION",
    "FLUSH_THRESHOLD",
    "BlueprintStore",
    "default_generation",
    "entry_key",
    "main",
    "shared_store",
    "store_backend_name",
    "store_dir",
    "store_enabled",
]

# Bump whenever a blueprint, blueprint-distance or landmark-scoring
# algorithm changes observable output: the version is folded into every
# entry key, so old entries become unreachable instead of silently serving
# stale values.  (Covered by tests/core/test_store.py.)
# 2: summary_distance greedy matching now iterates in sorted order (was
#    hash-seed-dependent frozenset order for contended grams).
# 3: image region synthesis profiles the Relative-motion patterns of the
#    cluster being synthesized (was: of the cluster scored last).
BLUEPRINT_ALGO_VERSION = 3

# Batched writes are flushed once this many puts accumulate (and at
# interpreter exit / explicit flush()).  Large batches keep cold runs
# cheap: one locked transaction amortizes over thousands of entries.
FLUSH_THRESHOLD = 4096


def store_enabled() -> bool:
    """Whether the persistent store is active (``REPRO_STORE`` env knob)."""
    return os.environ.get("REPRO_STORE", "1") != "0"


def store_dir() -> Path:
    """The cache directory (``REPRO_STORE_DIR``, default ``~/.cache/repro``)."""
    override = os.environ.get("REPRO_STORE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def store_backend_name() -> str:
    """The storage engine: always ``sqlite``."""
    return "sqlite"


def entry_key(substrate: str, kind: str, *parts: str) -> str:
    """Derive one store key from content-hash parts.

    Folds in :data:`BLUEPRINT_ALGO_VERSION` so incompatible code revisions
    can never share entries.  ``parts`` must already be content-derived
    (fingerprints/digests) — nothing configuration-dependent belongs here.
    """
    hasher = hashlib.sha256()
    hasher.update(f"algo={BLUEPRINT_ALGO_VERSION}".encode("ascii"))
    hasher.update(f"|{substrate}|{kind}".encode("utf-8"))
    for part in parts:
        hasher.update(b"\x00")
        hasher.update(part.encode("utf-8"))
    return hasher.hexdigest()


def default_generation() -> str:
    """The generation stamp current code writes (``algo=N``).

    Reads the module attribute dynamically so a monkeypatched
    :data:`BLUEPRINT_ALGO_VERSION` changes the stamp the same way it
    changes :func:`entry_key`.
    """
    return f"algo={BLUEPRINT_ALGO_VERSION}"


class BlueprintStore:
    """Content-addressed store front over one sqlite file.

    Entries are hydrated into an in-memory table on first access per kind,
    so warm lookups are dictionary gets, not database queries.  ``put`` is
    buffered; :meth:`flush` ships the batch as one locked transaction.
    The store is fork-aware: a child process inherits the object but not
    the parent's connection (the backend reopens its own) nor its pending
    batch (the parent flushes its own writes).
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        enabled: bool | None = None,
    ) -> None:
        self.directory = Path(directory) if directory else store_dir()
        self.enabled = store_enabled() if enabled is None else enabled
        self.path = self.directory / DB_NAME
        self._backend: SqliteBackend | None = None
        self._pid = os.getpid()
        self._mem: dict[str, dict[str, Any]] = {}
        self._hydrated: set[str] = set()
        # (key, kind, substrate, value, generation)
        self._pending: list[tuple[str, str, str, Any, str | None]] = []
        if self.enabled:
            atexit.register(self.flush)

    # -- backend management ---------------------------------------------
    @property
    def backend(self) -> SqliteBackend | None:
        """The sqlite backend, or ``None`` when the store is disabled."""
        if not self.enabled:
            return None
        self._check_fork()
        if self._backend is None:
            self._backend = SqliteBackend(self.directory)
        return self._backend

    def _check_fork(self) -> None:
        if self._pid != os.getpid():
            # Forked child: the batched writes belong to the parent.
            self._pending = []
            self._forget()
            self._pid = os.getpid()

    def _connect(self):
        """The underlying sqlite connection, for tests and diagnostics
        that inspect the database with raw SQL."""
        backend = self.backend
        return backend._connect() if backend is not None else None

    def _forget(self) -> None:
        """Drop the hydrated tables; later gets re-read the database."""
        self._mem = {}
        self._hydrated = set()

    # -- lookups ---------------------------------------------------------
    # The miss sentinel: ``None`` is a legitimate stored value, so
    # lookups need a distinct miss.
    MISS = object()

    def _hydrate(self, kind: str) -> dict[str, Any]:
        table = self._mem.get(kind)
        if table is None:
            table = self._mem[kind] = {}
        if kind in self._hydrated:
            return table
        backend = self.backend
        if backend is not None:
            for key, (blob, _codec) in backend.get_many(kind).items():
                try:
                    table.setdefault(key, pickle.loads(blob))
                except Exception:
                    continue
        self._hydrated.add(kind)
        return table

    def get(self, kind: str, key: str) -> Any:
        """The stored value, or :data:`BlueprintStore.MISS` when absent."""
        if not self.enabled:
            return self.MISS
        return self._hydrate(kind).get(key, self.MISS)

    def put(
        self,
        kind: str,
        key: str,
        substrate: str,
        value: Any,
        overwrite: bool = False,
        generation: str | None = None,
    ) -> None:
        """Buffer one entry; flushed in batches via one backend commit.

        The value is pickled at flush time, so it must pickle then as it
        would now.  ``overwrite`` replaces an existing entry (serving
        catalogs).  ``generation`` overrides the row's generation stamp
        (default :func:`default_generation`).
        """
        if not self.enabled:
            return
        self._check_fork()
        table = self._hydrate(kind)
        if key in table and not overwrite:
            return
        table[key] = value
        self._pending.append((key, kind, substrate, value, generation))
        if len(self._pending) >= FLUSH_THRESHOLD:
            self.flush()

    def flush(self) -> None:
        """Write the batched puts in one locked transaction."""
        if not self.enabled:
            return
        self._check_fork()
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        rows = []
        for key, kind, substrate, value, generation in pending:
            blob = pickle.dumps(value)
            rows.append((
                key, kind, substrate, blob, "raw", len(blob),
                generation if generation is not None
                else default_generation(),
            ))
        self.backend.commit(rows, ())

    # -- hygiene ---------------------------------------------------------
    def stats(self) -> dict:
        """Per-(substrate, kind) entry counts and byte sizes, plus totals.

        ``by_kind`` maps ``"substrate/kind"`` to ``{"entries", "bytes",
        "generations"}`` (stored payload bytes; ``generations`` counts
        entries per generation stamp); ``payload_bytes`` is their sum and
        ``bytes`` the database file plus its ``-wal``.
        """
        backend = self.backend
        if backend is None:
            base = {
                "path": str(self.path),
                "entries": 0,
                "by_kind": {},
                "payload_bytes": 0,
                "bytes": 0,
            }
        else:
            self.flush()
            base = backend.stats()
        base.update(
            enabled=self.enabled,
            backend=backend.name if backend is not None else "none",
            schema_version=SCHEMA_VERSION,
            algo_version=BLUEPRINT_ALGO_VERSION,
        )
        return base

    def clear(self) -> None:
        """Delete every entry (and reset the in-memory tables)."""
        self._pending = []
        self._forget()
        backend = self.backend
        if backend is not None:
            backend.clear()

    def close(self) -> None:
        self.flush()
        if self._backend is not None:
            self._backend.close()
            self._backend = None


_shared: BlueprintStore | None = None
_shared_config: tuple | None = None


def shared_store() -> BlueprintStore:
    """The process-wide store, rebuilt when the env configuration changes.

    The rebuild key is every knob that changes which data the store
    front resolves to — enabled flag and directory — so tests and
    drivers that switch directories mid-process never silently keep
    talking to the previous one.
    """
    global _shared, _shared_config
    config = (store_enabled(), str(store_dir()))
    if _shared is None or _shared_config != config:
        if _shared is not None:
            _shared.close()
        _shared = BlueprintStore()
        _shared_config = config
    return _shared


def main(argv: list[str] | None = None) -> int:
    """The ``repro-store`` console script (see :mod:`repro.store.cli`)."""
    from repro.store.cli import main as cli_main

    return cli_main(argv)

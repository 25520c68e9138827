"""Persistent content-hash store for trained programs, corpora and catalogs.

:class:`BlueprintStore` persists what a warm run reads back, keyed by
**content hash** (never by object identity, file path, or corpus
position):

* ``program`` rows — a trained extractor (or a recorded synthesis
  failure), keyed by the method, its configuration and the ordered
  training-example fingerprints (see :mod:`repro.harness.runner`);
* ``corpus`` rows and their ``corpus_ref`` liveness markers — generated
  corpora, so warm runs skip generation;
* ``serving`` rows — the catalogs ``repro-serve`` loads
  (:mod:`repro.harness.export`).

Blueprints, distances and landmark lists are not stored: they live in
the per-``lrsyn`` tables of :class:`repro.core.caching.DistanceCache`
and the per-document memos, and a warm run that hits its ``program``
row never needs them.  Rows of those retired kinds (``doc_bp``,
``roi_bp``, ``dist``, ``landmark``) left by older code are dropped by
``repro-store gc``.

Every key additionally folds in the *substrate* (``html`` / ``images``)
and :data:`BLUEPRINT_ALGO_VERSION` — bump the latter whenever a
blueprint, distance or landmark-scoring algorithm changes so stale
programs can never leak across incompatible code revisions.  Keys are
deliberately independent of ``REPRO_SCALE``, ``REPRO_JOBS`` and every
other runtime knob: the same examples must hit the same entry no matter
how the experiment around it is configured.

Since v4 the storage medium is **pluggable**: this class is the front —
key derivation, pickling, per-kind in-memory tables, write batching and
the touched-key working set — over a narrow row-oriented backend
protocol (:mod:`repro.store.backend`) with two implementations:

* ``sqlite`` (:mod:`repro.store.sqlite`, the default) — one database
  under ``~/.cache/repro`` (``REPRO_STORE_DIR`` overrides), batched
  writes under an advisory file lock, LRU eviction against the
  ``REPRO_STORE_MAX_MB`` budget, zlib compression for large kinds;
* ``memory`` (:mod:`repro.store.memory`) — process-local, for tests and
  ephemeral runs.

Selection is environment-driven: ``REPRO_STORE_BACKEND`` picks the
implementation (default ``sqlite``), ``REPRO_STORE=0`` disables the
store entirely.  Processes on one machine share a warm cache by sharing
the sqlite file (``REPRO_STORE_DIR``).  Values round-trip through
:mod:`pickle`, so runs served from any backend stay byte-identical to
cold runs.

Every row also records its **generation** (``algo=N``, plus the corpus
generator version for corpus-shaped kinds), which is what
``repro-store gc`` (:mod:`repro.store.gc`) uses to drop entries stranded
by a version bump — see the CLI (:mod:`repro.store.cli`) for ``stats``
/ ``evict`` / ``clear`` / ``gc``.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
from pathlib import Path
from typing import Any

from repro.store.backend import (
    DB_NAME,
    LARGE_KINDS as _LARGE_KINDS,
    StoreBackend,
    StoreRow,
    encode_blob as _encode_blob,
    decode_value as _decode_value,
    file_lock,
    store_budget_bytes,
    store_codec,
)
from repro.store.sqlite import SCHEMA_VERSION, SqliteBackend

__all__ = [
    "BLUEPRINT_ALGO_VERSION",
    "SCHEMA_VERSION",
    "FLUSH_THRESHOLD",
    "BlueprintStore",
    "StoreBackend",
    "StoreRow",
    "default_generation",
    "entry_key",
    "file_lock",
    "main",
    "make_backend",
    "shared_store",
    "store_backend_name",
    "store_budget_bytes",
    "store_codec",
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


_BACKEND_NAMES = ("sqlite", "memory")


def store_backend_name() -> str:
    """Backend selection (``REPRO_STORE_BACKEND``, default ``sqlite``)."""
    raw = os.environ.get("REPRO_STORE_BACKEND", "").strip().lower()
    if raw:
        if raw not in _BACKEND_NAMES:
            raise ValueError(
                "REPRO_STORE_BACKEND must be one of"
                f" {'/'.join(_BACKEND_NAMES)}, got {raw!r}"
            )
        return raw
    return "sqlite"


def make_backend(
    spec: str | StoreBackend | None = None,
    directory: str | os.PathLike | None = None,
) -> StoreBackend:
    """Resolve a backend instance from an explicit spec or the env knobs."""
    if isinstance(spec, StoreBackend):
        return spec
    name = spec or store_backend_name()
    directory = Path(directory) if directory else store_dir()
    if name == "sqlite":
        return SqliteBackend(directory)
    if name == "memory":
        from repro.store.memory import MemoryBackend

        return MemoryBackend(directory)
    raise ValueError(f"unknown store backend {name!r}")


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
    changes :func:`entry_key`.  Kinds with extra versioned inputs (the
    corpus generator) pass their own ``generation=`` to
    :meth:`BlueprintStore.put` instead.
    """
    return f"algo={BLUEPRINT_ALGO_VERSION}"


class BlueprintStore:
    """Content-addressed store front over a pluggable row backend.

    Entries are hydrated into an in-memory table on first access per kind,
    so warm lookups are dictionary gets, not backend queries.  ``put`` is
    buffered; :meth:`flush` ships the batch as one coalesced backend
    commit (one locked transaction for sqlite).  The store is fork-aware:
    a child process inherits the object but not the backend's OS
    resources, which are transparently reopened (and the parent's pending
    batch dropped — the parent flushes its own writes).
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        enabled: bool | None = None,
        backend: str | StoreBackend | None = None,
    ) -> None:
        self.directory = Path(directory) if directory else store_dir()
        self.enabled = store_enabled() if enabled is None else enabled
        self.path = self.directory / DB_NAME
        self._backend_spec = backend
        self._backend: StoreBackend | None = None
        self._pid = os.getpid()
        self._mem: dict[str, dict[str, Any]] = {}
        self._hydrated: set[str] = set()
        # (key, kind, substrate, value, generation)
        self._pending: list[tuple[str, str, str, Any, str | None]] = []
        # Keys read or written by this process: LRU eviction never removes
        # them (the current run's working set is always protected).
        self._touched: set[str] = set()
        # Touched-but-not-yet-recorded keys whose last_used row needs a
        # refresh at the next flush.
        self._touch_pending: set[str] = set()
        self.hits = 0
        self.misses = 0
        if self.enabled:
            # Fail fast on a bad REPRO_STORE_CODEC: flushes run from an
            # atexit hook whose exceptions are printed-and-swallowed, so
            # a knob typo discovered only there would silently persist
            # nothing.
            store_codec()
            atexit.register(self.flush)

    # -- backend management ---------------------------------------------
    @property
    def backend(self) -> StoreBackend | None:
        """The resolved backend, or ``None`` when the store is disabled."""
        if not self.enabled:
            return None
        self._check_fork()
        if self._backend is None:
            self._backend = make_backend(self._backend_spec, self.directory)
        return self._backend

    def _check_fork(self) -> None:
        if self._pid != os.getpid():
            # Forked child: the inherited backend resources (and any
            # batched writes) belong to the parent.
            self._pending = []
            self._mem = {}
            self._hydrated = set()
            self._touched = set()
            self._touch_pending = set()
            self._pid = os.getpid()
            if self._backend is not None:
                self._backend = self._backend.reopen()

    def _connect(self):
        """The underlying sqlite connection (``None`` for other backends).

        Kept for tests and diagnostics that inspect the database with raw
        SQL; production code goes through the backend protocol.
        """
        backend = self.backend
        connect = getattr(backend, "_connect", None)
        return connect() if connect is not None else None

    # -- lookups ---------------------------------------------------------
    _SENTINEL = object()

    def _hydrate(self, kind: str) -> dict[str, Any]:
        table = self._mem.get(kind)
        if table is None:
            table = self._mem[kind] = {}
        if kind in self._hydrated:
            return table
        backend = self.backend
        if backend is not None:
            for key, (blob, codec) in backend.get_many(kind).items():
                try:
                    table.setdefault(key, _decode_value(blob, codec))
                except Exception:
                    continue
        self._hydrated.add(kind)
        return table

    def get(self, kind: str, key: str) -> Any:
        """The stored value, or :data:`BlueprintStore.MISS` when absent."""
        if not self.enabled:
            return self.MISS
        if kind in _LARGE_KINDS:
            return self._get_keyed(kind, key)
        table = self._hydrate(kind)
        value = table.get(key, self._SENTINEL)
        if value is self._SENTINEL:
            self.misses += 1
            return self.MISS
        self.hits += 1
        self._touch(key)
        return value

    def _touch(self, key: str) -> None:
        """Mark ``key`` as part of this run's working set (LRU-protected)."""
        self._touched.add(key)
        self._touch_pending.add(key)

    def _get_keyed(self, kind: str, key: str) -> Any:
        """Point lookup for large-blob kinds (no kind-wide hydration)."""
        self._check_fork()
        table = self._mem.setdefault(kind, {})
        value = table.get(key, self._SENTINEL)
        if value is self._SENTINEL:
            backend = self.backend
            if backend is not None:
                row = backend.get_many(kind, [key]).get(key)
                if row is not None:
                    try:
                        value = _decode_value(row[0], row[1])
                    except Exception:
                        value = self._SENTINEL
            if value is not self._SENTINEL:
                table[key] = value
        if value is self._SENTINEL:
            self.misses += 1
            return self.MISS
        self.hits += 1
        self._touch(key)
        return value

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
        would now (a parsed document pickles as its source, memos aside).
        ``overwrite`` replaces an existing entry (serving catalogs).
        ``generation`` overrides the row's generation stamp (default
        :func:`default_generation`) for kinds with extra versioned inputs.
        """
        if not self.enabled:
            return
        self._check_fork()
        if kind in _LARGE_KINDS:
            # No kind-wide hydration for blob kinds; callers pre-check
            # existence via get(), and the backend upsert is idempotent.
            table = self._mem.setdefault(kind, {})
        else:
            table = self._hydrate(kind)
        if key in table and not overwrite:
            self._touch(key)
            return
        table[key] = value
        self._touched.add(key)
        self._pending.append((key, kind, substrate, value, generation))
        if len(self._pending) >= FLUSH_THRESHOLD:
            self.flush()

    def flush(self) -> None:
        """Write batched puts, refresh LRU stamps, enforce the budget.

        All inside one coalesced backend commit, so concurrent jobs
        sharing a store see consistent state.  Eviction (when
        ``REPRO_STORE_MAX_MB`` is set) runs last: the just-written batch
        and every key this run touched are protected.
        """
        if not self.enabled or (not self._pending and not self._touch_pending):
            return
        if self._pid != os.getpid():
            # Forked child inherited the parent's batch: drop it (the
            # parent owns those writes) and start clean.
            self._check_fork()
            return
        # Resolve (and validate) the codec once per flush, *before* the
        # batch is swapped out — a bad knob then raises with the pending
        # writes still queued instead of dropping them.
        codec = store_codec()
        pending, self._pending = self._pending, []
        touched, self._touch_pending = self._touch_pending, set()
        backend = self.backend
        if backend is None:
            return
        rows: list[StoreRow] = []
        for key, kind, substrate, value, generation in pending:
            # Pickling and compression happen here, at flush.  The size
            # column records the *encoded* bytes: what the backend
            # actually stores and what eviction budgets against.
            blob, row_codec = _encode_blob(kind, pickle.dumps(value), codec)
            if generation is None:
                generation = default_generation()
            rows.append(
                (key, kind, substrate, blob, row_codec, len(blob), generation)
            )
        # Stamps for entries read (not rewritten) this run; rows written
        # above carry a fresh last_used already.
        written = {row[0] for row in rows}
        stamps = [key for key in touched if key not in written]
        budget = store_budget_bytes() if rows else None
        evicted = backend.commit(
            rows, stamps, budget=budget, protected=frozenset(self._touched)
        )
        if evicted and evicted[0]:
            self._forget_unprotected()

    def _forget_unprotected(self) -> None:
        """Drop hydrated state after an eviction pass.

        The backend reports *how much* it evicted, not which keys, so the
        in-memory tables are reset wholesale: later gets rehydrate from
        the backend and a later ``put`` of an evicted key re-persists it
        instead of skipping it as already present.
        """
        self._mem = {}
        self._hydrated = set()

    def evict(self, max_bytes: int | None = None) -> tuple[int, int]:
        """Evict least-recently-used entries down to the size budget.

        ``max_bytes`` defaults to the ``REPRO_STORE_MAX_MB`` budget; with
        neither set this is a no-op.  Entries touched (read or written) by
        this process are never evicted — the current run's working set
        stays warm no matter how small the budget.  Returns
        ``(evicted_entries, evicted_bytes)``.
        """
        budget = store_budget_bytes() if max_bytes is None else max_bytes
        if not self.enabled or budget is None:
            return (0, 0)
        self.flush()
        backend = self.backend
        if backend is None:
            return (0, 0)
        result = backend.evict(budget, frozenset(self._touched))
        if result[0]:
            self._forget_unprotected()
        return result

    # -- hygiene ---------------------------------------------------------
    def stats(self) -> dict:
        """Per-(substrate, kind) entry counts and byte sizes, plus totals.

        ``by_kind`` maps ``"substrate/kind"`` to ``{"entries", "bytes",
        "generations"}`` (stored payload bytes — post-codec, so compressed
        kinds report their compressed footprint, the quantity eviction
        budgets against; ``generations`` counts entries per generation
        stamp); ``payload_bytes`` is their sum and ``bytes`` the backend
        footprint (for sqlite, the database file plus its ``-wal``).
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
            budget_bytes=store_budget_bytes(),
        )
        return base

    def clear(self) -> None:
        """Delete every entry (and reset the in-memory tables)."""
        self._pending = []
        self._forget_unprotected()
        backend = self.backend
        if backend is not None:
            backend.clear()

    def close(self) -> None:
        self.flush()
        if self._backend is not None:
            if self._pid == os.getpid():
                self._backend.close()
            self._backend = None


# Public miss sentinel: ``None`` is a legitimate stored value (a landmark
# that anchors no value caches as None), so lookups need a distinct miss.
BlueprintStore.MISS = BlueprintStore._SENTINEL


_shared: BlueprintStore | None = None
_shared_config: tuple | None = None


def shared_store() -> BlueprintStore:
    """The process-wide store, rebuilt when the env configuration changes.

    The rebuild key covers every knob that changes which backend (or
    which data) the store front resolves to — enabled flag, directory
    and backend name — so tests and drivers that switch backends
    mid-process never silently keep talking to the previous one.
    """
    global _shared, _shared_config
    config = (
        store_enabled(),
        str(store_dir()),
        store_backend_name() if store_enabled() else "none",
    )
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

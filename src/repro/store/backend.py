"""The narrow backend protocol every store implementation speaks.

:class:`~repro.store.BlueprintStore` (the front) owns everything
value-shaped: key derivation, pickling, the in-memory decoded tables,
write batching and the touched-key working set.  A backend only ever
sees *rows* — ``(key, kind, substrate, blob, codec, size, generation)``
tuples whose blob is an already-encoded payload — and implements the
narrow surface the front needs:

``get_many`` / ``put_many`` / ``touch_many`` / ``evict`` / ``stats`` /
``clear`` — plus the GC extension (``scan`` / ``delete_many``) and the
lifecycle hooks (``close`` / ``reopen``).  ``commit`` is the coalesced
flush — put + touch + budget enforcement in one call — with a default
composition that sqlite overrides to run it under one file lock.

Two implementations ship: :class:`repro.store.sqlite.SqliteBackend`
(the historical on-disk behavior) and
:class:`repro.store.memory.MemoryBackend` (ephemeral, for tests and
short-lived runs).  Selection is environment-driven —
``REPRO_STORE_BACKEND`` — and resolved by
:func:`repro.store.shared_store`.

This module also hosts the low-level helpers the front and every
backend share: blob codecs, the advisory file lock and the size-budget
knob.  Nothing here imports the package ``__init__`` — backends must
stay import-cycle-free.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import zlib
from pathlib import Path
from typing import Any, Iterable, Sequence

# The on-disk artifacts of the sqlite backend (kept stable across the
# v4 package split so existing cache directories keep working).
DB_NAME = "blueprints.sqlite"
LOCK_NAME = "store.lock"

# Kinds whose values are large blobs (multi-MB pickled corpora): looked
# up by key with point reads instead of hydrating the whole kind into
# memory — a warm run typically needs only its own configuration's rows.
LARGE_KINDS = frozenset({"corpus"})

# Large-blob kinds are also the compressible ones: pickled corpora are
# dominated by repeated markup/OCR text, where zlib routinely wins >2x.
# Small blueprint/distance rows stay raw — per-row (de)compression would
# cost more than the bytes it saves.
COMPRESSED_KINDS = LARGE_KINDS

RAW_CODEC = "raw"
ZLIB_CODEC = "zlib"

# One store row as the backend protocol ships it:
# (key, kind, substrate, blob, codec, size, generation).
StoreRow = tuple[str, str, str, bytes, str, int, str]


def store_codec() -> str:
    """Codec for new large-kind writes (``REPRO_STORE_CODEC`` env knob).

    ``zlib`` (the default) compresses the corpus kind's pickled payloads;
    ``raw`` writes them uncompressed.  Reads are codec-tagged per row, so
    the knob never affects the readability of existing entries.
    """
    raw = os.environ.get("REPRO_STORE_CODEC", ZLIB_CODEC).strip() or ZLIB_CODEC
    if raw not in (RAW_CODEC, ZLIB_CODEC):
        raise ValueError(
            f"REPRO_STORE_CODEC must be 'zlib' or 'raw', got {raw!r}"
        )
    return raw


def encode_blob(kind: str, blob: bytes, codec: str) -> tuple[bytes, str]:
    """Apply the configured ``codec`` to an already-pickled payload."""
    if kind in COMPRESSED_KINDS and codec == ZLIB_CODEC:
        return zlib.compress(blob, 6), ZLIB_CODEC
    return blob, RAW_CODEC


def decode_value(blob: bytes, codec: str) -> Any:
    """Invert :func:`encode_blob` + the pickle layer, per the row's codec."""
    if codec == ZLIB_CODEC:
        blob = zlib.decompress(blob)
    return pickle.loads(blob)


def store_budget_bytes() -> int | None:
    """Size budget from ``REPRO_STORE_MAX_MB``, or ``None`` when unlimited.

    The corpus kind alone adds MBs per configuration, so long-lived cache
    directories (developer machines, CI ``actions/cache``) need a ceiling.
    Unset, empty or non-positive values mean "no budget"; anything else is
    megabytes (floats allowed: ``REPRO_STORE_MAX_MB=0.5``).
    """
    raw = os.environ.get("REPRO_STORE_MAX_MB", "").strip()
    if not raw:
        return None
    try:
        megabytes = float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_STORE_MAX_MB must be a number (megabytes), got {raw!r}"
        ) from None
    if megabytes <= 0:
        return None
    return int(megabytes * 1024 * 1024)


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


class StoreBackend:
    """Abstract row store behind :class:`repro.store.BlueprintStore`.

    Implementations must be tolerant rather than fatal: a damaged or
    unreachable backing store degrades to misses and dropped writes
    (cold-path recompute) — it never kills the experiment using it.
    """

    #: Human-readable backend identity (``sqlite`` / ``memory``).
    name = "abstract"

    # -- reads -----------------------------------------------------------
    def get_many(
        self, kind: str, keys: Sequence[str] | None = None
    ) -> dict[str, tuple[bytes, str]]:
        """Rows of ``kind`` as ``{key: (blob, codec)}``.

        ``keys=None`` hydrates the whole kind (the front's small-kind
        path); an explicit list performs batched point lookups (the
        large-kind path).  Missing keys are simply absent from the
        result — the front turns absence into its MISS sentinel.
        """
        raise NotImplementedError

    # -- writes ----------------------------------------------------------
    def put_many(self, rows: Sequence[StoreRow]) -> None:
        """Upsert encoded rows (last write wins on key collision)."""
        raise NotImplementedError

    def touch_many(self, keys: Iterable[str]) -> None:
        """Refresh ``last_used`` for entries read (not rewritten) this run."""
        raise NotImplementedError

    def commit(
        self,
        rows: Sequence[StoreRow],
        stamps: Iterable[str],
        budget: int | None = None,
        protected: frozenset[str] | set[str] = frozenset(),
    ) -> None:
        """One coalesced flush: writes + LRU stamps + budget enforcement.

        The default composes the fine-grained methods; sqlite overrides
        it to run the whole thing under a single file lock.
        """
        if rows:
            self.put_many(rows)
        stamps = list(stamps)
        if stamps:
            self.touch_many(stamps)
        if rows and budget is not None:
            self.evict(budget, protected)

    # -- hygiene ---------------------------------------------------------
    def evict(
        self,
        budget: int,
        protected: frozenset[str] | set[str] = frozenset(),
    ) -> tuple[int, int]:
        """LRU-delete down to ``budget`` bytes, sparing ``protected`` keys.

        Returns ``(evicted_entries, evicted_bytes)``.
        """
        raise NotImplementedError

    def scan(self) -> list[tuple[str, str, str, int, str]]:
        """Every row's metadata: ``(key, kind, substrate, size, generation)``.

        The generation-aware GC's enumeration primitive — no blobs, so a
        multi-GB store scans cheaply.
        """
        raise NotImplementedError

    def delete_many(self, keys: Sequence[str]) -> tuple[int, int]:
        """Delete specific keys (the GC's deletion primitive).

        Returns ``(deleted_entries, deleted_bytes)`` and reclaims the
        space where the medium supports it.
        """
        raise NotImplementedError

    def stats(self) -> dict:
        """Raw aggregates: ``path``, ``entries``, ``by_kind`` (with
        per-generation counts), ``payload_bytes``, ``bytes``."""
        raise NotImplementedError

    def clear(self) -> None:
        """Delete every entry."""
        raise NotImplementedError

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Release OS resources (connections, sockets).  Idempotent."""

    def reopen(self) -> "StoreBackend":
        """Post-``fork`` fixup: drop inherited OS resources *without*
        closing them (they belong to the parent) and return the backend
        the child should use — usually ``self`` with connections reset.
        """
        return self

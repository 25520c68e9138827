"""The in-memory store backend (tests and ephemeral runs).

Rows live in a process-local dict registry keyed by the *directory
string* the store was configured with, so the ``shared_store()``
rotate-and-rebuild pattern (tests point ``REPRO_STORE_DIR`` elsewhere
and back to force rehydration) still sees the same data a previous
instance wrote.  Nothing touches disk; ``stats()['path']`` reports a
``memory://<dir>`` pseudo-path so humans can tell at a glance that the
store will not outlive the process.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, Sequence

from repro.store.backend import StoreBackend, StoreRow

# directory-string -> {key: [kind, substrate, blob, codec, size,
#                            generation, created, last_used]}
_SHARED: dict[str, dict[str, list]] = {}
_SHARED_LOCK = threading.Lock()


class MemoryBackend(StoreBackend):
    """Rows in a process-shared dict; durable only within the process."""

    name = "memory"

    def __init__(self, directory) -> None:
        self.directory = str(directory)
        with _SHARED_LOCK:
            self._rows = _SHARED.setdefault(self.directory, {})
        self._lock = threading.Lock()

    # -- reads -----------------------------------------------------------
    def get_many(
        self, kind: str, keys: Sequence[str] | None = None
    ) -> dict[str, tuple[bytes, str]]:
        with self._lock:
            if keys is None:
                return {
                    key: (row[2], row[3])
                    for key, row in self._rows.items()
                    if row[0] == kind
                }
            result = {}
            for key in keys:
                row = self._rows.get(key)
                if row is not None and row[0] == kind:
                    result[key] = (row[2], row[3])
            return result

    # -- writes ----------------------------------------------------------
    def put_many(self, rows: Sequence[StoreRow]) -> None:
        now = time.time()
        with self._lock:
            for key, kind, substrate, blob, codec, size, generation in rows:
                self._rows[key] = [
                    kind, substrate, blob, codec, size, generation, now, now,
                ]

    def touch_many(self, keys: Iterable[str]) -> None:
        now = time.time()
        with self._lock:
            for key in keys:
                row = self._rows.get(key)
                if row is not None:
                    row[7] = now

    # -- hygiene ---------------------------------------------------------
    def evict(
        self,
        budget: int,
        protected: frozenset[str] | set[str] = frozenset(),
    ) -> tuple[int, int]:
        with self._lock:
            payload = sum(row[4] for row in self._rows.values())
            if payload <= budget:
                return (0, 0)
            # Same hysteresis as the sqlite backend: trim to ~90% of the
            # budget so a store hovering at its ceiling doesn't evict on
            # every flush.
            target = budget - budget // 10
            excess = payload - target
            order = sorted(
                self._rows.items(),
                key=lambda item: (item[1][7], item[1][6], item[0]),
            )
            evicted = 0
            evicted_bytes = 0
            for key, row in order:
                if excess <= 0:
                    break
                if key in protected:
                    continue
                del self._rows[key]
                excess -= row[4]
                evicted += 1
                evicted_bytes += row[4]
            return (evicted, evicted_bytes)

    def scan(self) -> list[tuple[str, str, str, int, str]]:
        with self._lock:
            return sorted(
                (key, row[0], row[1], row[4], row[5])
                for key, row in self._rows.items()
            )

    def delete_many(self, keys: Sequence[str]) -> tuple[int, int]:
        deleted = 0
        nbytes = 0
        with self._lock:
            for key in keys:
                row = self._rows.pop(key, None)
                if row is not None:
                    deleted += 1
                    nbytes += row[4]
        return (deleted, nbytes)

    def stats(self) -> dict:
        counts: dict[str, dict] = {}
        total = 0
        payload = 0
        with self._lock:
            for key, row in sorted(self._rows.items()):
                kind, substrate = row[0], row[1]
                bucket = counts.setdefault(
                    f"{substrate}/{kind}",
                    {"entries": 0, "bytes": 0, "generations": {}},
                )
                bucket["entries"] += 1
                bucket["bytes"] += row[4]
                label = row[5] or "unknown"
                bucket["generations"][label] = (
                    bucket["generations"].get(label, 0) + 1
                )
                total += 1
                payload += row[4]
        return {
            "path": f"memory://{self.directory}",
            "entries": total,
            "by_kind": counts,
            "payload_bytes": payload,
            # No file: the footprint IS the payload.
            "bytes": payload,
        }

    def clear(self) -> None:
        with self._lock:
            self._rows.clear()

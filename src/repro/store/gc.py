"""Generation-aware garbage collection (``repro-store gc``).

Entry keys fold :data:`repro.store.BLUEPRINT_ALGO_VERSION` in via
sha256, so a version bump makes old entries *unreachable* — but not
*gone*: a long-lived cache directory (or CI ``actions/cache`` artifact)
accumulates one dead generation per bump.  GC reclaims them in one pass
over the backend's ``scan()`` metadata, sorting every doomed row into
one of two classes:

**Retired kinds** — older code stored corpora (``corpus`` and their
``corpus_ref`` liveness markers), blueprints, distances and landmark
lists (``doc_bp``, ``roi_bp``, ``dist``, ``landmark``).  Nothing reads
those kinds any more, so every such row is dead whatever its
generation, and gc drops them all.

**Stale generations** — every row records the generation stamp current
code would write it with (``algo=N``).  Rows whose stamp differs
(including the empty stamp of rows migrated from pre-v4 schemas, whose
generation is unknown, and the ``algo=N|corpus=M`` stamps older code
gave corpus rows) are unreachable by current keys and dropped.

GC never touches a current-generation row of a live kind: a warm reader
racing a GC keeps every entry it can reach.  GC only ever discards
cache state — the next run recomputes anything it misses,
byte-identically.
"""

from __future__ import annotations

from repro.store import BlueprintStore, default_generation

#: Kinds no current code reads or writes; gc drops every row of them.
RETIRED_KINDS = frozenset(
    {"corpus", "corpus_ref", "doc_bp", "roi_bp", "dist", "landmark"}
)


def plan_gc(store: BlueprintStore) -> dict:
    """Classify every row; returns the report without deleting anything.

    Report shape::

        {"scanned": int,
         "retired": {"entries": int, "bytes": int, "by_kind": {...}},
         "stale": {"entries": int, "bytes": int, "by_kind": {...}},
         "doomed_keys": [...]}
    """
    backend = store.backend
    retired = _Bucket()
    stale = _Bucket()
    rows = []
    if backend is not None:
        store.flush()
        rows = backend.scan()
    current = default_generation()
    for key, kind, substrate, size, generation in rows:
        if kind in RETIRED_KINDS:
            retired.add(key, f"{substrate}/{kind}", size)
        elif generation != current:
            stale.add(key, f"{substrate}/{kind}", size)
    return {
        "scanned": len(rows),
        "retired": retired.report(),
        "stale": stale.report(),
        "doomed_keys": retired.keys + stale.keys,
    }


class _Bucket:
    """Keys, bytes and per-``substrate/kind`` counts of one doomed class."""

    def __init__(self) -> None:
        self.keys: list[str] = []
        self.bytes = 0
        self.by_kind: dict[str, int] = {}

    def add(self, key: str, bucket: str, size: int) -> None:
        self.keys.append(key)
        self.bytes += size
        self.by_kind[bucket] = self.by_kind.get(bucket, 0) + 1

    def report(self) -> dict:
        return {
            "entries": len(self.keys),
            "bytes": self.bytes,
            "by_kind": dict(sorted(self.by_kind.items())),
        }


def run_gc(store: BlueprintStore, dry_run: bool = False) -> dict:
    """Plan and (unless ``dry_run``) delete; returns the final report.

    Adds ``deleted_entries`` / ``deleted_bytes`` (both 0 on a dry run)
    and ``dry_run`` to the :func:`plan_gc` report.
    """
    report = plan_gc(store)
    doomed = report.pop("doomed_keys")
    deleted = (0, 0)
    if doomed and not dry_run:
        deleted = store.backend.delete_many(doomed)
        # Deleted rows may survive in the front's hydrated tables;
        # reset them so this process re-reads ground truth.
        store._forget()
    report["deleted_entries"] = deleted[0]
    report["deleted_bytes"] = deleted[1]
    report["dry_run"] = dry_run
    return report

"""Generation-aware garbage collection (``repro-store gc``).

Entry keys fold :data:`repro.store.BLUEPRINT_ALGO_VERSION` in via
sha256, so a version bump makes old entries *unreachable* — but not
*gone*: a long-lived cache directory (or CI ``actions/cache`` artifact)
accumulates one dead generation per bump.  Eviction alone does not help
promptly, because dead entries are only reclaimed once the LRU budget
forces them out.  GC reclaims them directly, in two passes over the
backend's ``scan()`` metadata:

**Stale generations** — every row records the generation stamp current
code would write it with (``algo=N``, plus ``corpus=M`` for
corpus-shaped kinds).  Rows whose stamp differs from the expected one
(including the empty stamp of rows migrated from pre-v4 schemas, whose
generation is unknown) are unreachable by current keys and dropped.

**Unreferenced corpora** — corpus snapshots dominate the payload, and a
current-generation corpus can still be dead weight if no current
configuration uses it (e.g. the dataset/provider/size matrix changed).
:func:`repro.harness.runner.cached_corpora` records a tiny
``corpus_ref`` marker per corpus it builds or serves, so "live" is
observable: corpora with no current-generation ref are dropped, as are
refs whose corpus is gone (dangling).  A safety gate skips this pass
entirely when the store holds corpora but not a single ref — that is a
store populated outside the harness (hand-built fixtures, partial
copies), where absence of refs is not evidence of death.

**Retired kinds** — older code wrote blueprints, distances and
landmark lists through to the store (``doc_bp``, ``roi_bp``, ``dist``,
``landmark``).  Nothing reads those kinds any more, so every such row is
dead whatever its generation, and gc drops them all.

GC never touches a current-generation key that is referenced (or of any
other live kind): a warm reader racing a GC keeps every entry it can
reach.  Like eviction, GC only ever discards cache state — the next run
recomputes anything it misses, byte-identically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.store.backend import decode_value

if TYPE_CHECKING:  # pragma: no cover
    from repro.store import BlueprintStore

#: The corpus-snapshot kinds that carry the corpus-generator version in
#: their generation stamp and participate in the reference pass.
CORPUS_KIND = "corpus"
CORPUS_REF_KIND = "corpus_ref"

#: Kinds no current code reads or writes; gc drops every row of them.
RETIRED_KINDS = frozenset({"doc_bp", "roi_bp", "dist", "landmark"})


def expected_generation(kind: str) -> str:
    """The generation stamp current code writes for ``kind``."""
    from repro.store import default_generation

    if kind in (CORPUS_KIND, CORPUS_REF_KIND):
        # Imported lazily: the harness layer imports repro.store at
        # module scope, so the reverse import must stay inside the call.
        from repro.harness.runner import corpus_store_generation

        return corpus_store_generation()
    return default_generation()


def plan_gc(store: "BlueprintStore") -> dict:
    """Classify every row; returns the report without deleting anything.

    Report shape::

        {"scanned": int,
         "retired": {"entries": int, "bytes": int, "by_kind": {...}},
         "stale": {"entries": int, "bytes": int, "by_kind": {...}},
         "unreferenced_corpora": {"entries": int, "bytes": int},
         "dangling_refs": {"entries": int, "bytes": int},
         "skipped_unreferenced_pass": bool,
         "doomed_keys": [...]}
    """
    backend = store.backend
    if backend is None:
        return _empty_report()
    store.flush()
    rows = backend.scan()

    expected: dict[str, str] = {}
    retired = _Bucket()
    stale = _Bucket()
    current: list[tuple[str, str, str, int]] = []
    for key, kind, substrate, size, generation in rows:
        if kind in RETIRED_KINDS:
            retired.add(key, f"{substrate}/{kind}", size)
            continue
        want = expected.get(kind)
        if want is None:
            want = expected[kind] = expected_generation(kind)
        if generation != want:
            stale.add(key, f"{substrate}/{kind}", size)
        else:
            current.append((key, kind, substrate, size))

    corpora = {key: size for key, kind, _, size in current if kind == CORPUS_KIND}
    ref_rows = [(key, size) for key, kind, _, size in current
                if kind == CORPUS_REF_KIND]

    unreferenced_keys: list[str] = []
    unreferenced_bytes = 0
    dangling_keys: list[str] = []
    dangling_bytes = 0
    skipped = False
    if corpora and not ref_rows:
        # No current-generation refs at all, yet current corpora exist:
        # this store was not populated through the harness (which always
        # writes refs), so "unreferenced" is unknowable — skip the pass
        # rather than wipe live data.
        skipped = True
    elif ref_rows:
        referenced: set[str] = set()
        blobs = backend.get_many(CORPUS_REF_KIND, [key for key, _ in ref_rows])
        for key, size in ref_rows:
            target = None
            row = blobs.get(key)
            if row is not None:
                try:
                    target = decode_value(row[0], row[1])
                except Exception:
                    target = None
            if isinstance(target, str) and target in corpora:
                referenced.add(target)
            else:
                dangling_keys.append(key)
                dangling_bytes += size
        for key, size in corpora.items():
            if key not in referenced:
                unreferenced_keys.append(key)
                unreferenced_bytes += size

    return {
        "scanned": len(rows),
        "retired": retired.report(),
        "stale": stale.report(),
        "unreferenced_corpora": {
            "entries": len(unreferenced_keys),
            "bytes": unreferenced_bytes,
        },
        "dangling_refs": {
            "entries": len(dangling_keys),
            "bytes": dangling_bytes,
        },
        "skipped_unreferenced_pass": skipped,
        "doomed_keys": (
            retired.keys + stale.keys + unreferenced_keys + dangling_keys
        ),
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


def run_gc(store: "BlueprintStore", dry_run: bool = False) -> dict:
    """Plan and (unless ``dry_run``) delete; returns the final report.

    Adds ``deleted_entries`` / ``deleted_bytes`` (both 0 on a dry run)
    and ``dry_run`` to the :func:`plan_gc` report.
    """
    report = plan_gc(store)
    doomed = report.pop("doomed_keys")
    deleted = (0, 0)
    if doomed and not dry_run:
        backend = store.backend
        if backend is not None:
            deleted = backend.delete_many(doomed)
            # Deleted rows may survive in the front's hydrated tables;
            # reset them so this process re-reads ground truth.
            store._forget_unprotected()
    report["deleted_entries"] = deleted[0]
    report["deleted_bytes"] = deleted[1]
    report["dry_run"] = dry_run
    return report


def _empty_report() -> dict:
    return {
        "scanned": 0,
        "retired": {"entries": 0, "bytes": 0, "by_kind": {}},
        "stale": {"entries": 0, "bytes": 0, "by_kind": {}},
        "unreferenced_corpora": {"entries": 0, "bytes": 0},
        "dangling_refs": {"entries": 0, "bytes": 0},
        "skipped_unreferenced_pass": False,
        "doomed_keys": [],
    }

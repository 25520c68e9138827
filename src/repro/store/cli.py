"""The ``repro-store`` console script.

Hygiene entry points for the persistent blueprint store::

    repro-store stats [--json]        # per-kind counts/bytes (+generations)
    repro-store clear                 # delete every entry
    repro-store evict --max-mb N      # LRU-trim to a size budget
    repro-store gc [--dry-run] [--json]   # drop retired kinds, stale
                                          # generations + unreferenced
                                          # corpora

Global flags pick the target: ``--dir`` (default ``REPRO_STORE_DIR`` /
``~/.cache/repro``) and ``--backend`` (``sqlite``/``memory``).
"""

from __future__ import annotations

import json


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-store",
        description="Inspect, trim or collect the persistent blueprint store.",
    )
    parser.add_argument(
        "--dir",
        default=None,
        help="store directory (default: REPRO_STORE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--backend",
        choices=["sqlite", "memory"],
        default=None,
        help="store backend (default: REPRO_STORE_BACKEND, or sqlite)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    stats = sub.add_parser(
        "stats", help="print per-kind entry counts/bytes and file size"
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="machine-readable stats, including per-kind generation counts",
    )
    sub.add_parser("clear", help="delete every stored entry")
    evict = sub.add_parser(
        "evict", help="LRU-evict entries down to the size budget"
    )
    evict.add_argument(
        "--max-mb",
        type=float,
        default=None,
        help="budget in megabytes (default: REPRO_STORE_MAX_MB)",
    )
    gc = sub.add_parser(
        "gc",
        help="drop entries of retired kinds, from stale generations and"
        " corpora no live configuration references",
    )
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be deleted without deleting",
    )
    gc.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    args = parser.parse_args(argv)

    from repro.store import BlueprintStore, store_budget_bytes

    store = BlueprintStore(
        directory=args.dir, enabled=True, backend=args.backend
    )
    code = 0
    if args.command == "stats":
        stats = store.stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            print(f"store:    {stats['path']}")
            print(
                f"versions: schema={stats['schema_version']}"
                f" algo={stats['algo_version']}"
            )
            budget = stats["budget_bytes"]
            budget_text = (
                f"{budget} bytes" if budget is not None else "unlimited"
            )
            print(
                f"entries:  {stats['entries']}"
                f"  ({stats['payload_bytes']} payload bytes,"
                f" {stats['bytes']} on disk, budget {budget_text})"
            )
            for bucket, detail in stats["by_kind"].items():
                print(
                    f"  {bucket}: {detail['entries']} entries,"
                    f" {detail['bytes']} bytes"
                )
            # Programs the harness could not pickle never reach the
            # program kind — they retrain on every warm run, so their
            # count deserves a line of its own (see
            # repro.harness.runner.picklable_or_none).
            dropped = sum(
                detail["entries"]
                for bucket, detail in stats["by_kind"].items()
                if bucket.endswith("/dropped_program")
            )
            if dropped:
                print(
                    f"dropped:  {dropped} unpicklable programs"
                    " (retrained on every warm run)"
                )
    elif args.command == "clear":
        before = store.stats()["entries"]
        store.clear()
        print(f"cleared {before} entries from {store.path}")
    elif args.command == "evict":
        # Same semantics as the env knob: non-positive = no budget (and
        # with no budget at all, error out rather than wiping the store).
        max_bytes = (
            int(args.max_mb * 1024 * 1024)
            if args.max_mb is not None and args.max_mb > 0
            else None
        )
        if max_bytes is None and store_budget_bytes() is None:
            print("no budget: set --max-mb or REPRO_STORE_MAX_MB")
            store.close()
            return 2
        entries, nbytes = store.evict(max_bytes)
        after = store.stats()
        print(
            f"evicted {entries} entries ({nbytes} bytes);"
            f" {after['entries']} entries ({after['bytes']} bytes on disk)"
            " remain"
        )
    elif args.command == "gc":
        from repro.store.gc import run_gc

        report = run_gc(store, dry_run=args.dry_run)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            retired = report["retired"]
            stale = report["stale"]
            orphans = report["unreferenced_corpora"]
            dangling = report["dangling_refs"]
            print(f"scanned {report['scanned']} entries")
            print(
                f"retired kinds: {retired['entries']} entries"
                f" ({retired['bytes']} bytes)"
            )
            for bucket, count in retired["by_kind"].items():
                print(f"  {bucket}: {count} entries")
            print(
                f"stale generations: {stale['entries']} entries"
                f" ({stale['bytes']} bytes)"
            )
            for bucket, count in stale["by_kind"].items():
                print(f"  {bucket}: {count} entries")
            if report["skipped_unreferenced_pass"]:
                print(
                    "unreferenced corpora: pass skipped"
                    " (store has corpora but no reference markers)"
                )
            else:
                print(
                    f"unreferenced corpora: {orphans['entries']} entries"
                    f" ({orphans['bytes']} bytes)"
                )
                print(
                    f"dangling refs: {dangling['entries']} entries"
                    f" ({dangling['bytes']} bytes)"
                )
            if args.dry_run:
                doomed = (
                    retired["entries"]
                    + stale["entries"]
                    + orphans["entries"]
                    + dangling["entries"]
                )
                print(f"dry run: would delete {doomed} entries")
            else:
                after = store.stats()
                print(
                    f"deleted {report['deleted_entries']} entries"
                    f" ({report['deleted_bytes']} bytes);"
                    f" {after['entries']} entries"
                    f" ({after['bytes']} bytes on disk) remain"
                )
    store.close()
    return code

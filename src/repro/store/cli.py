"""The ``repro-store`` console script.

Hygiene entry points for the persistent program store::

    repro-store stats [--json]            # per-kind counts/bytes (+generations)
    repro-store clear                     # delete every entry
    repro-store gc [--dry-run] [--json]   # drop retired kinds and stale
                                          # generations

``--dir`` picks the target (default ``REPRO_STORE_DIR`` /
``~/.cache/repro``).
"""

from __future__ import annotations

import json


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-store",
        description="Inspect, clear or collect the persistent program store.",
    )
    parser.add_argument(
        "--dir",
        default=None,
        help="store directory (default: REPRO_STORE_DIR or ~/.cache/repro)",
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
    gc = sub.add_parser(
        "gc",
        help="drop entries of retired kinds and from stale generations",
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

    from repro.store import BlueprintStore

    store = BlueprintStore(directory=args.dir, enabled=True)
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
            print(
                f"entries:  {stats['entries']}"
                f"  ({stats['payload_bytes']} payload bytes,"
                f" {stats['bytes']} on disk)"
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
    elif args.command == "gc":
        from repro.store.gc import run_gc

        report = run_gc(store, dry_run=args.dry_run)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            retired = report["retired"]
            stale = report["stale"]
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
            if args.dry_run:
                doomed = retired["entries"] + stale["entries"]
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
    return 0

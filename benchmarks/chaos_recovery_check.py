"""CI chaos-recovery gate: a work-stealing run absorbs seeded faults.

Runs ``repro-shard work`` with three workers pulling from one claim
queue in a shared sqlite store (one ``REPRO_STORE_DIR``), with a seeded
fault per worker (``REPRO_CHAOS_W<i>``):

* worker 0 is SIGKILLed immediately after winning its second claim —
  it dies *holding a live lease*, which must expire and be stolen
  (``reclaims`` in the queue stats);
* worker 1 is SIGKILLed inside its first partial flush, leaving a torn
  file — the merge must skip it and the recovery round must re-execute
  the lost tasks (``requeues``);
* worker 2 runs fault-free, so a survivor is left in round 1 to steal
  worker 0's expired lease.

The gate: the orchestrator must exit 0 with **zero manual
intervention**, the recovered merge must be byte-identical (scores and
rendered tables) to a single-job baseline, and the queue stats must
show at least one reclaimed lease and one requeued task — the visible
trace that recovery actually happened rather than the faults silently
not firing.

Usage::

    python benchmarks/chaos_recovery_check.py [--scale 0.05]
        [--experiment robustness] [--workers 3] [--seed 0]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))  # for benchmarks.common

TRAJECTORY = REPO / "benchmarks" / "results" / "BENCH_synthesis_speed.json"

WORKER_CHAOS = {
    "REPRO_CHAOS_W0": "kill_claim=2",
    "REPRO_CHAOS_W1": "truncate_partial=1",
}


def _base_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="0.05")
    parser.add_argument("--experiment", default="robustness")
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    from benchmarks.common import run_shard_subprocess
    from repro.harness import sharding
    from repro.harness.reporting import record_synthesis_speed

    failures = []
    with tempfile.TemporaryDirectory(prefix="chaos-recovery-") as tmp:
        tmp_path = pathlib.Path(tmp)
        shared = tmp_path / "shared"
        print(
            f"chaos-recovery: {args.experiment} at scale {args.scale},"
            f" {args.workers} workers sharing the sqlite store {shared}"
        )
        print(f"  seeded faults: {WORKER_CHAOS}")

        # Baseline arm: one job, its own sqlite store, no chaos.
        baseline_path = tmp_path / "baseline.pkl"
        run_shard_subprocess(
            args.experiment, "0/1", args.seed, args.scale, baseline_path,
            extra_env={
                "REPRO_STORE": "1",
                "REPRO_STORE_BACKEND": "sqlite",
                "REPRO_STORE_DIR": str(tmp_path / "local"),
            },
        )

        # Chaos arm: the work-stealing pool on one shared sqlite store.
        merged_path = tmp_path / "merged.pkl"
        stats_path = tmp_path / "stats.json"
        env = _base_env()
        env.update(
            {
                "REPRO_SCALE": args.scale,
                "REPRO_STORE": "1",
                "REPRO_STORE_BACKEND": "sqlite",
                "REPRO_STORE_DIR": str(shared),
                **WORKER_CHAOS,
            }
        )
        start = time.perf_counter()
        # Short lease so the killed worker's claim is stolen in seconds.
        code = subprocess.run(
            [
                sys.executable, "-m", "repro.harness.sharding", "work",
                "--experiment", args.experiment,
                "--seed", str(args.seed),
                "--workers", str(args.workers),
                "--lease", "3", "--poll", "0.2", "--fresh",
                "--out", str(merged_path),
                "--stats-out", str(stats_path),
            ],
            env=env,
            cwd=REPO,
            timeout=1200,
        ).returncode
        wall = time.perf_counter() - start
        if code != 0:
            failures.append(f"work pool exited {code}")

        if merged_path.exists():
            merged = sharding.load_partial(merged_path)
            baseline = sharding.load_partial(baseline_path)
            diff = sharding.diff_partials(merged, baseline)
            tables_ok = sharding.render_tables(
                merged
            ) == sharding.render_tables(baseline)
            if diff is not None:
                failures.append(f"recovered merge diverged: {diff}")
            if not tables_ok:
                failures.append("rendered tables differ from baseline")
            print(
                f"  recovered merge {wall:.2f}s |"
                f" {'IDENTICAL' if diff is None and tables_ok else 'MISMATCH'}"
                " vs single-job baseline"
            )
        else:
            merged = None
            failures.append("work pool produced no merged partial")

        if stats_path.exists():
            stats = json.loads(stats_path.read_text())
            print(
                f"  queue stats: attempts {stats['attempts']},"
                f" reclaims {stats['reclaims']},"
                f" requeues {stats['requeues']},"
                f" heartbeats {stats['heartbeats']}"
            )
            if stats["reclaims"] < 1:
                failures.append(
                    "no reclaimed lease recorded — the kill_claim fault"
                    " cannot have fired"
                )
            if stats["requeues"] < 1:
                failures.append(
                    "no requeued task recorded — the torn-partial fault"
                    " cannot have fired"
                )
            if stats["states"].get("done") != stats["total"]:
                failures.append("queue did not drain to all-done")
        else:
            failures.append("work pool wrote no queue stats")

        if merged is not None and not failures:
            record_synthesis_speed(
                TRAJECTORY,
                f"chaos_recovery_{args.experiment}",
                wall,
                merged["timer"],
                scale=float(args.scale),
                workers=args.workers,
                reclaims=stats["reclaims"],
                requeues=stats["requeues"],
            )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        "PASS: the chaotic work-stealing run recovered every seeded fault"
        " (worker kill holding a lease, torn partial)"
        " and merged byte-identical to the unsharded baseline"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

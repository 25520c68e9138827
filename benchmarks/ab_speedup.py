"""Interleaved A/B speedup measurement for the performance layer.

Runs the two timed benches (``bench_program_size`` +
``bench_table1_m2h_overall``) under three configurations, interleaved
round-robin so machine drift hits every arm equally:

* **baseline** — ``REPRO_STORE=0 REPRO_CACHE=0 REPRO_JOBS=1`` (the
  uncached, serial reference the acceptance criteria compare against);
* **cold** — cache + parallel harness on, persistent store enabled but
  pointing at a *fresh* directory every round;
* **warm** — same knobs, store directory pre-populated by one untimed
  priming run (it stores the trained programs, so the warm arm trains
  nothing but still builds and parses its corpora — see
  ``repro.harness.runner.train_method``).

For each run the experiment wall-clock is read from the ``m2h`` entry the
benches append to ``BENCH_synthesis_speed.json``, and the rendered tables
(``table1_m2h_overall.txt``, ``program_size.txt``) are captured and
asserted byte-identical across arms — the speedup only counts if the
science is unchanged.  A summary entry is appended to the trajectory.

Usage::

    python benchmarks/ab_speedup.py [--rounds 3] [--jobs 2] [--scale 0.15]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
RESULTS = REPO / "benchmarks" / "results"
TRAJECTORY = RESULTS / "BENCH_synthesis_speed.json"
TABLES = ("table1_m2h_overall.txt", "program_size.txt")
BENCHES = (
    "benchmarks/bench_program_size.py",
    "benchmarks/bench_table1_m2h_overall.py",
)


def run_benches(env: dict[str, str]) -> tuple[float, dict[str, str]]:
    """One pytest run of the two benches; returns (m2h wall, tables)."""
    before = 0
    if TRAJECTORY.exists():
        before = len(json.loads(TRAJECTORY.read_text())["runs"])
    merged = {**os.environ, **env}
    merged.setdefault("PYTHONPATH", str(REPO / "src"))
    subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            *BENCHES,
            "-q",
            "-p",
            "no:cacheprovider",
        ],
        cwd=REPO,
        env=merged,
        check=True,
        capture_output=True,
    )
    runs = json.loads(TRAJECTORY.read_text())["runs"][before:]
    walls = [run["wall_seconds"] for run in runs if run["experiment"] == "m2h"]
    if not walls:
        raise RuntimeError("benches did not record an m2h experiment run")
    tables = {name: (RESULTS / name).read_text() for name in TABLES}
    return walls[-1], tables


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--jobs",
        type=int,
        # Process fan-out only helps with real cores behind it; a 1-CPU
        # runner measures the cache/store effect serially.
        default=max(1, min(4, os.cpu_count() or 1)),
    )
    parser.add_argument("--scale", default="0.15")
    args = parser.parse_args(argv)

    scratch = pathlib.Path(tempfile.mkdtemp(prefix="repro-ab-"))
    warm_dir = scratch / "warm-store"
    base_env = {"REPRO_SCALE": args.scale}
    arms = {
        "baseline": {
            **base_env,
            "REPRO_STORE": "0",
            "REPRO_CACHE": "0",
            "REPRO_JOBS": "1",
        },
        "cold": {
            **base_env,
            "REPRO_STORE": "1",
            "REPRO_CACHE": "1",
            "REPRO_JOBS": str(args.jobs),
        },
        "warm": {
            **base_env,
            "REPRO_STORE": "1",
            "REPRO_CACHE": "1",
            "REPRO_JOBS": str(args.jobs),
            "REPRO_STORE_DIR": str(warm_dir),
        },
    }

    print(f"priming warm store in {warm_dir} ...", flush=True)
    run_benches(arms["warm"])

    walls: dict[str, list[float]] = {arm: [] for arm in arms}
    tables: dict[str, dict[str, str]] = {}
    for round_index in range(args.rounds):
        for arm, env in arms.items():
            env = dict(env)
            if arm == "cold":
                cold_dir = scratch / f"cold-store-{round_index}"
                shutil.rmtree(cold_dir, ignore_errors=True)
                env["REPRO_STORE_DIR"] = str(cold_dir)
            wall, arm_tables = run_benches(env)
            walls[arm].append(wall)
            tables.setdefault(arm, arm_tables)
            print(
                f"round {round_index + 1}/{args.rounds} {arm:>8}:"
                f" {wall:.3f}s",
                flush=True,
            )

    for arm in ("cold", "warm"):
        for name in TABLES:
            if tables[arm][name] != tables["baseline"][name]:
                raise SystemExit(
                    f"{name} differs between baseline and {arm}:"
                    " optimization changed the science"
                )
    print("tables byte-identical across baseline/cold/warm")

    # Medians: single-core runners see ±20% wall-clock noise, which a
    # mean would fold straight into the ratios.
    medians = {
        arm: statistics.median(values) for arm, values in walls.items()
    }
    cold_speedup = medians["baseline"] / medians["cold"]
    warm_speedup = medians["baseline"] / medians["warm"]
    print(
        f"baseline {medians['baseline']:.3f}s | cold {medians['cold']:.3f}s"
        f" ({cold_speedup:.2f}x) | warm {medians['warm']:.3f}s"
        f" ({warm_speedup:.2f}x)"
    )

    trajectory = json.loads(TRAJECTORY.read_text())
    trajectory["runs"].append(
        {
            "experiment": "ab_m2h_speedup",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "rounds": args.rounds,
            "scale": float(args.scale),
            "jobs": args.jobs,
            "wall_seconds": {
                arm: [round(w, 4) for w in values]
                for arm, values in walls.items()
            },
            "median_seconds": {
                arm: round(median, 4) for arm, median in medians.items()
            },
            "speedup": {
                "cold": round(cold_speedup, 3),
                "warm": round(warm_speedup, 3),
            },
            "tables_identical": True,
        }
    )
    TRAJECTORY.write_text(json.dumps(trajectory, indent=2) + "\n")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

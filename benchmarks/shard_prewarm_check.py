"""CI shard-prewarming gate: a warm-store shard rerun must be faster.

Cross-shard store prewarming ships a warm ``~/.cache/repro`` to every
shard job (``actions/cache`` restore), so shards skip training for any
task a previous workflow run has seen.  This script is the per-shard
proof: it runs one ``repro-shard run`` against the store directory, then
reruns the same shard ``--reps`` more times, and asserts

* every rerun is **score-identical** to the first run (``repro-shard
  diff`` semantics — the store must never change a byte of output; this
  assertion stays exact, never tolerance-based), and
* the reruns beat the first run's wall-clock **robustly** — enforced
  only when the first run was **fully cold** for this shard's own tasks
  (its recorded ``store.program`` counters show misses and no hits).
  A single ``rerun < cold`` comparison flakes on loaded CI runners
  whenever the timings are near-equal (small shards, noisy neighbours),
  so the gate compares the **median over >= 3 reruns** against the cold
  wall-clock times a tolerance factor (:data:`TOLERANCE`):
  ``median(reruns) < cold * TOLERANCE``.  The median discards one-off
  scheduler stalls; the tolerance keeps a statistical tie from failing
  the build.  The clock-independent evidence — the rerun trained
  *nothing* (zero program-store misses) — is asserted separately and
  exactly, so a broken store still fails even if the clocks tie.

A first run that was fully or even partially warm — a restored cache
from a prior workflow run, or from an older commit via the
``restore-keys`` fallback after a task-graph change — leaves the reruns
no margin at all, so only score identity is enforced there.  Probing the
partial's own counters — rather than "does the store hold any program
row" — keeps the gate live when the restored cache was warmed by a
*different* experiment.

The first partial is kept at ``--out`` for the downstream merge job, so
the gate rides along the existing shard-smoke topology at no extra
artifact cost.

Usage::

    python benchmarks/shard_prewarm_check.py --experiment robustness \
        --shard 0/2 --scale 0.15 --out partial-robustness-0.pkl
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
from typing import Sequence

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))  # for benchmarks.common

from benchmarks.common import run_shard_subprocess  # noqa: E402

# The prewarmed median may run up to this factor of the cold wall-clock
# before the gate fails: near-equal timings read as a tie (pass — the
# counter gate already proved the rerun trained nothing), while a rerun
# that is *convincingly* slower still fails.
TOLERANCE = 1.10

# Fewer reps than this and the median is just a noisy point sample.
MIN_REPS = 3


def run_was_cold(partial: dict) -> bool:
    """Whether a recorded shard run trained everything itself.

    Only a fully cold first run (program misses, zero hits) guarantees
    the prewarmed reruns a timing margin that beats CI noise; any hit
    means part of run 1's work was already store-served.
    """
    counters = partial.get("timer", {}).get("counters", {})
    return (
        counters.get("store.program.miss", 0) > 0
        and counters.get("store.program.hit", 0) == 0
    )


def rerun_beats_cold(
    cold_seconds: float,
    rerun_seconds: Sequence[float],
    tolerance: float = TOLERANCE,
) -> bool:
    """The timing verdict: median of the reruns vs the cold wall-clock.

    ``median(reruns) < cold * tolerance`` — the median over >= 3 reps is
    robust to a single scheduler stall, and the tolerance absorbs
    near-equal timings on loaded runners instead of flaking the build.
    Raises on an empty rep list or non-positive inputs (a zero cold
    wall-clock means the measurement itself is broken).
    """
    if not rerun_seconds:
        raise ValueError("no rerun timings to compare")
    if cold_seconds <= 0 or tolerance <= 0:
        raise ValueError(
            f"invalid comparison: cold={cold_seconds!r}"
            f" tolerance={tolerance!r}"
        )
    return statistics.median(rerun_seconds) < cold_seconds * tolerance


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiment", default="m2h")
    parser.add_argument("--shard", default="0/1")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", default="0.15")
    parser.add_argument(
        "--reps",
        type=int,
        default=MIN_REPS,
        help=f"prewarmed reruns to median over (min {MIN_REPS})",
    )
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    reps = max(args.reps, MIN_REPS)

    from repro.harness import sharding

    out = pathlib.Path(args.out)
    run_shard_subprocess(
        args.experiment, args.shard, args.seed, args.scale, out
    )
    first = sharding.load_partial(out)
    first_was_cold = run_was_cold(first)

    rerun_walls: list[float] = []
    rerun_path = out.with_suffix(".prewarmed.pkl")
    for rep in range(reps):
        run_shard_subprocess(
            args.experiment, args.shard, args.seed, args.scale, rerun_path
        )
        rerun = sharding.load_partial(rerun_path)
        # Score identity stays exact for every rep: the store must never
        # change a byte of output, tolerance applies to clocks only.
        verdict = sharding.diff_partials(first, rerun)
        if verdict is not None:
            print(
                f"FAIL: prewarmed rerun {rep + 1} changed scores: {verdict}"
            )
            return 1
        rerun_walls.append(rerun["wall_seconds"])
        if first_was_cold:
            # Clock-independent prewarming evidence: after a cold run 1,
            # every rerun must have trained nothing at all.
            counters = rerun.get("timer", {}).get("counters", {})
            if counters.get("store.program.miss", 0) > 0:
                print(
                    f"FAIL: prewarmed rerun {rep + 1} still trained"
                    f" ({counters['store.program.miss']} program misses)"
                )
                return 1
    rerun_path.unlink()

    median = statistics.median(rerun_walls)
    walls = ", ".join(f"{wall:.2f}s" for wall in rerun_walls)
    print(
        f"shard {args.shard} of {args.experiment}: scores identical"
        f" across {reps} prewarmed reruns;"
        f" run 1 {first['wall_seconds']:.2f}s"
        f" | reruns [{walls}] (median {median:.2f}s)"
    )
    if not first_was_cold:
        print(
            "run 1 was at least partially warm for this shard's tasks"
            " (restored cache) — timing gate skipped"
        )
        return 0
    if not rerun_beats_cold(first["wall_seconds"], rerun_walls):
        print(
            "FAIL: prewarmed rerun median"
            f" ({median:.2f}s) was not faster than the cold run"
            f" ({first['wall_seconds']:.2f}s, tolerance x{TOLERANCE})"
        )
        return 1
    print(f"prewarm speedup: {first['wall_seconds'] / median:.2f}x (median)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

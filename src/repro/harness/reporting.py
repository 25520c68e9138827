"""Table rendering and timing reports for the experiment harness.

Formats results in the layout of the paper's tables so the benchmark output
can be compared side by side with the published numbers, and serializes the
per-stage wall-clock measurements (:class:`repro.core.caching.StageTimer`)
into the ``BENCH_synthesis_speed.json`` trajectory the benchmark suite
emits, so successive PRs can prove their speedups against recorded history.
"""

from __future__ import annotations

import json
import math
import pathlib
import time
from typing import Callable, Sequence

from repro.harness.runner import FieldResult, average


def _fmt(value: float) -> str:
    if math.isnan(value):
        return " NaN"
    return f"{value:.2f}"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[str]],
    title: str = "",
) -> str:
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        if rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def overall_scores_table(
    results: Sequence[FieldResult],
    methods: Sequence[str],
    setting: str,
    title: str,
) -> str:
    """Table 1 layout: average precision / recall / F1 per method."""
    rows = []
    for metric_name, metric in (
        ("Avg. Precision", lambda r: r.precision),
        ("Avg. Recall", lambda r: r.recall),
        ("Avg. F1", lambda r: r.f1),
    ):
        row = [metric_name]
        for method in methods:
            values = [
                metric(r)
                for r in results
                if r.method == method and r.setting == setting
            ]
            row.append(_fmt(average(values)))
        rows.append(row)
    return render_table(["Metric", *methods], rows, title=title)


def per_field_table(
    results: Sequence[FieldResult],
    methods: Sequence[str],
    settings: Sequence[str],
    title: str,
) -> str:
    """Table 2/3/4 layout: per provider+field F1 for each method/setting."""
    keyed: dict[tuple[str, str, str, str], float] = {}
    order: list[tuple[str, str]] = []
    for result in results:
        key = (result.provider, result.field)
        if key not in order:
            order.append(key)
        keyed[(result.provider, result.field, result.method, result.setting)] = (
            result.f1
        )
    headers = ["Domain", "Field"]
    for setting in settings:
        for method in methods:
            suffix = f" ({setting[:4]})" if len(settings) > 1 else ""
            headers.append(f"{method}{suffix}")
    rows = []
    for provider, field in order:
        row = [provider, field]
        for setting in settings:
            for method in methods:
                value = keyed.get((provider, field, method, setting), math.nan)
                row.append(_fmt(value))
        rows.append(row)
    return render_table(headers, rows, title=title)


def wins_summary(
    results: Sequence[FieldResult],
    challenger: str,
    incumbent: str,
    setting: str,
    epsilon: float = 0.005,
) -> str:
    """How many field tasks ``challenger`` wins / ties / loses."""
    by_key: dict[tuple[str, str], dict[str, float]] = {}
    for result in results:
        if result.setting != setting:
            continue
        by_key.setdefault((result.provider, result.field), {})[
            result.method
        ] = result.f1
    wins = ties = losses = 0
    for scores in by_key.values():
        a, b = scores.get(challenger), scores.get(incumbent)
        if a is None or b is None:
            continue
        if math.isnan(b) and not math.isnan(a):
            wins += 1
        elif math.isnan(a):
            losses += 1
        elif a > b + epsilon:
            wins += 1
        elif b > a + epsilon:
            losses += 1
        else:
            ties += 1
    total = wins + ties + losses
    return (
        f"{challenger} vs {incumbent} ({setting}): "
        f"wins {wins}, ties {ties}, losses {losses} out of {total} fields"
    )


def timings_table(timer_snapshot: dict, title: str = "Stage timings") -> str:
    """Render a :meth:`StageTimer.snapshot` as a per-stage table."""
    seconds = timer_snapshot.get("seconds", {})
    calls = timer_snapshot.get("calls", {})
    rows = [
        [stage, f"{seconds[stage]:.3f}", str(calls.get(stage, 0))]
        for stage in sorted(seconds, key=seconds.get, reverse=True)
    ]
    return render_table(["Stage", "Seconds", "Calls"], rows, title=title)


def record_synthesis_speed(
    path: pathlib.Path | str,
    experiment: str,
    wall_seconds: float,
    timer_snapshot: dict,
    **context,
) -> dict:
    """Append one run to the ``BENCH_synthesis_speed.json`` trajectory.

    The file holds ``{"schema": 1, "runs": [...]}``; each entry records the
    experiment name, total wall-clock, the per-stage seconds/calls, the
    cache hit/miss counters, and arbitrary ``context`` (scale, jobs, cache
    flag).  Corrupt or pre-existing non-trajectory files are replaced
    rather than crashing the benchmark run.
    """
    path = pathlib.Path(path)
    counters = timer_snapshot.get("counters", {})
    entry = {
        "experiment": experiment,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "wall_seconds": round(wall_seconds, 4),
        "stages": {
            stage: {
                "seconds": round(value, 4),
                "calls": timer_snapshot.get("calls", {}).get(stage, 0),
            }
            for stage, value in timer_snapshot.get("seconds", {}).items()
        },
        "cache": {
            "hits": sum(
                count for name, count in counters.items()
                if name.startswith("cache.") and name.endswith(".hit")
            ),
            "misses": sum(
                count for name, count in counters.items()
                if name.startswith("cache.") and name.endswith(".miss")
            ),
        },
        # The persistent program store: hits measure how much
        # of the run was served from previous runs' work.
        "store": {
            "hits": sum(
                count for name, count in counters.items()
                if name.startswith("store.") and name.endswith(".hit")
            ),
            "misses": sum(
                count for name, count in counters.items()
                if name.startswith("store.") and name.endswith(".miss")
            ),
        },
        **context,
    }
    trajectory: dict = {"schema": 1, "runs": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, dict) and isinstance(
                loaded.get("runs"), list
            ):
                trajectory = loaded
        except (json.JSONDecodeError, OSError):
            pass
    trajectory["runs"].append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trajectory, indent=2) + "\n")
    return entry

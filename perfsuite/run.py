"""The repository benchmark: cold synthesis and open-loop serving.

Usage::

    python3 perfsuite/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs are generated from ``--seed``; every synthesis
iteration runs in a fresh process with ``REPRO_JOBS=1`` at
``REPRO_SCALE`` :data:`SCALE`):

``html_cold``
    The ``m2h`` experiment (ForgivingXPaths, NDSyn, LRSyn; contemporary
    and longitudinal settings) against an empty store directory.
``image_cold``
    The ``finance`` experiment (AFR, LRSyn) on three of its document
    types (see ``synth.py``) against an empty store.
``serve_open``
    Open-loop load on a ``repro-serve`` process; see ``serve.py``.

A synthesis run covers :data:`SUBSEEDS` corpus seeds derived from
``--seed`` (one corpus seed alone varies too much in difficulty to
compare runs) and repeats them, seed after seed, until ``--seconds``
have passed and every seed ran at least :data:`MIN_ROUNDS` times: one
seed must give one result-table digest.  Each experiment process is
pinned to the quieter CPU, and its times are also stated at the
reference speed of ``calib.py``: on a shared host the same run reads up
to 2x slower in another tenant's busy phase, at the reference speed
within a few percent.

End-to-end metrics (``--trace 0``; "calibrated" is at the reference
speed):

``setup_s``      process start to the first timed operation, calibrated,
                 median of the run's processes (serving: spawn to the
                 first 200 from ``/healthz``, catalog load included, over
                 :data:`serve.SETUP_SPAWNS` spawns);
``wall_s``       synthesis: ``run_*_experiment`` call to scored results with
                 the store flushed, calibrated: each segment of the window
                 (every task, the rest of the call, the flush) at its
                 median over the seed's repeats, summed, median over the
                 corpus seeds; serving: first due request to last answer;
``peak_rss_mb``  median peak RSS of the experiment processes, or of the
                 server process;
``lrsyn_f1.*``   mean LRSyn F1 against the datasets' annotations per
                 setting (served answers, for serving).  ``finance`` has
                 one period, so image_cold repeats its contemporary F1;
``p50_ms``       median time of one operation: a (provider, field) task,
                 calibrated, median over its repeats (Harrell-Davis
                 estimate over the tasks), or a request at the low rate;
``p90_ms``       p90 of the same tasks, or for serving the median over
                 one-second windows of the p90 at the high rate (p99
                 swings by 5x between runs of one seed on a shared host;
                 it is in the record).

The record keeps the raw times beside the calibrated ones.

Failures are counted, not reported as a ratio: ``attempted`` counts
(method, provider, field) tasks or requests and ``failed`` the LRSyn
tasks without a program or the requests unanswered, refused or answered
differently from offline extraction.  Baselines that find no program
are an expected outcome of the paper's tables and are listed in the
record instead.

With ``--trace 1`` the last line carries the per-layer metrics of a
traced run (see ``spans.py``).  The line before the last is a record of
the environment and the details behind the numbers.  Any failed check
exits non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from calib import pin, quiet_cpu

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("html_cold", "image_cold", "serve_open")
EXPERIMENT = {"html_cold": "m2h", "image_cold": "finance"}
SUBSEEDS = {"html_cold": 2, "image_cold": 5}
MIN_ROUNDS = 2
SCALE = "0.05"
CHILD_TIMEOUT = 150

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "lrsyn_f1.contemporary": "ratio", "lrsyn_f1.longitudinal": "ratio",
    "p50_ms": "ms", "p90_ms": "ms",
}
_SERVE_LAYER = {
    f"serve.{name}.{level}": unit
    for level in ("low", "high")
    for name, unit in (
        ("queue_ms.p50", "ms"), ("decode_ms.p50", "ms"),
        ("route_ms.p50", "ms"), ("extract_ms.p50", "ms"),
        ("encode_ms.p50", "ms"), ("client_gap_ms.p50", "ms"),
        ("batch_size.mean", "count"), ("shed_ratio", "ratio"),
        ("route_404_ratio", "ratio"), ("gen_lag_ms.p99", "ms"),
        ("backlog_growth", "count"), ("p50_ms", "ms"), ("p99_ms", "ms"),
    )
}
PER_LAYER = {
    "datasets.corpus_s": "s",
    "html.parse_s": "s", "html.parse_calls": "count", "html.parse_kb": "KiB",
    "html.landmark_s": "s", "core.cluster_s": "s",
    "core.distance_pairs": "count", "core.distance_cache_hit_ratio": "ratio",
    "core.cache_enabled_calls": "count",
    "images.region_synth_s": "s", "images.neighbor_calls": "count",
    "images.neighbor_distinct_ratio": "ratio", "images.neighbor_s": "s",
    "text.value_synth_s": "s",
    "baselines.ndsyn_train_s": "s", "baselines.fxp_train_s": "s",
    "baselines.afr_train_s": "s",
    "core.extract_s": "s", "core.extract_calls": "count",
    "core.abstain_ratio": "ratio",
    "store.flush_s": "s", "store.bytes_written": "B",
    "store.get_s": "s", "store.hit_ratio": "ratio", "store.bytes_read": "B",
    **_SERVE_LAYER,
    "serve.goodput_rps": "1/s",
    **{f"{layer}.self_s": "s" for layer in (
        "harness", "datasets", "html", "images", "core", "text",
        "baselines", "store", "serve",
    )},
    "harness.unattributed_s": "s", "harness.traced_wall_s": "s",
    "harness.tracing_overhead": "ratio",
}


class BenchError(RuntimeError):
    pass


def hd_quantile(values, q: float) -> float:
    """The Harrell-Davis estimate of the ``q`` quantile.

    A mean of all order statistics weighted by the Beta(q(n+1),
    (1-q)(n+1)) mass over each one's rank interval: steadier than the
    single order statistic a nearest-rank percentile picks, where the
    task times are sparse.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        return ordered[0] if ordered else 0.0
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(
            (a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta
        )

    steps = 8  # Simpson's rule on each rank interval
    weights = []
    for i in range(n):
        lo, width = i / n, 1 / n / steps
        total = density(lo) + density(lo + 1 / n)
        for k in range(1, steps):
            total += (4 if k % 2 else 2) * density(lo + k * width)
        weights.append(total * width / 3)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


# ---------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------
def child_env(store_dir: str) -> dict:
    """A clean ``REPRO_*`` environment: nothing inherited, nothing global."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        REPRO_JOBS="1",
        REPRO_SCALE=SCALE,
        REPRO_STORE_DIR=store_dir,
        XDG_CACHE_HOME=os.path.join(OUT, "cache"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    return env


def source_digest() -> str:
    """Content hash of ``src/``: identifies the code without git."""
    hasher = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                hasher.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()[:16]


def environment(seed: int, knobs: dict | None) -> dict:
    import numpy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    return {
        "seed": seed, "commit": commit, "source_digest": source_digest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "platform": platform.platform(),
        "knobs": knobs,
    }


# ---------------------------------------------------------------------
# Synthesis workloads
# ---------------------------------------------------------------------
def iterate(experiment: str, seed: int, store_dir: str,
            trace_path: str | None = None, check_f1: bool = False) -> dict:
    """One fresh-process experiment run; the child's JSON report."""
    cpu, speed = quiet_cpu()
    spec = {
        "experiment": experiment, "seed": seed, "trace": trace_path,
        "check_f1": check_f1, "spin": speed, "spawned": time.monotonic(),
    }
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "synth.py"), json.dumps(spec)],
        env=child_env(store_dir), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT, cwd=ROOT,
        preexec_fn=pin(cpu),
    )
    if proc.returncode != 0:
        raise BenchError(
            f"{experiment} seed {seed} exited {proc.returncode}:\n"
            + proc.stderr[-2000:]
        )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["seed"] = seed
    return report


class Checks:
    """Correctness verdicts collected over a run."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}

    def check(self, report: dict) -> None:
        seed = report["seed"]
        if self.digests.setdefault(seed, report["digest"]) != report["digest"]:
            self.problems.append(f"seed {seed}: two runs, two result digests")
        if report["lrsyn_failed"]:
            self.problems.append(
                f"seed {seed}: {report['lrsyn_failed']} LRSyn tasks without"
                " a program"
            )
        for setting, value in report.get("annotation_f1", {}).items():
            if abs(value - report["lrsyn_f1"].get(setting, -1.0)) > 1e-9:
                self.problems.append(
                    f"seed {seed}: {setting} F1 {report['lrsyn_f1']} differs"
                    f" from the annotation recheck {value}"
                )


def synthesis(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    experiment = EXPERIMENT[workload]
    seeds = [seed * 16 + offset for offset in range(SUBSEEDS[workload])]
    checks = Checks()
    details: dict = {"corpus_seeds": seeds}
    reports: list[dict] = []
    deadline = time.monotonic() + seconds
    # Seed after seed in turn, so one seed's repeats spread over the run.
    while len(reports) < MIN_ROUNDS * len(seeds) or time.monotonic() < deadline:
        store = os.path.join(workdir, f"s{len(reports)}")
        report = iterate(
            experiment, seeds[len(reports) % len(seeds)], store,
            check_f1=not reports,
        )
        shutil.rmtree(store, ignore_errors=True)
        checks.check(report)
        reports.append(report)

    first = {s: next(r for r in reports if r["seed"] == s) for s in seeds}
    f1 = {
        setting: statistics.mean(
            r["lrsyn_f1"].get(setting, r["lrsyn_f1"]["contemporary"])
            for r in first.values()
        )
        for setting in ("contemporary", "longitudinal")
    }
    # Each segment of the timed window — every (provider, field) task,
    # the rest of the experiment call, the store flush — at the reference
    # speed (see synth.calibrate), median over the seed's repeats.
    samples: dict[tuple, list[float]] = {}
    for r in reports:
        cal = r["calibrated"]
        for task, task_s in cal["tasks"].items():
            samples.setdefault((r["seed"], task), []).append(1000 * task_s)
        samples.setdefault((r["seed"], "rest"), []).append(1000 * cal["rest_s"])
        samples.setdefault((r["seed"], "flush"), []).append(1000 * cal["flush_s"])
    segment_ms = {key: statistics.median(v) for key, v in samples.items()}
    task_ms = [
        ms for (_, task), ms in segment_ms.items()
        if task not in ("rest", "flush")
    ]
    wall = {
        s: sum(ms for (seed, _), ms in segment_ms.items() if seed == s) / 1e3
        for s in seeds
    }
    metrics = {
        "setup_s": statistics.median(
            r["calibrated"]["setup_s"] for r in reports
        ),
        "wall_s": statistics.median(wall.values()),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reports),
        "lrsyn_f1.contemporary": f1["contemporary"],
        "lrsyn_f1.longitudinal": f1["longitudinal"],
        "p50_ms": hd_quantile(task_ms, 0.5),
        "p90_ms": hd_quantile(task_ms, 0.9),
    }
    walls = {s: [r["wall_s"] for r in reports if r["seed"] == s] for s in seeds}
    details.update(
        iterations=len(reports), wall_s_by_seed=walls,
        calibrated_wall_s=wall,
        spin_ms=[r["calibrated"]["spin_ms"] for r in reports],
        task_ms=sorted(round(ms, 3) for ms in task_ms),
        baseline_no_program=sorted(
            {name for r in reports for name in r["baseline_no_program"]}
        ),
        store_rows_written=[r["rows_written"] for r in reports],
    )
    return {
        "metrics": metrics, "details": details, "knobs": reports[0]["knobs"],
        "attempted": sum(r["tasks"] for r in reports),
        "failed": sum(r["lrsyn_failed"] for r in reports),
        "problems": checks.problems,
    }


def synthesis_traced(workload: str, seed: int, workdir: str,
                     trace_path: str) -> dict:
    """One untraced and one traced run of the same corpus seed."""
    from spans import layer_metrics

    experiment = EXPERIMENT[workload]
    corpus_seed = seed * 16
    checks = Checks()
    runs = []
    for name, path in (("untraced", None), ("traced", trace_path)):
        store = os.path.join(workdir, name)
        report = iterate(experiment, corpus_seed, store, trace_path=path)
        checks.check(report)
        runs.append(report)
    untraced, traced = runs
    metrics = layer_metrics(traced["trace"], traced["timer_counters"])
    metrics["harness.tracing_overhead"] = traced["wall_s"] / untraced["wall_s"]
    details = {
        "corpus_seed": corpus_seed, "spans": traced["spans"],
        "untraced_wall_s": untraced["wall_s"],
    }
    return {
        "metrics": metrics, "details": details, "knobs": traced["knobs"],
        "attempted": sum(r["tasks"] for r in runs),
        "failed": sum(r["lrsyn_failed"] for r in runs),
        "problems": checks.problems,
    }


# ---------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------
def serve_open(seed: int, seconds: float, trace: bool, workdir: str,
               trace_path: str) -> dict:
    import serve
    from spans import layer_metrics

    store_dir = os.path.join(workdir, "store")
    env = child_env(store_dir)
    # Set-up (export, request pool) runs in this process: same knobs.
    os.environ.update({k: v for k, v in env.items() if k.startswith("REPRO_")})
    try:
        result = serve.run(seed, seconds, trace, workdir, env, trace_path)
    except serve.ServeError as exc:
        raise BenchError(str(exc)) from exc
    if trace:
        metrics = layer_metrics(result.pop("trace_summary"))
        metrics.update(result["metrics"])
        result["metrics"] = metrics
    result["knobs"] = {
        "set": {k: v for k, v in sorted(env.items())
                if k.startswith("REPRO_") and k != "REPRO_STORE_DIR"},
        "rates_rps": serve.RATES, "connections": serve.CONNECTIONS,
    }
    result["problems"] = [] if result["correct"] else [
        f"{result['failed']} of {result['attempted']} requests failed"
    ]
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfsuite: no src/repro next to the benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{'traced' if args.trace else 'timed'}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    trace_path = os.path.join(OUT, f"trace-{tag}.json")
    os.makedirs(workdir)
    try:
        if args.workload == "serve_open":
            result = serve_open(
                args.seed, args.seconds, bool(args.trace), workdir, trace_path
            )
        elif args.trace:
            result = synthesis_traced(
                args.workload, args.seed, workdir, trace_path
            )
        else:
            result = synthesis(
                args.workload, args.seed, args.seconds, workdir
            )
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfsuite: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        # A layer the workload does not reach reports 0: the flat cells.
        values = {name: result["metrics"].get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values, units = result["metrics"], END_TO_END
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
    record = {
        "workload": args.workload, "trace": args.trace,
        "environment": environment(args.seed, result["knobs"]),
        "details": result["details"], "problems": result["problems"],
    }
    print(json.dumps({"record": record}, default=str))
    correct = not result["problems"] and result["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": int(result["attempted"]),
        "failed": int(result["failed"]), "metrics": metrics,
    }))
    if not correct:
        for problem in result["problems"]:
            print(f"perfsuite: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""CI forge-smoke gate: the synthetic document forge is deterministic.

Two checks, both against subprocess arms pinned to **distinct
``PYTHONHASHSEED``** values:

1. *Corpus determinism* — two independent generator invocations
   (``python -m repro.datasets.forge``) must print byte-identical
   per-provider corpus digests, covering HTML sources, degraded image-box
   fingerprints and ground truth.
2. *Run equivalence* — two whole ``forge_html`` runs
   (``repro-shard run``, store off, so both arms train) must diff
   identical (canonical score dump + rendered tables), with the forge
   scale knobs riding through the subprocess environment and the
   ``Experiment.config`` digest guard.

The verdicts and summed wall-clock land in the synthesis-speed trajectory
so CI artifacts record the evidence.

Usage::

    python benchmarks/forge_smoke_check.py [--scale 0.15]
        [--providers 3] [--docs 40] [--seed 0]
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

TRAJECTORY = REPO / "benchmarks" / "results" / "BENCH_synthesis_speed.json"


def subprocess_env(hash_seed: int, **knobs: str) -> dict[str, str]:
    """The ambient environment plus ``knobs``, a pinned hash seed and
    this checkout's ``src`` first on ``PYTHONPATH``."""
    env = {**os.environ, **knobs, "PYTHONHASHSEED": str(hash_seed)}
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def generator_digests(
    providers: int, docs: int, seed: int, hash_seed: int
) -> str:
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.datasets.forge",
            "--providers", str(providers), "--docs", str(docs),
            "--seed", str(seed),
        ],
        env=subprocess_env(hash_seed),
        check=True,
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    return proc.stdout


def forge_html_run(
    out: pathlib.Path, seed: int, hash_seed: int, knobs: dict[str, str]
) -> None:
    """One whole ``repro-shard run --experiment forge_html`` in a child
    process under ``hash_seed``."""
    subprocess.run(
        [
            sys.executable, "-m", "repro.harness.sharding", "run",
            "--experiment", "forge_html", "--seed", str(seed),
            "--out", str(out),
        ],
        env=subprocess_env(hash_seed, **knobs),
        check=True,
        cwd=REPO,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="0.15")
    parser.add_argument("--providers", type=int, default=3)
    parser.add_argument("--docs", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    from repro.harness import sharding
    from repro.harness.reporting import record_synthesis_speed

    knobs = {
        "REPRO_SCALE": args.scale,
        "REPRO_FORGE_PROVIDERS": str(args.providers),
        "REPRO_FORGE_DOCS": str(args.docs),
        # Both arms train: a shared store would hand the second arm the
        # programs the first trained under the other hash seed.
        "REPRO_STORE": "0",
    }
    os.environ.update(knobs)  # render_tables consults the registry

    print(
        f"forge-smoke: {args.providers} providers x {args.docs} docs,"
        f" scale {args.scale}, one hash seed per arm"
    )

    failures = 0
    first = generator_digests(args.providers, 16, args.seed, hash_seed=1)
    second = generator_digests(args.providers, 16, args.seed, hash_seed=2)
    corpora_ok = bool(first.strip()) and first == second
    failures += 0 if corpora_ok else 1
    print(
        f"  generator determinism across hash seeds:"
        f" {'IDENTICAL' if corpora_ok else 'MISMATCH'}"
        f" ({len(first.splitlines())} providers)"
    )

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="forge-smoke-") as tmp:
        runs = []
        for hash_seed in (3, 4):
            path = pathlib.Path(tmp) / f"forge_html-{hash_seed}.pkl"
            forge_html_run(path, args.seed, hash_seed, knobs)
            runs.append(sharding.load_partial(path))
    left, right = runs
    verdict = sharding.diff_partials(left, right)
    tables_ok = sharding.render_tables(left) == sharding.render_tables(right)
    runs_ok = verdict is None and tables_ok
    failures += 0 if runs_ok else 1
    wall = time.perf_counter() - start
    print(
        f"  forge_html under PYTHONHASHSEED 3 and 4:"
        f" {'IDENTICAL' if runs_ok else 'MISMATCH'}"
        f" (scores={verdict or 'ok'},"
        f" tables={'ok' if tables_ok else 'DIFF'}),"
        f" {len(left['graph'])} tasks, {wall:.2f}s"
    )
    record_synthesis_speed(
        TRAJECTORY,
        "forge_smoke",
        wall,
        left["timer"],
        scale=float(args.scale),
        providers=args.providers,
        docs=args.docs,
        identical=runs_ok and corpora_ok,
    )

    if failures:
        print(f"FAIL: {failures} forge-smoke check(s) diverged")
        return 1
    print(
        "PASS: forged corpora regenerate byte-identically and two whole"
        " forge_html runs diff identical across hash seeds"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

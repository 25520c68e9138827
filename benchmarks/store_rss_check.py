"""Peak-RSS gate: a cold m2h run with the store on stays as small as
one with the store off.

Runs ``repro-shard run --experiment m2h`` in two subprocesses, first with
``REPRO_STORE=0`` and then with the store on in an empty store directory,
and fails when the store-on peak RSS exceeds the store-off peak by more
than ``--bound`` (default 10%).  A corpus that ``held()`` drops must be
freed at the switch whatever the store knob says; one left to the cyclic
collector piles up with the store on and shows here.

The peaks are read from ``getrusage(RUSAGE_CHILDREN).ru_maxrss``, the
largest peak of any child waited for.  The store-off child runs first,
so the figure after it is its own peak, and the figure after the
store-on child is the larger of the two: it exceeds the bound exactly
when the store-on peak does.

Usage::

    python benchmarks/store_rss_check.py [--scale 0.05] [--bound 0.10]
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import tempfile


def run_m2h(workdir: str, scale: float, store: bool) -> int:
    """Run m2h cold in a child; return RUSAGE_CHILDREN's ru_maxrss (KiB)."""
    env = dict(os.environ, REPRO_SCALE=str(scale), REPRO_JOBS="1")
    name = "on" if store else "off"
    if store:
        env["REPRO_STORE"] = "1"
        env["REPRO_STORE_DIR"] = os.path.join(workdir, "store")
    else:
        env["REPRO_STORE"] = "0"
    subprocess.run(
        [sys.executable, "-m", "repro.harness.sharding", "run",
         "--experiment", "m2h",
         "--out", os.path.join(workdir, f"m2h-store-{name}.pkl")],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--bound", type=float, default=0.10)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        store_off = run_m2h(workdir, args.scale, store=False)
        both = run_m2h(workdir, args.scale, store=True)
    limit = store_off * (1 + args.bound)
    print(
        f"m2h @{args.scale}: peak RSS store off {store_off / 1024:.1f} MB, "
        f"max of both runs {both / 1024:.1f} MB "
        f"(limit {limit / 1024:.1f} MB)"
    )
    if both > limit:
        print(
            f"store-on peak RSS exceeds the store-off peak by more than "
            f"{args.bound:.0%}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Deterministic fault injection for the execution stack (``REPRO_CHAOS``).

Robustness claims are only as good as their reproductions: this module
turns "a worker died mid-run" into a *seeded, replayable* event.  The
``REPRO_CHAOS`` knob is a comma-separated list of ``site=N`` pairs —
the Nth arrival (1-based) at that site trips the fault, exactly once::

    REPRO_CHAOS="kill_task=2"                     # SIGKILL self after task 2
    REPRO_CHAOS="kill_claim=3,truncate_partial=1" # two independent faults

Sites wired into the stack:

``kill_task``
    The work-stealing worker loop SIGKILLs its own process at a task
    boundary — after completing and snapshotting N tasks — the clean
    dead-worker event (finished work survives, nothing is in flight).
``kill_claim``
    SIGKILL immediately after *claiming* the Nth task, before running
    it: the worker dies holding a live lease, which must expire and be
    stolen by a survivor — the reclaim path.
``truncate_partial``
    :func:`repro.harness.sharding.save_partial` writes a torn file —
    the first half of the pickled bytes, bypassing the atomic
    tmp+replace path — and then the process dies, reproducing a crash
    mid-flush.  Merge must tolerate the torn file; recovery must
    re-execute its missing tasks.

Counters are process-local, so a fleet of worker subprocesses each
carries its own ``REPRO_CHAOS`` (typically different sites per worker).
Every trip is announced on stderr (``[chaos] ...``) so a recovered run
shows exactly which faults it absorbed.

Process death goes through the patchable :func:`kill` hook; in-process
tests replace it (e.g. with an exception) instead of losing the test
runner.  ``seed=N`` is accepted and exposed for forward compatibility
with randomized schedules; the built-in sites are purely counter-based
and need no randomness to be replayable.
"""

from __future__ import annotations

import os
import signal
import sys
import threading

_lock = threading.Lock()
_spec: dict[str, int] | None = None
_counts: dict[str, int] = {}


def parse_spec(raw: str) -> dict[str, int]:
    """``"kill_task=2,kill_claim=1"`` -> ``{"kill_task": 2, ...}``."""
    spec: dict[str, int] = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        site, sep, value = item.partition("=")
        site = site.strip()
        if not sep or not site:
            raise ValueError(
                f"REPRO_CHAOS items must look like site=N, got {item!r}"
            )
        try:
            spec[site] = int(value.strip())
        except ValueError:
            raise ValueError(
                f"REPRO_CHAOS value for {site!r} must be an integer,"
                f" got {value.strip()!r}"
            ) from None
    return spec


def spec() -> dict[str, int]:
    """The active chaos spec (parsed from ``REPRO_CHAOS``, cached)."""
    global _spec
    with _lock:
        if _spec is None:
            _spec = parse_spec(os.environ.get("REPRO_CHAOS", ""))
        return dict(_spec)


def reset(raw: str | None = None) -> None:
    """Clear counters; reparse from ``raw`` (or the env when ``None``)."""
    global _spec
    with _lock:
        _spec = None if raw is None else parse_spec(raw)
        _counts.clear()


def seed() -> int:
    """``seed=N`` from the spec (0 when unset); reserved for randomized
    schedules — the counter sites ignore it."""
    return spec().get("seed", 0)


def trip(site: str) -> bool:
    """Count one arrival at ``site``; True iff this is the fatal one.

    The Nth arrival (1-based, per the spec) trips; every other arrival
    — earlier, later, or at an unconfigured site — is free.  Tripping
    is therefore exactly-once per site per process, which keeps chaos
    runs replayable.
    """
    global _spec
    with _lock:
        if _spec is None:
            _spec = parse_spec(os.environ.get("REPRO_CHAOS", ""))
        target = _spec.get(site)
        if target is None:
            return False
        _counts[site] = _counts.get(site, 0) + 1
        if _counts[site] != target:
            return False
    print(f"[chaos] tripped {site}={target} (pid {os.getpid()})",
          file=sys.stderr, flush=True)
    return True


def kill() -> None:
    """Die as a crashed process would: SIGKILL, no cleanup, no excuses.

    Tests monkeypatch this module attribute to observe the trip without
    losing the test process.
    """
    os.kill(os.getpid(), signal.SIGKILL)

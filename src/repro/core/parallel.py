"""The ``REPRO_JOBS`` worker-count knob.

Synthesis itself is serial.  The experiment harness
(:func:`repro.harness.runner.run_field_tasks`) is the one place that
fans out: with more than one job it runs an experiment's field tasks in
a process pool, and the results are ordered exactly as in-process.
"""

from __future__ import annotations

import os


def jobs() -> int:
    """Worker count from the ``REPRO_JOBS`` env var (default 1 = serial)."""
    raw = os.environ.get("REPRO_JOBS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(
            f"REPRO_JOBS must be an integer (worker count), got {raw!r}"
        ) from None

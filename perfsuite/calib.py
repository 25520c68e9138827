"""Host-speed calibration: a frozen reference workload and CPU choice.

Other tenants of a shared host slow a process by up to 2x, on one vCPU
or both, in phases from milliseconds to a minute long, so a raw time
says as much about the host as about the program.  :func:`spin` runs a
fixed workload whose slowdown tracks the program's; a time ``t`` taken
while the workload ran in ``s`` seconds reads ``t * REFERENCE_SPIN_S / s``
at the reference speed.  The workload is benchmark code that no change
to the program touches, so a faster program still reads faster.
"""

from __future__ import annotations

import os
import time
from html.parser import HTMLParser

# The reference workload's time on an uncontended vCPU of the 2-vCPU
# Xeon VM these figures were first taken on: calibrated times are stated
# at that speed.
REFERENCE_SPIN_S = 0.0029

_PAGE = "".join(
    f'<div class="c{i % 7}"><span id="s{i}">item {i}</span>'
    f'<a href="/x/{i}">link</a></div>'
    for i in range(60)
)
_SETS = [frozenset(range(i % 23, 400, 7 + i % 5)) for i in range(60)]


class _Tags(HTMLParser):
    def handle_starttag(self, tag, attrs):
        self.attrs = getattr(self, "attrs", 0) + len(attrs)


def spin() -> float:
    """Seconds for the fixed ~3 ms reference workload.

    Pure-Python work of the program's kinds, in the proportions that
    tracked its slowdown best: one stdlib HTML parse, a dict-and-string
    loop, and two passes of set algebra and sorting.
    """
    started = time.perf_counter()
    _Tags().feed(_PAGE)
    counts: dict[str, int] = {}
    for i in range(4000):
        key = "k%d" % (i * 7919 % 5000)
        counts[key] = counts.get(key, 0) + len(key)
    for _ in range(2):
        ranked = sorted(
            (len(a & b) / len(a | b), i, tuple(sorted(a)[:5]))
            for i, a in enumerate(_SETS)
            for b in (_SETS[i * 7 % 60],)
        )
        {row[2]: row[0] for row in ranked}
    return time.perf_counter() - started


def spin_on(cpu: int | None) -> float:
    """The fastest of three :func:`spin` runs on ``cpu`` (None: anywhere)."""
    if cpu is None:
        return min(spin() for _ in range(3))
    allowed = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {cpu})
        return min(spin() for _ in range(3))
    finally:
        os.sched_setaffinity(0, allowed)


def quiet_cpu() -> tuple[int | None, float]:
    """The allowed CPU that runs :func:`spin` fastest now, and that time.

    One vCPU can run at half speed for tens of seconds while the other
    runs at full speed, so a measured process is pinned to whichever is
    quiet when it starts.  The CPU is None with fewer than two.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, spin_on(None)
    times = {cpu: spin_on(cpu) for cpu in cpus}
    cpu = min(times, key=times.get)
    return cpu, times[cpu]


def pin(cpu: int | None):
    """A ``preexec_fn`` that pins the child process to ``cpu``."""
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


def at_reference(seconds: float, *spins: float) -> float:
    """``seconds`` scaled to the reference speed by the mean of ``spins``."""
    return seconds * REFERENCE_SPIN_S / (sum(spins) / len(spins))

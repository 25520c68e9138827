"""One synthesis-workload iteration, run in a fresh process by ``run.py``.

Usage (one JSON argument; the result is the last stdout line, as JSON)::

    python perfsuite/synth.py '{"experiment": "m2h", "seed": 3,
        "spawned": <time.monotonic() at spawn>, "trace": "out.json" | null,
        "spin": <calib.spin() seconds just before the spawn>,
        "check_f1": true}'

The store directory, scale and job count come from the ``REPRO_*``
environment the parent sets.  The timed window runs from the
``run_*_experiment`` call until scored results exist *and* the
write-behind store flush has finished.  Everything after it — the result
digest, the F1 recheck against the corpus annotations, rusage — is
outside the window.  Untraced runs also report every segment of the
window at the reference speed (see :func:`calibrate`).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from contextlib import contextmanager, nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calib import at_reference, spin  # noqa: E402

# The finance document types image_cold synthesizes.  The two invoice
# types cost 3-6 s each per corpus seed with a wide seed-to-seed spread,
# so a run pools more corpus seeds of these three instead.
FINANCE_DOC_TYPES = ("CreditNote", "SalesInvoice", "SelfBilledCreditNote")

def _calibrated_timer():
    """A StageTimer that runs the reference workload before every task.

    Each task is then stated at the reference speed of the host around
    it (see :mod:`calib` and :func:`calibrate`).
    """
    from repro.core.caching import StageTimer

    class CalibratedTimer(StageTimer):
        def __init__(self) -> None:
            super().__init__()
            self.spins: list[float] = []
            self.windows: list[tuple[tuple[str, ...], float]] = []

        @contextmanager
        def task(self, key):
            self.spins.append(spin())
            started = time.perf_counter()
            try:
                with super().task(key):
                    yield
            finally:
                self.windows.append(
                    (tuple(key), time.perf_counter() - started)
                )

    return CalibratedTimer()


def calibrate(timer, setup_s: float, spawn_spin: float, drive_s: float,
              flush_s: float, tail: float, after: float) -> dict:
    """The timed segments at the reference speed, in seconds.

    ``spawn_spin`` is the reference time the parent took just before the
    spawn; ``tail`` and ``after`` are taken just before and just after
    the flush.  Set-up is scaled by the spawn's and the first task's
    reference times; task ``i`` by its own and the next task's (``tail``
    for the last); the rest of the experiment call, reference runs
    excluded, by the run's median reference time.
    """
    spins = timer.spins + [tail]
    tasks: dict[str, float] = {}
    for i, (key, seconds) in enumerate(timer.windows):
        name = "|".join(key)
        tasks[name] = tasks.get(name, 0.0) + at_reference(
            seconds, spins[i], spins[i + 1]
        )
    rest = drive_s - sum(s for _, s in timer.windows) - sum(timer.spins)
    median = sorted(spins)[len(spins) // 2]
    return {
        "setup_s": at_reference(setup_s, spawn_spin, spins[0]),
        "tasks": tasks,
        "rest_s": at_reference(rest, median),
        "flush_s": at_reference(flush_s, tail, after),
        "spin_ms": [1000 * min(spins), 1000 * median, 1000 * max(spins)],
    }


def _commit_counter():
    """Rows written to the store backend, counted at its commit call.

    Five or so calls per run, so it stays on in untraced runs: the
    record shows that every cold run wrote its store.
    """
    from repro.store.sqlite import SqliteBackend

    written = {"rows": 0}
    original = SqliteBackend.commit

    def commit(self, rows, stamps, *args, **kwargs):
        rows = list(rows)
        written["rows"] += len(rows)
        return original(self, rows, stamps, *args, **kwargs)

    SqliteBackend.commit = commit
    return written


def _experiment(name: str):
    from repro.harness import images, runner

    if name == "m2h":
        methods = [
            runner.ForgivingXPathsMethod(),
            runner.NdsynMethod(),
            runner.LrsynHtmlMethod(),
        ]
        return lambda seed: runner.run_m2h_experiment(methods, seed=seed)
    if name == "finance":
        methods = [images.AfrMethod(), images.LrsynImageMethod()]
        return lambda seed: images.run_finance_experiment(
            methods, doc_types=FINANCE_DOC_TYPES, seed=seed
        )
    raise SystemExit(f"unknown experiment {name!r}")


def _corpora(name: str, seed: int):
    """The experiment's corpora, rebuilt outside the timed window."""
    from repro.datasets import finance, m2h
    from repro.datasets.base import CONTEMPORARY, LONGITUDINAL
    from repro.harness import runner

    if name == "m2h":
        train, test = runner.scaled(60), runner.scaled(520, minimum=30)
        for provider in m2h.PROVIDERS:
            yield provider, {
                setting: m2h.generate_corpus(
                    provider, train_size=train, test_size=test,
                    setting=setting, seed=seed,
                )
                for setting in (CONTEMPORARY, LONGITUDINAL)
            }
    else:
        test = runner.scaled(160, minimum=25)
        for doc_type in FINANCE_DOC_TYPES:
            corpus = finance.generate_corpus(
                doc_type, train_size=10, test_size=test, seed=seed
            )
            yield doc_type, {CONTEMPORARY: corpus}


def _annotation_f1(name: str, seed: int, results) -> dict:
    """LRSyn F1 per setting, recomputed from the datasets' annotations.

    Reruns each trained LRSyn program on freshly generated test
    documents and scores against the generator's ground truth, so the
    figure does not depend on the harness's own scoring path.
    """
    from repro.core.metrics import Score, score_document

    programs = {
        (r.provider, r.field): r.extractor
        for r in results
        if r.method == "LRSyn" and r.extractor is not None
    }
    per_setting: dict[str, list[float]] = {}
    for provider, corpora in _corpora(name, seed):
        for (owner, field), extractor in programs.items():
            if owner != provider:
                continue
            for setting, corpus in corpora.items():
                score = sum(
                    (
                        score_document(
                            extractor.extract(labeled.doc),
                            labeled.gold(field),
                        )
                        for labeled in corpus.test
                    ),
                    Score(),
                )
                per_setting.setdefault(setting, []).append(score.f1)
    return {s: sum(v) / len(v) for s, v in per_setting.items()}


def _digest(results) -> str:
    rows = sorted(
        (
            r.method, r.provider, r.field, r.setting,
            None if r.score is None else (
                r.score.exact, r.score.recalled, r.score.predicted,
                r.score.gold,
            ),
        )
        for r in results
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def knobs() -> dict:
    """The resolved ``REPRO_*`` configuration this process ran under."""
    from repro.core import parallel
    from repro.core.bitset import bitset_enabled
    from repro.core.caching import cache_enabled
    from repro.harness.runner import scale
    from repro.store import store_backend_name, store_enabled

    resolved = {
        "REPRO_SCALE": scale(),
        "REPRO_JOBS": parallel.jobs(),
        "REPRO_CACHE": cache_enabled(),
        "REPRO_STORE": store_enabled(),
        "REPRO_STORE_BACKEND": store_backend_name(),
        "REPRO_BITSET": bitset_enabled(),
    }
    resolved["set"] = {
        key: value for key, value in sorted(os.environ.items())
        if key.startswith("REPRO_") and key != "REPRO_STORE_DIR"
    }
    return resolved


def main() -> int:
    spec = json.loads(sys.argv[1])
    from repro.core.caching import StageTimer, use_timer
    from repro.harness.runner import flush_corpus_store

    drive = _experiment(spec["experiment"])
    written = _commit_counter()
    tracer = None
    if spec.get("trace"):
        from spans import Tracer

        tracer = Tracer().install()
    # Traced runs measure layers, not speed: no reference loops in them.
    timer = StageTimer() if tracer else _calibrated_timer()
    started = time.monotonic()
    with use_timer(timer), tracer.root() if tracer else nullcontext():
        results = drive(spec["seed"])
        driven = time.monotonic()
        tail = 0.0 if tracer else spin()
        flushing = time.monotonic()
        flush_corpus_store()
        ended = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
    wall = (driven - started) + (ended - flushing)

    lrsyn = [r for r in results if r.method == "LRSyn"]
    f1: dict[str, list[float]] = {}
    for r in lrsyn:
        if r.score is not None:
            f1.setdefault(r.setting, []).append(r.f1)
    report = {
        "setup_s": started - spec["spawned"],
        "wall_s": wall,
        "flush_s": ended - flushing,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": _digest(results),
        "tasks": len({(r.method, r.provider, r.field) for r in results}),
        "lrsyn_failed": len({(r.provider, r.field) for r in lrsyn
                             if r.score is None}),
        "baseline_no_program": sorted({
            f"{r.method}/{r.provider}/{r.field}" for r in results
            if r.method != "LRSyn" and r.score is None
        }),
        "lrsyn_f1": {s: sum(v) / len(v) for s, v in f1.items()},
        "task_ms": {
            "|".join(task): seconds * 1000.0
            for task, seconds in timer.tasks.items()
        },
        "rows_written": written["rows"],
        "knobs": knobs(),
    }
    if spec.get("check_f1"):
        report["annotation_f1"] = _annotation_f1(
            spec["experiment"], spec["seed"], results
        )
    if tracer is None:
        report["calibrated"] = calibrate(
            timer, report["setup_s"], spec["spin"], driven - started,
            ended - flushing, tail, spin(),
        )
    else:
        report["trace"] = tracer.summary()
        report["timer_counters"] = dict(timer.counters)
        report["spans"] = tracer.write_chrome(spec["trace"], os.getpid())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

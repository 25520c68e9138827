"""Experiment runner: trains every method and scores it per field task.

This is the driver behind every table of the paper's evaluation (Section 7).
A :class:`Method` wraps a synthesizer into a uniform ``train`` interface;
:func:`run_m2h_experiment` reproduces the M2H HTML experiments (Tables 1-2)
and the image experiments live in :mod:`repro.harness.images`.

Environment knobs
-----------------

``REPRO_SCALE``
    Global dataset-size multiplier (default ``0.15``).  ``REPRO_SCALE=1``
    runs paper-scale corpora; smaller values shrink every corpus
    proportionally (with per-corpus minimums) so the full benchmark suite
    stays fast while preserving the reported shapes.

``REPRO_JOBS``
    Number of worker processes for the experiment drivers (default ``1`` =
    in-process).  Every driver is a canonical task graph plus one task
    function, run by :func:`run_field_tasks`: in order in-process at one
    job, otherwise fanned out over a process pool.  Field tasks are
    independent — each trains and scores every method in isolation — and
    results are collected in submission order, so the output ordering
    (and hence every rendered table) is identical either way.  Workers
    rebuild their corpora from the experiment seed, so scores are
    bit-identical too.

``REPRO_CACHE``
    Set to ``0`` to disable every memoization layer — the
    :class:`repro.core.caching.DistanceCache` inside ``lrsyn``, the NDSyn
    synthesis memos (selector frontiers, per-group text programs), and
    the HTML document-model memos (document blueprints, short and leaf
    texts) — and with them the persistent store lookups (useful for
    measuring the full effect of the caching subsystem); default on.
    Document indexes stay on either way, because a parsed tree never
    changes: subtree texts, element counts, text queries
    (``find_by_text``), per-tag child lists and the order maps.

``REPRO_STORE`` / ``REPRO_STORE_DIR``
    The persistent content-hash store (:mod:`repro.store`): trained
    extractors survive across runs and CI jobs.  ``REPRO_STORE=0``
    disables it; ``REPRO_STORE_DIR`` overrides ``~/.cache/repro``.
    See ``docs/performance.md``.

Every driver runs its whole canonical task graph unless the caller
passes an explicit ``tasks`` list; :mod:`repro.harness.sharding` (the
``repro-shard`` CLI) runs registered experiments and diffs their results.
"""

from __future__ import annotations

import gc
import math
import os
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from repro.core import parallel
from repro.core.caching import StageTimer, active_timer, cache_enabled, use_timer
from repro.store import entry_key, shared_store

from repro.core.document import SynthesisFailure, TrainingExample
from repro.core.dsl import Extractor, ProgramExtractor
from repro.core.hierarchy import maybe_hierarchical
from repro.core.metrics import Score, score_corpus
from repro.core.synthesis import LrsynConfig, lrsyn
from repro.baselines.forgiving_xpaths import synthesize_forgiving_xpaths
from repro.baselines.ndsyn import synthesize_ndsyn
from repro.datasets import m2h
from repro.datasets.base import CONTEMPORARY, LONGITUDINAL, Corpus
from repro.html.domain import HtmlDomain


def scale() -> float:
    """Global dataset-size multiplier, set via the ``REPRO_SCALE`` env var.

    ``REPRO_SCALE=1`` runs paper-scale corpora; the default (0.15) keeps the
    benchmark suite fast while preserving every reported shape.
    """
    return float(os.environ.get("REPRO_SCALE", "0.15"))


def scaled(count: int, minimum: int = 8) -> int:
    return max(minimum, int(round(count * scale())))


def jobs() -> int:
    """Worker-process count for experiment drivers (``REPRO_JOBS`` env var)."""
    return parallel.jobs()


class Method:
    """A trainable extraction method.

    ``fingerprint_domain`` (a :class:`~repro.core.document.Domain` with
    content fingerprints) opts the method into the persistent *program
    store*: training is deterministic in the example content, so the
    synthesized extractor is persisted keyed by the ordered example
    fingerprints plus :meth:`config_fingerprint`, and warm runs skip
    training entirely.  Extractors already round-trip :mod:`pickle` for
    the process-pool harness, so a store-served program scores
    identically to a freshly trained one.  ``None`` opts out.
    """

    name: str = "method"
    fingerprint_domain = None

    def train(self, examples: Sequence[TrainingExample]) -> Extractor:
        raise NotImplementedError

    def config_fingerprint(self) -> str:
        """Stable description of the method configuration (store key part)."""
        return ""


class LrsynHtmlMethod(Method):
    """LRSyn on HTML (Algorithm 2 + hierarchical upgrade of Section 6.1)."""

    name = "LRSyn"

    def __init__(self, config: LrsynConfig | None = None,
                 hierarchical: bool = True):
        self.domain = HtmlDomain()
        self.fingerprint_domain = self.domain
        self.config = config or LrsynConfig()
        self.hierarchical = hierarchical

    def config_fingerprint(self) -> str:
        return f"{self.config!r}|hierarchical={self.hierarchical}"

    def train(self, examples: Sequence[TrainingExample]) -> Extractor:
        program = lrsyn(self.domain, examples, self.config)
        if self.hierarchical:
            return maybe_hierarchical(
                self.domain, program, examples, self.config
            )
        return ProgramExtractor(program)


class NdsynMethod(Method):
    """The NDSyn global-synthesis baseline."""

    name = "NDSyn"

    def __init__(self) -> None:
        self.fingerprint_domain = HtmlDomain()

    def train(self, examples: Sequence[TrainingExample]) -> Extractor:
        return synthesize_ndsyn(examples)


class ForgivingXPathsMethod(Method):
    """The ForgivingXPaths relaxed-XPath baseline."""

    name = "ForgivingXPaths"

    def __init__(self) -> None:
        self.fingerprint_domain = HtmlDomain()

    def train(self, examples: Sequence[TrainingExample]) -> Extractor:
        return synthesize_forgiving_xpaths(examples)


@dataclass
class FieldResult:
    """One (method, provider, field, setting) measurement."""

    method: str
    provider: str
    field: str
    setting: str
    score: Score | None          # None when synthesis failed (NaN)
    extractor: Extractor | None = None

    @property
    def f1(self) -> float:
        return self.score.f1 if self.score is not None else math.nan

    @property
    def precision(self) -> float:
        return self.score.precision if self.score is not None else math.nan

    @property
    def recall(self) -> float:
        return self.score.recall if self.score is not None else math.nan


# Program-store sentinel: deterministic synthesis failures are cached too,
# so warm runs skip the whole failing search.
_FAILURE = "__synthesis_failure__"

# Program keys (or transport labels) already warned about this process:
# an unpicklable program misses the store on *every* warm run, so without
# the once-guard the same program would spam a warning per training call.
_pickle_warned: set[str] = set()


def picklable_or_none(
    extractor: Extractor,
    context: str,
    store=None,
    substrate: str | None = None,
) -> Extractor | None:
    """``extractor`` if it survives a pickle round-trip, else ``None``.

    The one transportability probe shared by the program-store path
    (:func:`train_method`) and the process-pool path
    (:func:`_transportable`), so the two cannot drift.  A failure is
    never silent: the first one per ``context`` (the program store key,
    or a ``method|provider|field`` label on the transport path) warns on
    stderr — the same warn-once degrade the store backends use — and,
    when the probe guards a store write (``store`` given), the drop is
    recorded as a ``dropped_program`` row so ``repro-store stats`` can
    report how many programs are silently retraining on every warm run.
    """
    try:
        pickle.dumps(extractor)
    except Exception as exc:
        if context not in _pickle_warned:
            _pickle_warned.add(context)
            import warnings

            warnings.warn(
                f"unpicklable extractor {type(extractor).__name__}"
                f" ({context}): {type(exc).__name__}: {exc} — the program"
                " cannot be persisted or shipped across processes, so"
                " warm runs will retrain it",
                RuntimeWarning,
                stacklevel=3,
            )
        active_timer().count("store.program.dropped")
        if store is not None and substrate is not None:
            store.put(
                "dropped_program",
                context,
                substrate,
                f"{type(extractor).__name__}: {type(exc).__name__}: {exc}",
            )
        return None
    return extractor


def _program_store_key(
    method: Method, training: Sequence[TrainingExample]
) -> str | None:
    """Content key for one trained program, or ``None`` when not storable."""
    domain = method.fingerprint_domain
    store = shared_store()
    if domain is None or not store.enabled or not cache_enabled():
        return None
    fingerprints = []
    for example in training:
        fingerprint = domain.example_fingerprint(example)
        if fingerprint is None:
            return None
        fingerprints.append(fingerprint)
    return entry_key(
        domain.substrate,
        "program",
        method.name,
        method.config_fingerprint(),
        *fingerprints,
    )


def train_method(
    method: Method, training: Sequence[TrainingExample]
) -> Extractor:
    """Train, consulting the persistent program store first.

    Synthesis is deterministic in the example content, so a stored
    program (or stored failure) is exactly what training would produce;
    only extractors that survive a pickle round-trip are persisted, the
    same transportability bar the process-pool harness applies.
    """
    store = shared_store()
    key = _program_store_key(method, training)
    if key is not None:
        stored = store.get("program", key)
        if stored is not store.MISS:
            active_timer().count("store.program.hit")
            if stored == _FAILURE:
                raise SynthesisFailure(
                    f"{method.name}: synthesis failure (program store)"
                )
            return stored
        active_timer().count("store.program.miss")
    substrate = (
        method.fingerprint_domain.substrate if key is not None else None
    )
    try:
        extractor = method.train(training)
    except SynthesisFailure:
        if key is not None:
            store.put("program", key, substrate, _FAILURE)
        raise
    if key is not None and picklable_or_none(
        extractor, key, store=store, substrate=substrate
    ) is not None:
        store.put("program", key, substrate, extractor)
    return extractor


def evaluate_method(
    method: Method,
    corpora: dict[str, Corpus],
    provider: str,
    field: str,
) -> list[FieldResult]:
    """Train once on the contemporary training set, score on every setting."""
    training = corpora[CONTEMPORARY].training_examples(field)
    try:
        extractor = train_method(method, training)
    except SynthesisFailure:
        return [
            FieldResult(method.name, provider, field, setting, None)
            for setting in corpora
        ]
    results = []
    for setting, corpus in corpora.items():
        with active_timer().stage("score"):
            score = score_corpus(corpus.test_pairs(field, extractor))
        results.append(
            FieldResult(method.name, provider, field, setting, score, extractor)
        )
    return results


def evaluate_on_corpus(
    method: Method,
    corpus: Corpus,
    provider: str,
    field: str,
    setting_label: str,
) -> FieldResult:
    """Train + score against one corpus under an explicit setting label.

    The single-corpus sibling of :func:`evaluate_method`, for experiments
    whose "setting" axis is not the contemporary/longitudinal split —
    the robustness bench labels results by training seed, the ablation
    bench by mechanism.  Goes through :func:`train_method`, so the
    program store and ``REPRO_CACHE`` gating apply exactly as in the
    table experiments.
    """
    training = corpus.training_examples(field)
    try:
        extractor = train_method(method, training)
    except SynthesisFailure:
        return FieldResult(method.name, provider, field, setting_label, None)
    with active_timer().stage("score"):
        score = score_corpus(corpus.test_pairs(field, extractor))
    return FieldResult(
        method.name, provider, field, setting_label, score, extractor
    )


def _transportable(result: FieldResult) -> FieldResult:
    """Make a result safe to ship across a process boundary.

    Extractors are kept when they pickle (LRSyn/NDSyn programs do, and the
    program-size study needs them); ones that cannot cross the boundary are
    dropped — scores are never affected.
    """
    if result.extractor is None:
        return result
    context = f"{result.method}|{result.provider}|{result.field}"
    if picklable_or_none(result.extractor, context) is None:
        return replace(result, extractor=None)
    return result


def run_field_tasks(
    task: Callable[..., list[FieldResult]],
    argument_tuples: Sequence[tuple],
) -> list[FieldResult]:
    """Run one experiment's field tasks, ``task(*arguments)`` per tuple.

    With one job the tasks run in-process, in order.  Otherwise they
    fan out across ``jobs()`` worker processes; futures are consumed in
    submission order, so the concatenated results are ordered exactly as
    the in-process run orders them.  Each worker runs under its own
    :class:`StageTimer`; the snapshot travels back with the results and is
    merged into the parent's active timer, so stage timings and cache
    counters aggregate across processes.  The :func:`held` slot is emptied
    before and after, so every call builds its corpora afresh.  The tasks
    run under :func:`gc_policy`, which is undone on return or raise.
    """
    _drop_held()
    try:
        if jobs() == 1:
            with gc_policy():
                return [
                    result
                    for arguments in argument_tuples
                    for result in task(*arguments)
                ]
        # Imported here: cold in-process runs never load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs()) as pool:
            futures = [
                pool.submit(_run_field_task, task, arguments)
                for arguments in argument_tuples
            ]
            results: list[FieldResult] = []
            for future in futures:
                task_results, timer_snapshot = future.result()
                active_timer().merge(timer_snapshot)
                results.extend(task_results)
        return results
    finally:
        _drop_held()


def _run_field_task(
    task: Callable[..., list[FieldResult]], arguments: tuple
) -> tuple[list[FieldResult], dict]:
    """Worker entry point: run one field task under an isolated timer.

    Runs the task under :func:`gc_policy` like the in-process path,
    and flushes the persistent store before returning so a worker's
    programs are durable even if the pool recycles it.  The worker's
    held corpus stays frozen between its tasks.
    """
    timer = StageTimer()
    with use_timer(timer), gc_policy():
        results = [_transportable(result) for result in task(*arguments)]
    flush_corpus_store()
    return results, timer.snapshot()


# ----------------------------------------------------------------------
# Garbage-collector policy for field tasks
# ----------------------------------------------------------------------
# A held corpus is immutable and lives for all of its provider's tasks,
# and a parsed HTML document is one reference cycle per DOM node (through
# ``parent``).  Under the default thresholds every generation-2 collection
# walks the whole corpus again, while synthesis allocates enough to
# trigger many of them.  Field tasks therefore run with a higher
# generation-0 threshold, and held() moves each freshly loaded corpus into
# the collector's permanent generation (gc.freeze) without a collection
# first: a forced collect on every corpus load costs more than it saves
# at small scales.  The policy is fixed; it changes when memory is
# reclaimed, never what any task computes.
GC_THRESHOLDS = (50_000, 20, 100)

# perf_counter() at the start of the collection in progress.
_gc_started = 0.0


def _count_gc(phase: str, info: dict) -> None:
    """``gc.callbacks`` hook: collections per generation and total pause."""
    global _gc_started
    if phase == "start":
        _gc_started = time.perf_counter()
        return
    timer = active_timer()
    timer.count(f"gc.gen{info['generation']}.collections")
    timer.count(
        "gc.pause_us", round((time.perf_counter() - _gc_started) * 1e6)
    )


@contextmanager
def gc_policy():
    """Run field tasks under :data:`GC_THRESHOLDS`, counting GC pauses.

    Every collection in the window is counted into the active
    :class:`StageTimer` as ``gc.gen{0,1,2}.collections`` and
    ``gc.pause_us``.  The previous thresholds are restored on exit.
    """
    previous = gc.get_threshold()
    gc.set_threshold(*GC_THRESHOLDS)
    gc.callbacks.append(_count_gc)
    try:
        yield
    finally:
        gc.callbacks.remove(_count_gc)
        gc.set_threshold(*previous)


# The last value held() loaded in this process, keyed by (load, key).
_held: dict[tuple, Any] = {}


def _drop_held() -> None:
    """Empty the held() slot and hand its corpus back to the collector.

    The slot held the only reference, so dropping it leaves cyclic
    garbage in the oldest generation, which the next held() load would
    freeze again.  One collection reclaims it first, but only while the
    store or ``REPRO_CACHE`` is off; with both on, collecting at every
    switch measured slower on perfsuite's workloads (docs/performance.md,
    "GC policy").  The rule changes when memory is reclaimed, never what
    any task computes.
    """
    dropped = bool(_held)
    _held.clear()
    gc.unfreeze()
    if dropped and not (shared_store().enabled and cache_enabled()):
        gc.collect()


def held(load: Callable[..., Any], *key) -> Any:
    """``load(*key)`` through a one-slot, per-process holder.

    Every canonical task graph is corpus-major, and a pool worker takes
    its tasks in submission order, so each process sees its corpora
    consecutively: the slot turns a corpus's repeat loads into lookups
    and never holds more than one corpus.  A different ``(load, key)``
    drops the held value before loading.  A loaded value is frozen out
    of the collector's scans until it is dropped (see :func:`gc_policy`).
    """
    slot = (load, key)
    if slot not in _held:
        _drop_held()
        _held[slot] = load(*key)
        gc.freeze()
    return _held[slot]


def table_task(
    methods: Sequence[Method],
    provider: str,
    field: str,
    load: Callable[..., dict[str, Corpus]],
    *load_key,
) -> list[FieldResult]:
    """One ``(provider, field)`` task of a table experiment.

    Scores every method on the settings → corpus dict ``load(*load_key)``,
    obtained through :func:`held`.  The task's timing window includes the
    corpus load it triggers: a worker that draws tasks from k providers
    really does pay k loads, and the cost model should see that.
    """
    with active_timer().task((provider, field)):
        corpora = held(load, *load_key)
        return [
            result
            for method in methods
            for result in evaluate_method(method, corpora, provider, field)
        ]


def labelled_task(
    task_key: tuple[str, ...],
    methods: Sequence[Method],
    provider: str,
    field: str,
    label: str,
    load: Callable[..., Corpus],
    *load_key,
) -> list[FieldResult]:
    """One task of an experiment whose setting axis is a label.

    Like :func:`table_task`, but scores on the single corpus
    ``load(*load_key)`` and labels every result ``label`` (see
    :func:`evaluate_on_corpus`).
    """
    with active_timer().task(task_key):
        corpus = held(load, *load_key)
        return [
            evaluate_on_corpus(method, corpus, provider, field, label)
            for method in methods
        ]


def flush_corpus_store() -> None:
    """Persist the programs put this run (the name predates the store
    holding programs only).

    Benchmarks call it after the experiment (perfsuite's ``wall_s``
    includes it); the store's own ``atexit`` hook covers ad-hoc callers,
    and harness workers call this before returning results, since their
    process may be recycled.
    """
    shared_store().flush()


def paired_corpora(
    generate: Callable[..., Corpus],
    provider: str,
    train_size: int,
    test_size: int,
    seed: int,
) -> dict[str, Corpus]:
    """Contemporary + longitudinal corpora sharing one training set.

    Both settings train on the same contemporary pages, so the
    longitudinal corpus takes the contemporary ``train`` list as it is
    instead of parsing those pages again; its test pages are unchanged.
    Nothing may mutate the shared list.
    """
    contemporary = generate(
        provider, train_size=train_size, test_size=test_size,
        setting=CONTEMPORARY, seed=seed,
    )
    longitudinal = generate(
        provider, train_size=train_size, test_size=test_size,
        setting=LONGITUDINAL, seed=seed, train=contemporary.train,
    )
    return {CONTEMPORARY: contemporary, LONGITUDINAL: longitudinal}


def m2h_corpora(
    provider: str,
    train_size: int,
    test_size: int,
    seed: int = 0,
) -> dict[str, Corpus]:
    """Contemporary + longitudinal corpora sharing one training set
    (:func:`paired_corpora`)."""
    return paired_corpora(
        m2h.generate_corpus, provider, train_size, test_size, seed
    )


def resolve_tasks(
    all_tasks: list[tuple[str, ...]],
    tasks: Sequence[tuple[str, ...]] | None,
) -> list[tuple[str, ...]]:
    """The tasks an experiment driver should run: an explicit ``tasks``
    list (a subset, used by the tests and the registry) wins, else the
    whole canonical graph."""
    return [tuple(task) for task in (all_tasks if tasks is None else tasks)]


def m2h_tasks(
    providers: Sequence[str] = m2h.PROVIDERS,
) -> list[tuple[str, str]]:
    """Canonical M2H task graph: ``(provider, field)``, provider-major."""
    return [
        (provider, field)
        for provider in providers
        for field in m2h.fields_for(provider)
    ]


def run_m2h_experiment(
    methods: Sequence[Method],
    providers: Sequence[str] = m2h.PROVIDERS,
    train_size: int | None = None,
    test_size: int | None = None,
    seed: int = 0,
    tasks: Sequence[tuple[str, str]] | None = None,
) -> list[FieldResult]:
    """The M2H HTML experiment behind Tables 1 and 2.

    Paper scale is 362 training / 3141 test documents over six providers
    (roughly 60/520 per provider); sizes default to the scaled-down
    equivalents (see :func:`scale`).  With ``REPRO_JOBS > 1`` the
    independent ``(provider, field)`` tasks run on a process pool; see the
    module docstring for the determinism guarantees.  An explicit
    ``tasks`` list restricts the run to those tasks of the graph.
    """
    train_size = train_size if train_size is not None else scaled(60)
    test_size = test_size if test_size is not None else scaled(520, minimum=30)
    methods = list(methods)
    return run_field_tasks(
        table_task,
        [
            (methods, provider, field,
             m2h_corpora, provider, train_size, test_size, seed)
            for provider, field in resolve_tasks(
                m2h_tasks(providers), tasks
            )
        ],
    )


def m2h_contemporary_corpus(
    provider: str, train_size: int, test_size: int, seed: int
) -> Corpus:
    """One contemporary-setting M2H corpus.

    The robustness and ablation drivers test on the contemporary period
    only, so they build a single corpus per configuration instead of the
    contemporary+longitudinal pair :func:`m2h_corpora` builds.
    """
    return m2h.generate_corpus(
        provider,
        train_size=train_size,
        test_size=test_size,
        setting=CONTEMPORARY,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Section 7.4 robustness: the training-set-choice experiment
# ----------------------------------------------------------------------
# The paper's robustness check reruns field tasks with differently seeded
# training sets and reports the per-field F1 spread.  Providers/fields
# follow benchmarks/bench_robustness.py; the seed axis becomes part of the
# task graph so the harness runs the experiment like any other.
ROBUSTNESS_PROVIDERS: tuple[str, ...] = ("getthere", "delta", "airasia")
ROBUSTNESS_FIELDS: tuple[str, ...] = ("DTime", "DIata", "RId")
ROBUSTNESS_SEEDS: tuple[int, ...] = (0, 1, 2, 3)
ROBUSTNESS_SETTINGS: tuple[str, ...] = tuple(
    f"s{seed}" for seed in ROBUSTNESS_SEEDS
)


def robustness_tasks(
    providers: Sequence[str] = ROBUSTNESS_PROVIDERS,
    fields: Sequence[str] = ROBUSTNESS_FIELDS,
    seeds: Sequence[int] = ROBUSTNESS_SEEDS,
) -> list[tuple[str, str, str]]:
    """Canonical robustness task graph: ``(provider, field, seed label)``.

    Enumerated provider-major, then seed, then field, so the tasks
    sharing one ``(provider, seed)`` corpus stay consecutive and
    :func:`held` keeps a single live corpus, like the table experiments.
    """
    return [
        (provider, field, f"s{seed}")
        for provider in providers
        for seed in seeds
        for field in fields
    ]


def run_m2h_robustness_experiment(
    methods: Sequence[Method] | None = None,
    providers: Sequence[str] = ROBUSTNESS_PROVIDERS,
    fields: Sequence[str] = ROBUSTNESS_FIELDS,
    seeds: Sequence[int] = ROBUSTNESS_SEEDS,
    train_size: int | None = None,
    test_size: int | None = None,
    seed: int = 0,
    tasks: Sequence[tuple[str, str, str]] | None = None,
) -> list[FieldResult]:
    """Section 7.4 training-set robustness as a first-class experiment.

    Each task ``(provider, field, "sK")`` trains on a corpus seeded with
    ``seed + K`` and scores on that corpus's contemporary test split; the
    seed label lands in ``FieldResult.setting`` so the per-seed scores of
    one field task stay distinguishable.  Routed through the harness
    layer — :func:`held`, :func:`train_method` and the ``REPRO_JOBS``
    pool.
    """
    methods = list(methods) if methods is not None else [LrsynHtmlMethod()]
    train_size = train_size if train_size is not None else scaled(
        133, minimum=10
    )
    test_size = test_size if test_size is not None else scaled(
        267, minimum=20
    )
    return run_field_tasks(
        labelled_task,
        [
            ((provider, field, label), methods, provider, field, label,
             m2h_contemporary_corpus, provider, train_size, test_size,
             seed + int(label[1:]))
            for provider, field, label in resolve_tasks(
                robustness_tasks(providers, fields, seeds), tasks
            )
        ],
    )


def average(values: Sequence[float]) -> float:
    """Mean ignoring NaNs (synthesis failures), NaN on empty."""
    clean = [v for v in values if not math.isnan(v)]
    if not clean:
        return math.nan
    return sum(clean) / len(clean)

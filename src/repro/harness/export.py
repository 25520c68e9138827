"""Program export: make trained extractors discoverable by provider/field.

The program store (:mod:`repro.harness.runner`) keys trained extractors by
the *content* of their training examples — exactly right for warm training
runs, and exactly wrong for a serving process that receives a document and
must find "the TOTAL program for provider forge003".  This module adds the
missing index: a ``serving`` store kind whose rows map
``(dataset, provider, field, method)`` to

* the content-hash **program key** (into the ``program`` kind — programs
  are *referenced*, never duplicated, so training and serving share one
  copy and one invalidation story), and
* the **routing blueprints** — the training documents' whole-document
  blueprints, which is what :mod:`repro.serve.router` measures incoming
  documents against to pick the best provider.

Rows carry the :data:`repro.store.BLUEPRINT_ALGO_VERSION` they were
exported under; the serving loader treats a mismatch as *stale* and serves
a diagnostic 404 instead of unpickling a program trained by incompatible
code.  Serving keys deliberately describe *work* (a provider/field
identity), not document content — they index content-keyed rows rather
than replacing them.

Run via ``repro-serve export --experiment forge_html`` (see
:mod:`repro.serve.cli`) or call :func:`export_experiment` directly.
"""

from __future__ import annotations

from typing import Callable, Sequence

import repro.store as store_mod
from repro.core.caching import cache_enabled
from repro.core.document import SynthesisFailure, TrainingExample
from repro.store import entry_key, shared_store

from repro.harness.runner import (
    LrsynHtmlMethod,
    Method,
    NdsynMethod,
    ForgivingXPathsMethod,
    _program_store_key,
    m2h_contemporary_corpus,
    m2h_tasks,
    scaled,
    train_method,
)

# The store kind holding the provider/field → program index.
SERVING_KIND = "serving"
# Bump when the payload schema below changes shape.
CATALOG_VERSION = 1

# Entry statuses the exporter (and the serving loader) can record.
READY = "ready"
SYNTHESIS_FAILURE = "synthesis-failure"
UNPICKLABLE = "unpicklable"


def serving_entry_key(
    dataset: str, provider: str, field: str, method: str
) -> str:
    """The store key of one serving-catalog row."""
    return entry_key("html", SERVING_KIND, dataset, provider, field, method)


def catalog_payload(
    dataset: str,
    provider: str,
    field: str,
    method: str,
    program_key: str,
    blueprints: Sequence[frozenset],
    status: str,
) -> dict:
    """One serving row's value, self-describing enough to audit offline."""
    return {
        "version": CATALOG_VERSION,
        # Read dynamically so a monkeypatched algo bump stamps exports the
        # same way it moves entry keys.
        "algo": store_mod.BLUEPRINT_ALGO_VERSION,
        "dataset": dataset,
        "provider": provider,
        "field": field,
        "method": method,
        "program_key": program_key,
        "blueprints": tuple(blueprints),
        "status": status,
    }


def export_field(
    dataset: str,
    provider: str,
    field: str,
    method: Method,
    training: Sequence[TrainingExample],
    store=None,
) -> dict:
    """Train (or warm-load) one program and index it for serving.

    Returns a report entry ``{provider, field, method, status,
    program_key}``.  A deterministic :class:`SynthesisFailure` is still
    exported — its catalog row points at the stored ``_FAILURE`` sentinel,
    so the serving layer can answer "this field never synthesized" instead
    of presenting a routing hole.  A program dropped by the pickle probe
    (:func:`repro.harness.runner.picklable_or_none`) is exported as
    ``unpicklable`` for the same reason.
    """
    store = store if store is not None else shared_store()
    key = _program_store_key(method, training)
    if key is None:
        raise RuntimeError(
            "serving export needs program-store keys: enable the store"
            " (REPRO_STORE) and caching (REPRO_CACHE), and use a method"
            " with a fingerprint domain"
        )
    status = READY
    try:
        train_method(method, training)
    except SynthesisFailure:
        status = SYNTHESIS_FAILURE
    if status is READY and store.get("program", key) is store.MISS:
        # Trained but never persisted: the pickle probe dropped it.
        status = UNPICKLABLE
    domain = method.fingerprint_domain
    blueprints: list[frozenset] = []
    for example in training:
        blueprint = domain.document_blueprint(example.doc)
        if blueprint not in blueprints:
            blueprints.append(blueprint)
    store.put(
        SERVING_KIND,
        serving_entry_key(dataset, provider, field, method.name),
        domain.substrate,
        catalog_payload(
            dataset, provider, field, method.name, key, blueprints, status
        ),
        overwrite=True,
    )
    return {
        "provider": provider,
        "field": field,
        "method": method.name,
        "status": status,
        "program_key": key,
    }


# ----------------------------------------------------------------------
# Experiment-level export
# ----------------------------------------------------------------------
METHOD_FACTORIES: dict[str, Callable[[], Method]] = {
    "LRSyn": LrsynHtmlMethod,
    "NDSyn": NdsynMethod,
    "ForgivingXPaths": ForgivingXPathsMethod,
}


def _forge_tasks() -> list[tuple[str, str]]:
    from repro.harness.forge import forge_html_tasks

    return forge_html_tasks()


def _forge_training_corpus(provider: str, train_size, test_size, seed):
    from repro.datasets.base import CONTEMPORARY
    from repro.harness.forge import forge_corpora, forge_html_sizes

    default_train, default_test = forge_html_sizes()
    return forge_corpora(
        provider,
        train_size if train_size is not None else default_train,
        test_size if test_size is not None else default_test,
        seed,
    )[CONTEMPORARY]


def _m2h_training_corpus(provider: str, train_size, test_size, seed):
    return m2h_contemporary_corpus(
        provider,
        train_size if train_size is not None else scaled(60),
        test_size if test_size is not None else scaled(520, minimum=30),
        seed,
    )


# dataset -> (task enumerator, contemporary-training-corpus loader).
EXPORTABLE: dict[str, tuple[Callable, Callable]] = {
    "forge_html": (_forge_tasks, _forge_training_corpus),
    "m2h": (m2h_tasks, _m2h_training_corpus),
}


def export_experiment(
    experiment: str,
    methods: Sequence[Method | str] | None = None,
    providers: Sequence[str] | None = None,
    train_size: int | None = None,
    test_size: int | None = None,
    seed: int = 0,
    store=None,
) -> dict:
    """Export every (provider, field, method) program of one experiment.

    Rides the warm store: providers already trained by a harness run cost
    one program-store hit per field, a cold store trains for real.
    Returns a report ``{"experiment", "entries": [...], "counts":
    {status: n}}`` and flushes the store so another process (the
    server) sees the rows immediately.
    """
    if experiment not in EXPORTABLE:
        raise ValueError(
            f"unknown experiment {experiment!r}:"
            f" exportable are {'/'.join(sorted(EXPORTABLE))}"
        )
    store = store if store is not None else shared_store()
    if not store.enabled or not cache_enabled():
        raise RuntimeError(
            "serving export writes the persistent store: REPRO_STORE=0 /"
            " REPRO_CACHE=0 cannot export"
        )
    if methods is None:
        methods = [LrsynHtmlMethod(), NdsynMethod()]
    methods = [
        METHOD_FACTORIES[m]() if isinstance(m, str) else m for m in methods
    ]
    tasks_fn, corpus_fn = EXPORTABLE[experiment]
    tasks = tasks_fn()
    if providers is not None:
        wanted = set(providers)
        tasks = [task for task in tasks if task[0] in wanted]
    entries: list[dict] = []
    counts: dict[str, int] = {}
    corpus = None
    current: str | None = None
    for provider, field in tasks:
        if provider != current:
            corpus = corpus_fn(provider, train_size, test_size, seed)
            current = provider
        training = corpus.training_examples(field)
        if not training:
            continue
        for method in methods:
            entry = export_field(
                experiment, provider, field, method, training, store=store
            )
            entries.append(entry)
            counts[entry["status"]] = counts.get(entry["status"], 0) + 1
    store.flush()
    return {"experiment": experiment, "entries": entries, "counts": counts}

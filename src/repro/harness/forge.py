"""Forge experiment drivers: the synthetic corpus as a first-class workload.

``forge_html`` evaluates NDSyn and LRSyn over the forged HTML providers in
both settings (drifted longitudinal test pages); ``forge_images`` runs the
image method set over degraded scans.  Both are a task graph run by the
table drivers' own task function (:func:`repro.harness.runner.table_task`)
— program store, ``REPRO_JOBS`` fan-out, ``REPRO_SHARD`` task
resolution — so the forge doubles as a store/scheduler stress
workload at whatever size ``REPRO_FORGE_PROVIDERS`` ×
``REPRO_FORGE_DOCS`` dials in.
"""

from __future__ import annotations

from typing import Sequence

from repro.datasets import forge
from repro.datasets.base import Corpus
from repro.harness.runner import (
    FieldResult,
    LrsynHtmlMethod,
    Method,
    NdsynMethod,
    paired_corpora,
    resolve_tasks,
    run_field_tasks,
    scale,
    table_task,
)


def forge_html_tasks() -> list[tuple[str, str]]:
    return [
        (provider, field)
        for provider in forge.forge_providers()
        for field in forge.fields_for(provider)
    ]


def forge_image_tasks() -> list[tuple[str, str]]:
    return [
        (provider, field)
        for provider in forge.forge_providers()
        for field in forge.image_fields_for(provider)
    ]


def forge_html_methods() -> list[Method]:
    return [NdsynMethod(), LrsynHtmlMethod()]


def forge_image_methods() -> list[Method]:
    from repro.harness.images import AfrMethod, LrsynImageMethod

    return [AfrMethod(), LrsynImageMethod()]


def forge_html_sizes() -> tuple[int, int]:
    """(train, test) per provider: ``REPRO_FORGE_DOCS`` split 1:3, scaled."""
    docs = forge.forge_docs()
    return (
        max(3, round(docs * 0.25 * scale())),
        max(4, round(docs * 0.75 * scale())),
    )


def forge_image_sizes() -> tuple[int, int]:
    """Image pages cost far more than HTML pages; keep the split smaller."""
    docs = forge.forge_docs()
    return (
        max(3, round(docs * 0.12 * scale())),
        max(4, round(docs * 0.30 * scale())),
    )


def forge_corpora(
    provider: str, train_size: int, test_size: int, seed: int
) -> dict[str, Corpus]:
    """Contemporary + longitudinal forge corpora sharing one training set
    (:func:`repro.harness.runner.paired_corpora`)."""
    return paired_corpora(
        forge.generate_corpus, provider, train_size, test_size, seed
    )


def run_forge_html_experiment(
    methods: Sequence[Method] | None = None,
    train_size: int | None = None,
    test_size: int | None = None,
    seed: int = 0,
    shard=None,
    tasks: Sequence[tuple[str, str]] | None = None,
) -> list[FieldResult]:
    """The forged-provider HTML experiment (both settings)."""
    methods = list(methods) if methods is not None else forge_html_methods()
    default_train, default_test = forge_html_sizes()
    train_size = train_size if train_size is not None else default_train
    test_size = test_size if test_size is not None else default_test
    return run_field_tasks(
        table_task,
        [
            (methods, provider, field,
             forge_corpora, provider, train_size, test_size, seed)
            for provider, field in resolve_tasks(
                forge_html_tasks(), shard, tasks
            )
        ],
    )


def run_forge_images_experiment(
    methods: Sequence[Method] | None = None,
    train_size: int | None = None,
    test_size: int | None = None,
    seed: int = 0,
    shard=None,
    tasks: Sequence[tuple[str, str]] | None = None,
) -> list[FieldResult]:
    """The forged-provider degraded-scan experiment (contemporary only)."""
    from repro.harness.images import run_image_tasks

    methods = list(methods) if methods is not None else forge_image_methods()
    default_train, default_test = forge_image_sizes()
    train_size = train_size if train_size is not None else default_train
    test_size = test_size if test_size is not None else default_test
    return run_image_tasks(
        "forge_images", methods,
        resolve_tasks(forge_image_tasks(), shard, tasks),
        train_size, test_size, seed,
    )

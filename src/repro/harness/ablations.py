"""Ablation experiment driver: mechanism x provider x field tasks.

The ablation bench (``benchmarks/bench_ablations.py``) quantifies two of
LRSyn's design mechanisms against corpora from the real datasets:

* ``blueprint`` — Algorithm 1's blueprint check, ablated by raising the
  image config's ``blueprint_threshold`` to 1.0 (every landmark
  occurrence passes), measured on the Finance ``SalesInvoice.RefNo``
  task where the "Reference No" landmark is a substring of another
  label;
* ``hierarchy`` — the Section 6.1 hierarchical-landmark upgrade, ablated
  with ``LrsynHtmlMethod(hierarchical=False)``, measured on the M2H
  ``getthere`` fields whose "Depart:" landmark also occurs in the car
  section.

Each canonical task is ``(mechanism, provider, field)``; the driver runs
the mechanism's baseline *and* ablated method variant on the task's
corpus and labels results with the mechanism in ``FieldResult.setting``.
Everything routes through the harness layer
(:func:`~repro.harness.runner.held`, :func:`train_method` via
:func:`evaluate_on_corpus`, the ``REPRO_JOBS`` pool, ``REPRO_SHARD``),
so the memo tables, the persistent program store and the shard
scheduler apply.

(The third prose mechanism, layout-conditional synthesis, is exercised on
a purpose-built synthetic corpus directly in the bench: it has no dataset
generator and completes in milliseconds.)
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.datasets.base import Corpus
from repro.harness.images import IMAGE_CONFIG, LrsynImageMethod, image_corpus
from repro.harness.runner import (
    FieldResult,
    LrsynHtmlMethod,
    Method,
    labelled_task,
    m2h_contemporary_corpus,
    resolve_tasks,
    run_field_tasks,
    scaled,
)

BLUEPRINT_MECHANISM = "blueprint"
HIERARCHY_MECHANISM = "hierarchy"
ABLATION_SETTINGS: tuple[str, ...] = (
    BLUEPRINT_MECHANISM,
    HIERARCHY_MECHANISM,
)

TaskKey = tuple[str, str, str]


def ablation_tasks() -> list[TaskKey]:
    """Canonical ablation task graph: ``(mechanism, provider, field)``."""
    return [
        (BLUEPRINT_MECHANISM, "SalesInvoice", "RefNo"),
        (HIERARCHY_MECHANISM, "getthere", "DTime"),
        (HIERARCHY_MECHANISM, "getthere", "DDate"),
    ]


def loose_image_config():
    """IMAGE_CONFIG with the blueprint gate disabled (threshold 1.0)."""
    return dataclasses.replace(IMAGE_CONFIG, blueprint_threshold=1.0)


def ablation_methods() -> list[Method]:
    """The canonical method-variant set, in (baseline, ablated) pairs.

    Baselines keep the plain ``LRSyn`` name — the merged table then shows
    one baseline column and one column per ablated variant; the variants
    carry distinct names (which also keeps their program-store keys
    apart).  This list defines the experiment's method-name digest; the
    driver constructs the same variants internally, so a caller-supplied
    method list is deliberately not part of the ablation contract.
    """
    gated = LrsynImageMethod()
    ungated = LrsynImageMethod(loose_image_config())
    ungated.name = "LRSyn[no-blueprint]"
    hierarchical = LrsynHtmlMethod()
    flat = LrsynHtmlMethod(hierarchical=False)
    flat.name = "LRSyn[flat]"
    return [gated, ungated, hierarchical, flat]


def _mechanism_variants(mechanism: str) -> list[Method]:
    methods = ablation_methods()
    if mechanism == BLUEPRINT_MECHANISM:
        return methods[:2]
    if mechanism == HIERARCHY_MECHANISM:
        return methods[2:]
    raise ValueError(f"unknown ablation mechanism {mechanism!r}")


def _mechanism_sizes(
    mechanism: str, train_size: int | None, test_size: int | None
) -> tuple[int, int]:
    """Corpus sizes per mechanism (explicit overrides win).

    Defaults reproduce the pre-refactor bench at the default
    ``REPRO_SCALE=0.15``: blueprint 10/40 (the finance experiment's fixed
    10 training images), hierarchy 20/60.
    """
    if mechanism == BLUEPRINT_MECHANISM:
        return (
            train_size if train_size is not None else 10,
            test_size if test_size is not None else scaled(267, minimum=16),
        )
    return (
        train_size if train_size is not None else scaled(133, minimum=10),
        test_size if test_size is not None else scaled(400, minimum=20),
    )


def _ablation_corpus(
    mechanism: str,
    provider: str,
    train_size: int,
    test_size: int,
    seed: int,
) -> Corpus:
    if mechanism == BLUEPRINT_MECHANISM:
        return image_corpus("finance", provider, train_size, test_size, seed)
    return m2h_contemporary_corpus(provider, train_size, test_size, seed)


def run_ablations_experiment(
    methods: Sequence[Method] | None = None,
    train_size: int | None = None,
    test_size: int | None = None,
    seed: int = 0,
    shard=None,
    tasks: Sequence[TaskKey] | None = None,
) -> list[FieldResult]:
    """Run the ablation tasks; two results (baseline, ablated) per task.

    ``methods`` is accepted for driver-signature uniformity with the
    table experiments but ignored: the variant pairs are fixed per
    mechanism (see :func:`ablation_methods`).  ``train_size`` /
    ``test_size`` override both mechanisms' corpus sizes (test-suite
    shrinking); default sizes are per mechanism.
    """
    del methods  # the variant set is the experiment definition
    return run_field_tasks(
        labelled_task,
        [
            ((mechanism, provider, field),
             _mechanism_variants(mechanism), provider, field, mechanism,
             _ablation_corpus, mechanism, provider,
             *_mechanism_sizes(mechanism, train_size, test_size), seed)
            for mechanism, provider, field in resolve_tasks(
                ablation_tasks(), shard, tasks
            )
        ],
    )

"""Image-domain experiment drivers (Tables 3, 4 and 5)."""

from __future__ import annotations

import functools
from typing import Sequence

from repro.baselines.afr import train_afr
from repro.core.caching import active_timer
from repro.core.document import TrainingExample
from repro.core.dsl import Extractor, ProgramExtractor
from repro.core.synthesis import LrsynConfig, lrsyn
from repro.datasets import finance, m2h_images
from repro.harness.runner import (
    FieldResult,
    Method,
    cached_corpora,
    evaluate_method,
    jobs,
    resolve_tasks,
    run_field_jobs,
    scaled,
)
from repro.images.domain import ImageDomain

# OCR noise perturbs blueprints and geometry, so unlike the HTML domain the
# image experiments run with positive thresholds (Section 7's threshold
# discussion is about HTML; blueprints in the image domain are compared up
# to BoxSummary drift).
IMAGE_CONFIG = LrsynConfig(
    fine_threshold=0.35,
    merge_threshold=0.3,
    blueprint_threshold=0.5,
    max_candidates=10,
)


class LrsynImageMethod(Method):
    """LRSyn instantiated on the form-images domain (Section 5.2)."""

    name = "LRSyn"

    def __init__(self, config: LrsynConfig | None = None):
        self.config = config or IMAGE_CONFIG
        self.fingerprint_domain = ImageDomain()

    def config_fingerprint(self) -> str:
        return repr(self.config)

    def train(self, examples: Sequence[TrainingExample]) -> Extractor:
        domain = ImageDomain()
        return ProgramExtractor(lrsyn(domain, examples, self.config))


class AfrMethod(Method):
    """The simulated Azure Form Recognizer baseline."""

    name = "AFR"

    def __init__(self) -> None:
        self.fingerprint_domain = ImageDomain()

    def train(self, examples: Sequence[TrainingExample]) -> Extractor:
        return train_afr(examples)


def run_finance_experiment(
    methods: Sequence[Method],
    doc_types: Sequence[str] = finance.DOC_TYPES,
    train_size: int = 10,
    test_size: int | None = None,
    seed: int = 0,
    shard=None,
    tasks: Sequence[tuple[str, str]] | None = None,
) -> list[FieldResult]:
    """Table 3: the Finance dataset (34 field tasks, 10 training images)."""
    test_size = test_size if test_size is not None else scaled(160, minimum=25)
    run_tasks = resolve_tasks(
        [
            (doc_type, field_name)
            for doc_type in doc_types
            for field_name in finance.FINANCE_FIELDS[doc_type]
        ],
        shard,
        tasks,
    )
    return _run_image_tasks("finance", methods, run_tasks,
                            train_size, test_size, seed)


def _run_image_tasks(
    dataset: str,
    methods: Sequence[Method],
    run_tasks: Sequence[tuple[str, str]],
    train_size: int,
    test_size: int,
    seed: int,
) -> list[FieldResult]:
    """Shared serial/parallel driver for both image experiments."""
    if jobs() > 1:
        return run_field_jobs(
            _image_field_task,
            [
                (dataset, list(methods), provider, field_name,
                 train_size, test_size, seed)
                for provider, field_name in run_tasks
            ],
        )
    results: list[FieldResult] = []
    corpora: dict | None = None
    current_provider: str | None = None
    for provider, field_name in run_tasks:
        # The timing window includes the corpus build the task triggers
        # (same attribution as the HTML serial loop).
        with active_timer().task((provider, field_name)):
            if provider != current_provider:
                corpus = image_corpus(
                    dataset, provider, train_size, test_size, seed
                )
                corpora = {corpus.train[0].setting: corpus}
                current_provider = provider
            for method in methods:
                results.extend(
                    evaluate_method(method, corpora, provider, field_name)
                )
    return results


def image_corpus(
    dataset: str, provider: str, train_size: int, test_size: int, seed: int
):
    """Generate (or load from the persistent store) one image corpus.

    Shared by the table drivers here and the blueprint-check ablation
    (:mod:`repro.harness.ablations`), so both hit the same corpus-store
    entries — against whichever backend ``shared_store()`` resolved
    (local sqlite, or a ``repro-store serve`` daemon via
    ``REPRO_STORE_URL``), and with the liveness markers ``repro-store
    gc`` needs written along the way.
    """
    generate = (
        finance.generate_corpus
        if dataset == "finance"
        else m2h_images.generate_corpus
    )
    return cached_corpora(
        dataset,
        lambda: generate(
            provider, train_size=train_size, test_size=test_size, seed=seed
        ),
        provider=provider,
        train_size=train_size,
        test_size=test_size,
        seed=seed,
    )


def _image_field_task(
    dataset: str,
    methods: Sequence[Method],
    provider: str,
    field_name: str,
    train_size: int,
    test_size: int,
    seed: int,
) -> list[FieldResult]:
    """One parallel unit of the image experiments (seeded corpus rebuild)."""
    with active_timer().task((provider, field_name)):
        corpus = _worker_image_corpus(
            dataset, provider, train_size, test_size, seed
        )
        corpora = {corpus.train[0].setting: corpus}
        results: list[FieldResult] = []
        for method in methods:
            results.extend(
                evaluate_method(method, corpora, provider, field_name)
            )
    return results


@functools.lru_cache(maxsize=2)
def _worker_image_corpus(
    dataset: str, provider: str, train_size: int, test_size: int, seed: int
):
    """Per-worker corpus memo (see ``_worker_m2h_corpora`` for the exact
    guarantee): consecutive field tasks of one provider hit the memo
    instead of regenerating the seeded corpus."""
    return image_corpus(dataset, provider, train_size, test_size, seed)


def run_m2h_images_experiment(
    methods: Sequence[Method],
    providers: Sequence[str] = m2h_images.IMAGE_PROVIDERS,
    train_size: int = 10,
    test_size: int | None = None,
    seed: int = 0,
    shard=None,
    tasks: Sequence[tuple[str, str]] | None = None,
) -> list[FieldResult]:
    """Table 4: the M2H-Images dataset (print + scan + OCR pipeline)."""
    test_size = test_size if test_size is not None else scaled(120, minimum=25)
    run_tasks = resolve_tasks(
        [
            (provider, field_name)
            for provider in providers
            for field_name in m2h_images.fields_for(provider)
        ],
        shard,
        tasks,
    )
    return _run_image_tasks("m2h_images", methods, run_tasks,
                            train_size, test_size, seed)

"""Image-domain experiment drivers (Tables 3, 4 and 5)."""

from __future__ import annotations

from typing import Sequence

from repro.baselines.afr import train_afr
from repro.core.document import TrainingExample
from repro.core.dsl import Extractor, ProgramExtractor
from repro.core.synthesis import LrsynConfig, lrsyn
from repro.datasets import finance, m2h_images
from repro.datasets.base import Corpus
from repro.harness.runner import (
    FieldResult,
    Method,
    resolve_tasks,
    run_field_tasks,
    scaled,
    table_task,
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


def finance_tasks(
    doc_types: Sequence[str] = finance.DOC_TYPES,
) -> list[tuple[str, str]]:
    """Canonical Finance task graph: ``(doc_type, field)``."""
    return [
        (doc_type, field_name)
        for doc_type in doc_types
        for field_name in finance.FINANCE_FIELDS[doc_type]
    ]


def m2h_images_tasks(
    providers: Sequence[str] = m2h_images.IMAGE_PROVIDERS,
) -> list[tuple[str, str]]:
    """Canonical M2H-Images task graph: ``(provider, field)``."""
    return [
        (provider, field_name)
        for provider in providers
        for field_name in m2h_images.fields_for(provider)
    ]


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
    return run_image_tasks(
        "finance", methods,
        resolve_tasks(finance_tasks(doc_types), shard, tasks),
        train_size, test_size, seed,
    )


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
    return run_image_tasks(
        "m2h_images", methods,
        resolve_tasks(m2h_images_tasks(providers), shard, tasks),
        train_size, test_size, seed,
    )


def run_image_tasks(
    dataset: str,
    methods: Sequence[Method],
    run_tasks: Sequence[tuple[str, str]],
    train_size: int,
    test_size: int,
    seed: int,
) -> list[FieldResult]:
    """Run ``(provider, field)`` tasks of an image dataset (one setting)."""
    methods = list(methods)
    return run_field_tasks(
        table_task,
        [
            (methods, provider, field_name,
             image_corpora, dataset, provider, train_size, test_size, seed)
            for provider, field_name in run_tasks
        ],
    )


def image_corpus(
    dataset: str, provider: str, train_size: int, test_size: int, seed: int
) -> Corpus:
    """Generate one image corpus.

    Shared by the table drivers here and the blueprint-check ablation
    (:mod:`repro.harness.ablations`).  ``forge_images`` is the forge's
    degraded-scan corpus.
    """
    if dataset == "forge_images":
        from repro.datasets.forge import generate_image_corpus as generate
    elif dataset == "finance":
        generate = finance.generate_corpus
    else:
        generate = m2h_images.generate_corpus
    return generate(
        provider, train_size=train_size, test_size=test_size, seed=seed
    )


def image_corpora(
    dataset: str, provider: str, train_size: int, test_size: int, seed: int
) -> dict[str, Corpus]:
    """:func:`image_corpus` as the one-setting dict :func:`table_task`
    scores."""
    corpus = image_corpus(dataset, provider, train_size, test_size, seed)
    return {corpus.train[0].setting: corpus}

"""The M2H-Images dataset (Table 4): emails printed, scanned and OCR'd.

Four of the six M2H providers are converted to images (the paper excludes
two domains where the OCR service produced extremely poor results; we follow
suit by converting ``aeromexico``, ``getthere``, ``iflyalaskaair`` and
``mytripsamexgbt``).

This dataset "exhibits more variations at the visual level" than Finance:
scans carry larger translations and tilt, which is precisely what degrades
the coordinate-anchored AFR baseline while leaving LRSyn's textual
landmarks intact.

The paper reports one field where LRSyn produces no program because "there
is no local textual landmark geometrically near the field value" (DDate for
ifly.alaskaair).  We reproduce that situation by printing the Alaska
travel-date row as a date-only banner without its label.
"""

from __future__ import annotations

import random
import zlib

from repro.datasets import m2h
from repro.datasets.base import CONTEMPORARY, Corpus
from repro.datasets.finance import LabeledImageDocument
from repro.datasets import fields as F
from repro.images.ocr import OcrConfig, OcrSimulator
from repro.images.render import render_to_boxes

IMAGE_PROVIDERS: tuple[str, ...] = (
    "aeromexico",
    "getthere",
    "iflyalaskaair",
    "mytripsamexgbt",
)

# Scans of printed emails: noisier geometry than Finance forms.
TRAIN_OCR = OcrConfig(split_probability=0.5, jitter=2.0, max_translation=8.0)
TEST_OCR = OcrConfig(
    split_probability=0.5,
    jitter=2.0,
    max_translation=42.0,
    max_tilt_degrees=1.0,
)


def fields_for(provider: str) -> tuple[str, ...]:
    return m2h.fields_for(provider)


def generate_document(
    provider: str, rng: random.Random, ocr: OcrConfig
) -> LabeledImageDocument:
    labeled_html = m2h.generate_document(provider, rng, CONTEMPORARY)
    page = render_to_boxes(labeled_html.doc)
    labeled_html.doc.release()  # freed here, not by the cyclic collector
    if provider == "iflyalaskaair":
        # The label and value share a printed row; merging them leaves no
        # local landmark for DDate.
        merged = []
        for box in page.boxes:
            if box.text == "Travel Date":
                continue
            merged.append(box)
        page = type(page)(merged)
    scanned = OcrSimulator(ocr).scan(page, rng)
    return LabeledImageDocument(
        doc=scanned,
        truth=labeled_html.truth,
        provider=provider,
        setting=CONTEMPORARY,
    )


def generate_corpus(
    provider: str,
    train_size: int = 10,
    test_size: int = 120,
    seed: int = 0,
) -> Corpus:
    """Train/test corpus for one M2H-Images provider (10 training images
    per field, following Section 7.2)."""
    salt = zlib.crc32(f"img-{provider}".encode("utf-8"))
    rng = random.Random(salt * 4241 + seed)
    train = [
        generate_document(provider, rng, TRAIN_OCR) for _ in range(train_size)
    ]
    test = [
        generate_document(provider, rng, TEST_OCR) for _ in range(test_size)
    ]
    return Corpus(provider=provider, train=train, test=test)

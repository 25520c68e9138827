"""Landmark candidates for form images (Section 5.2).

As in HTML, landmarks are n-grams; ``Locate`` finds boxes containing them.
The score of a candidate is a weighted sum of (a) the Euclidean distance
between the landmark box and the field value box, and (b) the area of the
smallest rectangle enclosing both — smaller is better on both counts.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core import bitset
from repro.core.document import ScoredLandmark, TrainingExample
from repro.images.blueprint import box_ngrams
from repro.images.boxes import ImageDocument, TextBox

WEIGHT_DISTANCE = 1.0
WEIGHT_AREA = 0.002
# Labels precede their values in reading order (see the HTML scorer).
WEIGHT_FOLLOWS = 20.0
SCORE_SAMPLE = 8

STOP_WORDS = frozenset(
    """a an and are as at be by for from has have if in into is it its of on
    or that the their this to was were will with you your""".split()
)


def _is_stopword_gram(gram: str) -> bool:
    words = [word.strip(":,.#").lower() for word in gram.split()]
    return all(word in STOP_WORDS or not word.isalpha() for word in words)


def _doc_grams(doc: ImageDocument) -> frozenset[str]:
    """All box-text n-grams of one document, computed once per document."""
    if doc._grams is None:
        texts = {box.text for box in doc.boxes if box.text}
        grams: set[str] = set()
        for text in texts:
            grams |= box_ngrams(text)
        doc._grams = frozenset(grams)
    return doc._grams


def invariant_grams(docs: Sequence[ImageDocument]) -> set[str]:
    """N-grams of box texts that appear verbatim in every document.

    The per-document gram sets fold through the shared invariant
    intersection (:func:`repro.core.bitset.intersect_all`).
    """
    common = bitset.intersect_all(_doc_grams(doc) for doc in docs)
    return {gram for gram in common if not _is_stopword_gram(gram)}


# Vertical distance is weighted heavier than horizontal: a label on the
# same printed row (a left-side label across a wide column gap) is
# perceptually "nearer" than a label one row up in the next column, matching
# how forms pair labels with values.
VERTICAL_WEIGHT = 4.0


def _euclidean(a: TextBox, b: TextBox) -> float:
    return math.hypot(a.cx - b.cx, VERTICAL_WEIGHT * (a.cy - b.cy))


def _enclosing_area(a: TextBox, b: TextBox) -> float:
    width = max(a.x2, b.x2) - min(a.x, b.x)
    height = max(a.y2, b.y2) - min(a.y, b.y)
    return width * height


def _gram_score(
    gram: str, sample: Sequence[TrainingExample]
) -> float | None:
    """Average candidate cost of ``gram`` over the sample (None = unusable)."""
    total = 0.0
    for example in sample:
        doc: ImageDocument = example.doc
        occurrences = doc.find_by_text(gram)
        if not occurrences:
            return None
        costs = []
        for group in example.annotation.groups:
            value_box = group.locations[0]
            best = min(
                WEIGHT_DISTANCE * _euclidean(occ, value_box)
                + WEIGHT_AREA * _enclosing_area(occ, value_box)
                + (
                    WEIGHT_FOLLOWS
                    if doc.order_of(occ) > doc.order_of(value_box)
                    else 0.0
                )
                for occ in occurrences
            )
            costs.append(best)
        if not costs:
            return None
        total += sum(costs) / len(costs)
    return total / len(sample)


def score_grams(
    grams: Sequence[str], sample: Sequence[TrainingExample]
) -> list[float | None]:
    """Score every gram over the sample, in order."""
    return [_gram_score(gram, sample) for gram in grams]


def landmark_candidates(
    examples: Sequence[TrainingExample],
    max_candidates: int = 10,
) -> list[ScoredLandmark]:
    """Scored landmark candidates for a cluster of annotated images."""
    docs = [example.doc for example in examples]
    grams = invariant_grams(docs)
    if not grams:
        return []

    sample = examples[:SCORE_SAMPLE]
    sample_values = [
        value for example in sample for value in example.annotation.values
    ]
    candidates = sorted(
        gram
        for gram in grams
        if not any(gram in value for value in sample_values)
    )

    scores = score_grams(candidates, sample)
    scored = [
        ScoredLandmark(value=gram, score=-average_cost)
        for gram, average_cost in zip(candidates, scores)
        if average_cost is not None
    ]

    scored.sort(key=lambda candidate: (-candidate.score, candidate.value))
    return scored[:max_candidates]

"""Blueprints for image regions: BoxSummaries over frequent n-grams.

Section 5.2: "we use only the boxes containing the top 50% most frequent
n-grams.  The blueprint of a region is defined to be the BoxSummary of each
such box...  The BoxSummary of a box consists of (a) the frequent n-gram
present in the box, and (b) for each of the directions top, left, right and
bottom, the content type of the immediately neighbouring box" — where the
content type is ``⊥`` for no box, the neighbour's frequent n-gram if it has
one, and ``⊤`` otherwise (Example 5.2).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from repro.core.distance import jaccard_distance
from repro.images.boxes import DIRECTIONS, ImageDocument, ImageRegion

__all__ = [
    "box_ngrams",
    "box_summary",
    "document_blueprint",
    "frequent_gram_of",
    "frequent_ngrams",
    "jaccard_distance",
    "region_blueprint",
    "summary_distance",
]

BOTTOM_TYPE = "⊥"
TOP_TYPE = "⊤"

MAX_NGRAM = 3


def box_ngrams(text: str, max_n: int = MAX_NGRAM) -> set[str]:
    words = text.split()
    grams: set[str] = set()
    for n in range(1, max_n + 1):
        for i in range(len(words) - n + 1):
            grams.add(" ".join(words[i : i + n]))
    return grams


def frequent_ngrams(
    docs: Sequence[ImageDocument], keep_fraction: float = 0.5
) -> frozenset[str]:
    """The top-``keep_fraction`` most frequent n-grams present in every doc."""
    per_doc_counts: Counter[str] = Counter()
    totals: Counter[str] = Counter()
    for doc in docs:
        seen: set[str] = set()
        for box in doc.boxes:
            grams = box_ngrams(box.text)
            totals.update(grams)
            seen |= grams
        per_doc_counts.update(seen)
    in_all = {
        gram
        for gram, count in per_doc_counts.items()
        if count == len(docs) and any(ch.isalpha() for ch in gram)
    }
    ranked = sorted(in_all, key=lambda gram: (-totals[gram], gram))
    keep = max(1, int(len(ranked) * keep_fraction)) if ranked else 0
    return frozenset(ranked[:keep])


def frequent_gram_of(text: str, frequent: frozenset[str]) -> str | None:
    """The longest frequent n-gram contained in ``text`` (None if none).

    Ties between equal-length grams break lexicographically — never by
    set iteration order, which follows the per-process hash seed and
    would leak nondeterminism into every BoxSummary (and hence every
    store key and cross-machine shard result) derived from it.
    """
    candidates = [gram for gram in box_ngrams(text) if gram in frequent]
    if not candidates:
        return None
    return max(candidates, key=lambda gram: (len(gram), gram))


def box_summary(
    doc: ImageDocument, box, frequent: frozenset[str]
) -> tuple | None:
    """The BoxSummary of ``box`` (Example 5.2), or None if not frequent."""
    gram = frequent_gram_of(box.text, frequent)
    if gram is None:
        return None
    neighbours = []
    for direction in DIRECTIONS:
        neighbour = doc.neighbor(box, direction)
        if neighbour is None:
            neighbours.append(BOTTOM_TYPE)
            continue
        neighbour_gram = frequent_gram_of(neighbour.text, frequent)
        neighbours.append(
            neighbour_gram if neighbour_gram is not None else TOP_TYPE
        )
    return (gram, *neighbours)


def region_blueprint(
    doc: ImageDocument, region: ImageRegion, frequent: frozenset[str]
) -> frozenset:
    """Blueprint of a region: the set of its boxes' BoxSummaries.

    A BoxSummary depends only on the page and ``frequent``, so for a box
    on this page it is computed once and kept in the page's summary table
    (keyed by the set's value: every ``lrsyn`` call builds its own equal
    set).  A box from elsewhere is summarized afresh on every call.
    """
    table = doc._summaries.get(frequent)
    if table is None:
        table = doc._summaries[frequent] = {}
    order = doc._order
    summaries = set()
    for box in region.locations():
        index = order.get(id(box))
        if index is None:
            summary = box_summary(doc, box, frequent)
        elif index in table:
            summary = table[index]
        else:
            summary = table[index] = box_summary(doc, box, frequent)
        if summary is not None:
            summaries.add(summary)
    return frozenset(summaries)


def document_blueprint(doc: ImageDocument) -> frozenset[str]:
    """Whole-document blueprint for initial clustering: label-like texts."""
    labels = set()
    for box in doc.boxes:
        text = box.text.strip()
        if text and len(text) <= 40 and not any(ch.isdigit() for ch in text):
            labels.add(text)
    return frozenset(labels)


def _summary_similarity(a: tuple, b: tuple) -> float:
    """Componentwise similarity of two BoxSummaries (gram + 4 neighbours)."""
    if a[0] != b[0]:
        return 0.0
    matched = sum(1 for x, y in zip(a, b) if x == y)
    return matched / max(len(a), len(b))


def summary_distance(a: frozenset, b: frozenset) -> float:
    """Graded distance between BoxSummary blueprints.

    Summaries are matched greedily by their frequent n-gram; a summary whose
    neighbourhood differs in one direction (an optional row appearing next
    to the ROI) contributes partial distance instead of a full mismatch,
    which keeps the blueprint check usable under OCR noise.
    """
    if not a and not b:
        return 0.0
    if not a or not b:
        return 1.0
    # Greedy matching is order-sensitive when several summaries share a
    # frequent gram, and frozenset iteration order follows the per-process
    # hash seed — so iterate both sides in sorted order to keep the value
    # a pure function of content.  Cross-process reproducibility (shard
    # jobs on separate machines, store entries computed by one run and
    # consumed by another) depends on this.
    total = 0.0
    b_remaining = sorted(b)
    for summary in sorted(a):
        best_index = -1
        best_similarity = 0.0
        for index, other in enumerate(b_remaining):
            similarity = _summary_similarity(summary, other)
            if similarity > best_similarity:
                best_similarity = similarity
                best_index = index
        if best_index >= 0:
            total += best_similarity
            del b_remaining[best_index]
    return 1.0 - total / max(len(a), len(b))

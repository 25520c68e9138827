"""Landmark candidate identification and scoring for HTML (Section 5.1).

Landmarks are n-grams (n ≤ 5) over node texts.  ``LandmarkCandidates``
lists all n-grams in the documents, filters stop words, retains those common
to all documents of the cluster, and scores each candidate by a weighted sum
of:

* (a) the number of nodes on the DOM path between the landmark node and the
  field-value node,
* (b) the number of nodes in the smallest region enclosing both, and
* (c) the (approximated) rendered distance between them — we use
  document-order distance as the deterministic stand-in for pixel geometry
  (DESIGN.md §5).

Lower sums are better; scores are negated so "higher is better" uniformly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core import bitset
from repro.core.caching import cache_enabled
from repro.core.document import ScoredLandmark, TrainingExample
from repro.html.dom import DomNode, HtmlDocument

MAX_NGRAM = 5

STOP_WORDS = frozenset(
    """a an and are as at be by for from has have if in into is it its of on
    or that the their this to was were will with you your""".split()
)

# Scoring weights for the three features (a), (b), (c) above.
WEIGHT_PATH = 1.0
WEIGHT_REGION = 0.25
WEIGHT_ORDER = 0.05
# Labels conventionally precede their values in reading order; a candidate
# that *follows* the value pays a small penalty so e.g. "Origin" beats the
# equidistant "Destination" label for the origin-airport field.
WEIGHT_FOLLOWS = 0.5

# Score computation samples at most this many documents per cluster; the
# paper notes landmark identification can leverage the full dataset, but the
# shared-n-gram intersection already uses every document.
SCORE_SAMPLE = 8

def ngrams_of_text(text: str, max_n: int = MAX_NGRAM) -> set[str]:
    """All word n-grams (1 ≤ n ≤ ``max_n``) of a text."""
    words = text.split()
    grams: set[str] = set()
    for n in range(1, max_n + 1):
        for i in range(len(words) - n + 1):
            grams.add(" ".join(words[i : i + n]))
    return grams


def _is_stopword_gram(gram: str) -> bool:
    """Filter n-grams whose words are all stop words or non-alphabetic."""
    words = [word.strip(":,.").lower() for word in gram.split()]
    return all(word in STOP_WORDS or not word.isalpha() for word in words)


def _leaf_texts(doc: HtmlDocument) -> frozenset[str]:
    """Texts of leaf elements (no element children), bounded in length.

    Memoized on the document (under ``REPRO_CACHE``): the global and
    per-cluster candidate passes intersect leaf texts over heavily
    overlapping document sets.
    """
    if doc._leaf_texts is not None and cache_enabled():
        return doc._leaf_texts
    texts: set[str] = set()
    for node in doc.elements():
        if any(not child.is_text for child in node.children):
            continue
        text = node.text_content()
        if text and len(text) <= 60:
            texts.add(text)
    doc._leaf_texts = frozenset(texts)
    return doc._leaf_texts


def shared_ngrams(docs: Sequence[HtmlDocument]) -> set[str]:
    """Landmark-candidate n-grams: grams of *invariant leaf* node texts.

    Landmarks are "a form of data invariance present in all documents of a
    format" (Section 1), so candidates are drawn from leaf-node texts that
    appear verbatim in every document — label cells, section headers —
    rather than from arbitrary shared substrings, which would admit variable
    content (the "PM" inside times) or phrases spanning several cells (whose
    located node would be a whole row).  Stop-word-only grams are filtered.

    The per-document leaf-text sets fold through the shared invariant
    intersection (:func:`repro.core.bitset.intersect_all`).
    """
    invariant = bitset.intersect_all(_leaf_texts(doc) for doc in docs)
    grams: set[str] = set()
    for text in invariant:
        grams |= ngrams_of_text(text)
    return {gram for gram in grams if not _is_stopword_gram(gram)}


def _pair_cost(
    order: dict[int, int], occurrence: DomNode, value: DomNode
) -> float:
    """Weighted cost of one (landmark occurrence, value node) pair.

    One climb to the lowest common ancestor, by depth, counts the path
    edges (a) and keeps the LCA's child on each side.  The smallest
    sibling span enclosing both (b) is then a contiguous run of the
    pre-order element index ``order``: it starts at the earlier child and
    ends after the later child's subtree.  When one node is the ancestor
    of the other the span is that ancestor's subtree, and a root LCA
    spans all of the root's children (``enclosing_region``'s cases).
    """
    a, b = occurrence, value
    a_child = b_child = None
    a_depth, b_depth = a.depth, b.depth
    while a_depth > b_depth:
        a_child, a = a, a.parent
        a_depth -= 1
    while b_depth > a_depth:
        b_child, b = b, b.parent
        b_depth -= 1
    while a is not b:
        a_child, a = a, a.parent
        b_child, b = b, b.parent
        a_depth -= 1
    path_nodes = occurrence.depth + value.depth - 2 * a_depth
    if a.parent is None:
        region_size = a.element_count() - 1
    elif a_child is None or b_child is None:
        region_size = a.element_count()
    else:
        first, last = a_child, b_child
        if order[id(first)] > order[id(last)]:
            first, last = last, first
        region_size = (
            order[id(last)] + last.element_count() - order[id(first)]
        )
    occurrence_order = order[id(occurrence)]
    value_order = order[id(value)]
    cost = (
        WEIGHT_PATH * path_nodes
        + WEIGHT_REGION * region_size
        + WEIGHT_ORDER * abs(occurrence_order - value_order)
    )
    if occurrence_order > value_order:
        cost += WEIGHT_FOLLOWS
    return cost


def _candidate_cost(
    doc: HtmlDocument,
    occurrences: Sequence[DomNode],
    value_locations: Sequence[DomNode],
    costs: dict[tuple[int, int], float] | None = None,
) -> float:
    """Average weighted cost between values and their nearest occurrence.

    ``costs`` memoizes :func:`_pair_cost` by ``(id(occurrence),
    id(value))``; every gram that occurs on a node re-costs the same
    pairs, so :func:`score_grams` passes one table for all its grams.
    The nodes belong to the sample's documents, which outlive the table.
    """
    if not occurrences or not value_locations:
        return float("inf")
    if costs is None:
        costs = {}
    order = doc.order_index()
    nearest = []
    for value in value_locations:
        value_id = id(value)
        best = None
        for occurrence in occurrences:
            key = (id(occurrence), value_id)
            cost = costs.get(key)
            if cost is None:
                cost = costs[key] = _pair_cost(order, occurrence, value)
            if best is None or cost < best:  # min()'s first-wins rule
                best = cost
        nearest.append(best)
    return sum(nearest) / len(nearest)


def _gram_score(
    gram: str,
    sample: Sequence[TrainingExample],
    costs: dict[tuple[int, int], float],
) -> float | None:
    """Average candidate cost of ``gram`` over the sample (None = unusable)."""
    total = 0.0
    for example in sample:
        doc: HtmlDocument = example.doc
        occurrences = doc.find_by_text(gram)
        if not occurrences:
            return None
        cost = _candidate_cost(
            doc, occurrences, example.annotation.locations, costs
        )
        if cost == float("inf"):
            return None
        total += cost
    return total / len(sample)


def score_grams(
    grams: Sequence[str], sample: Sequence[TrainingExample]
) -> list[float | None]:
    """Score every gram over the sample, in order, costing each
    (occurrence, value) pair once for the whole call."""
    costs: dict[tuple[int, int], float] = {}
    return [_gram_score(gram, sample, costs) for gram in grams]


def landmark_candidates(
    examples: Sequence[TrainingExample],
    max_candidates: int = 10,
) -> list[ScoredLandmark]:
    """Scored landmark candidates for a cluster of annotated documents."""
    docs = [example.doc for example in examples]
    grams = shared_ngrams(docs)
    if not grams:
        return []

    sample = examples[:SCORE_SAMPLE]

    # A landmark must be *invariant label text*, never part of the value
    # being extracted: a candidate that occurs inside an annotated value
    # ("PM" inside "8:18 PM", an airline code inside a flight number) would
    # locate the value itself and generalize poorly.
    sample_values = [
        value
        for example in sample
        for value in example.annotation.values
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

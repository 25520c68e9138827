"""Blueprints for HTML documents and regions (Section 5.1).

The blueprint of a region is "the set of XPaths to the common value DOM
nodes in the region, ignoring the DOM node order": each XPath is simplified
by dropping positional indices (``body[1]/table[4]/tr[3]/td[2]`` becomes
``body/table/tr/td``) so the blueprint is invariant to where the region sits
in the document and to reordering of its surroundings.

For region blueprints we root the simplified paths at the *region parent*
rather than the document, which makes them invariant to changes in nesting
depth outside the ROI as well (see DESIGN.md).
"""

from __future__ import annotations

from typing import Iterable

from repro.core import bitset
from repro.core.caching import cache_enabled
from repro.core.distance import jaccard_distance
from repro.html.dom import HtmlDocument
from repro.html.region import HtmlRegion

__all__ = [
    "MAX_COMMON_VALUE_LENGTH",
    "common_text_values",
    "document_blueprint",
    "jaccard_distance",
    "region_blueprint",
]

# Texts longer than this are treated as variable content, never as the
# "common values" a blueprint is built from (labels are short).
MAX_COMMON_VALUE_LENGTH = 60


def document_blueprint(doc: HtmlDocument) -> frozenset[str]:
    """Whole-document blueprint: the set of simplified XPaths of all nodes.

    Used for the initial fine clustering — two documents of the same format
    (same template) share the same tag structure even when they differ in
    repeated-section counts, while different providers' templates differ.
    Memoized on the document (under ``REPRO_CACHE``, like the rest of the
    memo layer): field tasks of one provider share docs, and every
    synthesis run re-clusters them.
    """
    if doc._document_blueprint is not None and cache_enabled():
        return doc._document_blueprint
    blueprint = frozenset(
        node.simplified_xpath() for node in doc.elements()
    )
    doc._document_blueprint = blueprint
    return blueprint


def _short_text_values(doc: HtmlDocument) -> frozenset[str]:
    """Short node texts of one document (memoized; see document_blueprint)."""
    if doc._short_texts is not None and cache_enabled():
        return doc._short_texts
    texts = frozenset(
        text
        for node in doc.elements()
        if (text := node.text_content())
        and len(text) <= MAX_COMMON_VALUE_LENGTH
    )
    doc._short_texts = texts
    return texts


def common_text_values(docs: Iterable[HtmlDocument]) -> frozenset[str]:
    """Node texts present in every document (the cluster's common values).

    The per-document text sets fold through the shared invariant
    intersection (:func:`repro.core.bitset.intersect_all`) — identical
    result, so ROI blueprints keyed on the returned set are unchanged.
    """
    return bitset.intersect_all(_short_text_values(doc) for doc in docs)


def region_blueprint(
    region: HtmlRegion, common_values: frozenset[str]
) -> frozenset[str]:
    """Blueprint of an HTML region.

    Elements: ``path:text`` entries for common-value nodes (path simplified
    and relative to the region parent) plus bare ``path`` entries for every
    node, capturing the tag structure of the ROI.
    """
    entries: set[str] = set()
    for node in region.locations():
        path = node.path_to(region.parent) or node.tag
        entries.add(path)
        text = node.text_content()
        if text and text in common_values:
            entries.add(f"{path}:{text}")
    return frozenset(entries)

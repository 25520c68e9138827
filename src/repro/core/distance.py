"""Shared blueprint distance metrics.

The Jaccard distance is the blueprint distance ``δ`` for every set-valued
blueprint in the system: HTML document and region blueprints (sets of
simplified XPaths, Section 5.1) and image *document* blueprints (sets of
label texts).  It used to be duplicated in :mod:`repro.html.blueprint` and
:mod:`repro.images.blueprint`; both re-export this single definition now,
so the scalar metric and the serving router's bitset kernel
(:mod:`repro.core.bitset`, :mod:`repro.serve.router`) provably share one
contract:

    ``jaccard_distance(a, b) == 1 - |a ∩ b| / |a ∪ b|``, and ``0.0`` when
    both sets are empty.

Graded metrics (the image domain's BoxSummary matching) are *not* Jaccard
and stay in their domain modules.
"""

from __future__ import annotations


def jaccard_distance(a: frozenset, b: frozenset) -> float:
    """``1 - |a ∩ b| / |a ∪ b|``; the blueprint distance ``δ`` for sets.

    The router's bitset kernel computes the same quantity as
    ``(mask_a & mask_b).bit_count() / (mask_a | mask_b).bit_count()``;
    both paths divide the same two integers, so the resulting floats are
    bit-identical (see ``tests/core/test_bitset.py``).
    """
    if not a and not b:
        return 0.0
    union = len(a | b)
    if union == 0:
        return 0.0
    return 1.0 - len(a & b) / union

"""Interned-bitset encoding of set-valued blueprints.

Every set-metric blueprint in the system is a ``frozenset[str]`` compared
by Jaccard distance.  Element-wise python set intersection is the wrong
tool for the pairwise hot paths (distance-matrix tiles, merge-loop
prefill): each pair pays hashing and allocation proportional to the set
sizes.  This module re-encodes a whole *universe* of blueprints once —
each distinct string gets a bit position — so one blueprint becomes a
python big-int bitmask and one Jaccard distance becomes

    ``1 - (a & b).bit_count() / (a | b).bit_count()``

two AND/OR machine loops plus two popcounts.  A batch kernel additionally
packs the masks into a ``(n, words)`` ``uint64`` numpy array and evaluates
an entire tile of the distance matrix with three vectorized operations
(``&``/``|``, ``bitwise_count``, a float divide), which is where the bulk
of the speedup lives.  numpy is optional: without it (or on numpy < 2.0,
which lacks ``bitwise_count``) the kernels fall back to the big-int loop.

Determinism contract
--------------------

Bit positions are assigned in **sorted element order**, never insertion or
hash order, so the encoding of a given universe is a pure function of its
contents — independent of ``PYTHONHASHSEED``, process, or the order
blueprints were produced in.  Distances are bit-identical to
:func:`repro.core.distance.jaccard_distance` on the decoded sets because
both paths divide the same two integers (intersection and union
cardinality); the equivalence suites assert byte-identical experiment
tables with the kernel on and off.

The encoding is a *kernel-level* representation only: blueprints remain
``frozenset`` values at every API boundary (domain methods and caches).

``REPRO_BITSET=0`` disables the encoding everywhere (the legacy
per-pair ``frozenset`` path runs instead), for A/B timing and paranoia.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

try:  # numpy is optional: the big-int path is complete without it.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

# The packed batch kernel needs numpy >= 2.0 for vectorized popcount.
_HAVE_PACKED = _np is not None and hasattr(_np, "bitwise_count")


def bitset_enabled() -> bool:
    """Whether the bitset kernels are active (``REPRO_BITSET`` env knob)."""
    return os.environ.get("REPRO_BITSET", "1") != "0"


class BitsetUniverse:
    """A deterministic string → bit-position interner.

    Bit ``i`` is the ``i``-th element of the *sorted* distinct element
    list, so two universes built from the same elements — in any order,
    under any hash seed, in any process — assign identical positions.
    """

    __slots__ = ("elements", "index", "words")

    def __init__(self, elements: Iterable[str]) -> None:
        self.elements: tuple[str, ...] = tuple(sorted(set(elements)))
        self.index: dict[str, int] = {
            element: position for position, element in enumerate(self.elements)
        }
        # uint64 words per packed mask (0 for an empty universe).
        self.words: int = (len(self.elements) + 63) // 64

    def __len__(self) -> int:
        return len(self.elements)

    def encode(self, values: Iterable[str]) -> int:
        """The bitmask of ``values`` (every value must be interned)."""
        index = self.index
        mask = 0
        for value in values:
            mask |= 1 << index[value]
        return mask

    def encode_within(self, values: Iterable[str]) -> int:
        """The bitmask of ``values ∩ universe`` (unknown values dropped).

        ``mask &= universe.encode_within(s)`` is exactly iterated set
        intersection against the universe's member sets — the form the
        landmark modules use to intersect invariant texts across
        documents.
        """
        index = self.index
        mask = 0
        for value in values:
            position = index.get(value)
            if position is not None:
                mask |= 1 << position
        return mask

    def encode_all(self, sets: Iterable[Iterable[str]]) -> list[int]:
        return [self.encode(values) for values in sets]

    def decode(self, mask: int) -> frozenset[str]:
        """The element set a bitmask denotes (round-trips ``encode``)."""
        elements = self.elements
        out = []
        while mask:
            low_bit = mask & -mask
            out.append(elements[low_bit.bit_length() - 1])
            mask ^= low_bit
        return frozenset(out)

    def pack(self, masks: Sequence[int]):
        """Masks packed into an ``(n, words)`` uint64 array, or ``None``.

        ``None`` when numpy's vectorized popcount is unavailable or the
        universe is empty — callers fall back to the big-int loop.
        """
        if not _HAVE_PACKED or self.words == 0:
            return None
        width = self.words * 8
        buffer = b"".join(mask.to_bytes(width, "little") for mask in masks)
        packed = _np.frombuffer(buffer, dtype="<u8").reshape(
            len(masks), self.words
        )
        return packed.astype(_np.uint64, copy=False)


def intersect_all(sets: Iterable[Iterable[str]]) -> frozenset[str]:
    """Intersection of many string sets (the invariant-text fold).

    The landmark scorers and the common-value fold all reduce
    per-document text sets to the elements present in *every* document;
    this is their one shared implementation.  It is deliberately **not**
    mask-encoded: interning costs per-element python work for every set,
    which amortizes only when the resulting masks are reused across many
    operations (the pairwise distance kernels above).  A one-shot fold
    reuses nothing, and CPython's C-level set intersection is ~30×
    faster than encoding — measured on 30 × 2500-element leaf-text sets.
    Equals iterated ``&`` over the inputs exactly, with an early exit
    once the intersection empties.  An empty iterable yields the empty
    set.
    """
    iterator = iter(sets)
    try:
        survivors = set(next(iterator))
    except StopIteration:
        return frozenset()
    for values in iterator:
        if not survivors:
            return frozenset()
        survivors.intersection_update(values)
    return frozenset(survivors)


def jaccard_bits(a: int, b: int) -> float:
    """Jaccard distance between two bitmasks of one universe.

    Bit-identical to ``jaccard_distance`` on the decoded sets: both
    divide ``|a ∩ b|`` by ``|a ∪ b|`` as exact integers.
    """
    union = (a | b).bit_count()
    if not union:
        return 0.0
    return 1.0 - (a & b).bit_count() / union


def universe_for(domain, blueprints: Sequence) -> tuple[
    "BitsetUniverse", list[int]
] | None:
    """Intern ``blueprints`` if the domain's metric on them is Jaccard.

    Returns ``(universe, masks)`` — the universe of all elements across
    the blueprints and one mask per blueprint, in order — or ``None``
    when the kernel must not engage: the ``REPRO_BITSET`` knob is off, or
    any blueprint is not a plain string set under Jaccard (graded image
    BoxSummary blueprints, ad-hoc test domains).  The domain declares
    encodability per blueprint via
    :meth:`repro.core.document.Domain.bitset_elements`.
    """
    if not bitset_enabled():
        return None
    element_sets = []
    for blueprint in blueprints:
        elements = domain.bitset_elements(blueprint)
        if elements is None:
            return None
        element_sets.append(elements)
    universe = BitsetUniverse(
        element for elements in element_sets for element in elements
    )
    return universe, universe.encode_all(element_sets)


def _tile_items_packed(
    packed, rows: tuple[int, int], cols: tuple[int, int], symmetric: bool
) -> list[tuple[tuple[int, int], float]]:
    """Vectorized tile kernel: three array ops, then a C-level emit.

    Everything per-pair happens inside numpy or C-implemented builtins
    (``nonzero``, fancy indexing, ``tolist``, ``zip``): a python-level
    loop over the tile's pairs would cost more than the arithmetic it
    reports.
    """
    row_start, row_stop = rows
    col_start, col_stop = cols
    lhs = packed[row_start:row_stop, None, :]
    rhs = packed[None, col_start:col_stop, :]
    inter = _np.bitwise_count(lhs & rhs).sum(axis=2, dtype=_np.int64)
    union = _np.bitwise_count(lhs | rhs).sum(axis=2, dtype=_np.int64)
    # union == 0 means both sets empty -> distance 0.0 by convention;
    # elsewhere 1 - inter/union divides the same exact integers as the
    # frozenset path, so the float64 results are bit-identical.
    safe = _np.where(union == 0, 1, union)
    grid = _np.where(union == 0, 0.0, 1.0 - inter / safe)
    row_index = _np.arange(row_start, row_stop)
    col_index = _np.arange(col_start, col_stop)
    if symmetric:
        keep = col_index[None, :] > row_index[:, None]
    else:
        keep = col_index[None, :] != row_index[:, None]
    tile_rows, tile_cols = _np.nonzero(keep)
    keys = zip(
        (tile_rows + row_start).tolist(), (tile_cols + col_start).tolist()
    )
    return list(zip(keys, grid[tile_rows, tile_cols].tolist()))


def tile_distance_items(
    masks: Sequence[int],
    packed,
    rows: tuple[int, int],
    cols: tuple[int, int],
    symmetric: bool,
) -> list[tuple[tuple[int, int], float]]:
    """Distances for one ``rows × cols`` tile, as ``((i, j), d)`` items.

    Covers every pair the legacy per-pair tile worker would emit
    (diagonal skipped; lower triangle skipped for symmetric metrics),
    with identical values, shaped so a whole tile merges into the result
    matrix with one ``dict.update``.  ``packed`` is the universe's
    :meth:`~BitsetUniverse.pack` result (``None`` selects the big-int
    loop).
    """
    if packed is not None:
        return _tile_items_packed(packed, rows, cols, symmetric)
    row_start, row_stop = rows
    col_start, col_stop = cols
    out: list[tuple[tuple[int, int], float]] = []
    for i in range(row_start, row_stop):
        mask_i = masks[i]
        for j in range(col_start, col_stop):
            if i == j or (symmetric and j < i):
                continue
            mask_j = masks[j]
            union = (mask_i | mask_j).bit_count()
            out.append(
                ((i, j), 1.0 - (mask_i & mask_j).bit_count() / union)
                if union
                else ((i, j), 0.0)
            )
    return out


def tile_distances(
    masks: Sequence[int],
    packed,
    rows: tuple[int, int],
    cols: tuple[int, int],
    symmetric: bool,
) -> list[tuple[int, int, float]]:
    """:func:`tile_distance_items` flattened to ``(i, j, d)`` triples."""
    return [
        (i, j, value)
        for (i, j), value in tile_distance_items(
            masks, packed, rows, cols, symmetric
        )
    ]


def cluster_rows_packed(packed, threshold: float) -> list[list[int]]:
    """First-fit single-linkage placements over packed masks.

    The placement rule of ``fine_cluster``: row ``r`` joins the first
    cluster (in creation order) holding a row within ``threshold``, else
    founds a new one.  Per row, *one* vectorized pass computes the
    distances to every earlier row, and the first matching cluster is the
    minimum cluster id over the matches — clusters only ever append, so
    creation order equals id order and this is exactly the legacy lazy
    scan's answer.  Evaluating the full prefix rather than stopping at
    the first hit computes more distances than the lazy scan, but each is
    bit-identical, and first-fit placement depends only on *which*
    clusters match, never on how many distances were looked at.
    """
    n = packed.shape[0]
    cluster_of = _np.zeros(n, dtype=_np.int64)
    placements: list[list[int]] = []
    for row in range(n):
        if row:
            lhs = packed[row]
            rhs = packed[:row]
            inter = _np.bitwise_count(lhs & rhs).sum(
                axis=1, dtype=_np.int64
            )
            union = _np.bitwise_count(lhs | rhs).sum(
                axis=1, dtype=_np.int64
            )
            safe = _np.where(union == 0, 1, union)
            matched = (
                _np.where(union == 0, 0.0, 1.0 - inter / safe) <= threshold
            )
            if matched.any():
                target = int(cluster_of[:row][matched].min())
                placements[target].append(row)
                cluster_of[row] = target
                continue
        cluster_of[row] = len(placements)
        placements.append([row])
    return placements


def indexed_pair_distances(
    universe: "BitsetUniverse",
    masks: Sequence[int],
    index_a: Sequence[int],
    index_b: Sequence[int],
) -> list[float]:
    """Distances for an explicit pair list (the merge-loop prefill shape).

    ``masks[index_a[k]]`` is compared with ``masks[index_b[k]]``.  The
    deduplicated masks are packed *once* — serializing a big-int per pair
    would swamp the arithmetic — then the pair rows are gathered by fancy
    indexing and evaluated in one vectorized pass.  Falls back to the
    big-int loop when packing is unavailable.
    """
    packed = universe.pack(masks)
    if packed is not None:
        lhs = packed[list(index_a)]
        rhs = packed[list(index_b)]
        inter = _np.bitwise_count(lhs & rhs).sum(axis=1, dtype=_np.int64)
        union = _np.bitwise_count(lhs | rhs).sum(axis=1, dtype=_np.int64)
        safe = _np.where(union == 0, 1, union)
        return _np.where(union == 0, 0.0, 1.0 - inter / safe).tolist()
    return [
        jaccard_bits(masks[i], masks[j]) for i, j in zip(index_a, index_b)
    ]

"""Text-box geometry for the form-images domain.

Scanned documents are processed by OCR into "a list of text boxes along with
their coordinates" (Section 5.2).  A :class:`TextBox` is a location in the
sense of Section 3.1; an :class:`ImageDocument` is the full page.  Boxes are
identity-hashed (two boxes with equal text and coordinates are still
distinct locations).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

# Directions of the region DSL (Figure 6) and of BoxSummary neighbours.
TOP = "Top"
LEFT = "Left"
RIGHT = "Right"
BOTTOM = "Bottom"
DIRECTIONS = (TOP, LEFT, RIGHT, BOTTOM)
# A direction's slot in each box's four neighbour-table entries.
_SLOT = {direction: slot for slot, direction in enumerate(DIRECTIONS)}


class TextBox:
    """One OCR text box: text plus its bounding rectangle."""

    __slots__ = ("text", "x", "y", "w", "h", "tags")

    def __init__(
        self,
        text: str,
        x: float,
        y: float,
        w: float,
        h: float,
        tags: dict[str, str] | None = None,
    ):
        self.text = text
        self.x = x
        self.y = y
        self.w = w
        self.h = h
        # Ground-truth field tags (dataset bookkeeping only; never read by
        # any synthesizer).
        self.tags = tags or {}

    @property
    def cx(self) -> float:
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.h / 2.0

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TextBox({self.text!r} @ {self.x:.0f},{self.y:.0f})"


def reading_order(boxes: Iterable[TextBox]) -> list[TextBox]:
    """Boxes sorted top-to-bottom, left-to-right.

    Rows are clustered adaptively (a box joins the current row while its
    vertical center is within half a line of the row's running mean) so
    OCR jitter at a fixed-bucket boundary cannot split one printed row into
    two, which would reorder the fragments of a split value.
    """
    by_y = sorted(boxes, key=lambda b: b.cy)
    rows: list[list[TextBox]] = []
    row_mean = 0.0
    for box in by_y:
        if rows and abs(box.cy - row_mean) <= max(box.h * 0.6, 9.0):
            rows[-1].append(box)
            row_mean += (box.cy - row_mean) / len(rows[-1])
        else:
            rows.append([box])
            row_mean = box.cy
    ordered: list[TextBox] = []
    for row in rows:
        ordered.extend(sorted(row, key=lambda b: b.x))
    return ordered


class ImageDocument:
    """A scanned page: text boxes in reading order."""

    def __init__(self, boxes: Sequence[TextBox]):
        self.boxes = reading_order(boxes)
        self._index()
        self._fingerprint: str | None = None

    def _index(self) -> None:
        """Build the identity-keyed reading-order index and the empty
        per-document tables, all filled lazily:

        * ``_neighbors``: the neighbour table, ``None`` until the first
          neighbour question about an on-page box fills all of it
          (:meth:`neighbor`, :meth:`walk`);
        * ``_summaries``: frequent-gram set -> reading-order index ->
          BoxSummary or ``None``
          (:func:`repro.images.blueprint.region_blueprint`);
        * ``_grams``: the box-text n-gram set
          (:func:`repro.images.landmarks._doc_grams`).
        """
        self._order = {id(box): i for i, box in enumerate(self.boxes)}
        self._neighbors: list[int | None] | None = None
        self._summaries: dict[frozenset[str], dict[int, tuple | None]] = {}
        self._grams: frozenset[str] | None = None

    def order_of(self, box: TextBox) -> int:
        return self._order.get(id(box), 0)

    def __getstate__(self) -> dict:
        # ``_order`` maps id(box) -> index, and ids are process-local: an
        # unpickled copy carrying the original map would silently report
        # order 0 for every box, collapsing location fingerprints (and
        # with them every persistent-store key derived from them).  The
        # neighbour, summary and gram tables are left out too, so the
        # pickled bytes do not depend on which queries ran before the dump.
        return {"boxes": self.boxes, "_fingerprint": self._fingerprint}

    def __setstate__(self, state: dict) -> None:
        # ``boxes`` is pickled already in reading order; rebuild only the
        # identity-keyed index.  (Also rebuilds correctly from pre-fix
        # pickles, whose state dict still carries a stale ``_order``.)
        self.boxes = state["boxes"]
        self._index()
        self._fingerprint = state.get("_fingerprint")

    def fingerprint(self) -> str:
        """Stable content hash over the boxes (persistent-store key).

        Reading order is deterministic for given box content, so hashing
        the ordered ``(text, geometry)`` tuples fingerprints the page
        content itself — identical scans hash identically across runs.
        """
        if self._fingerprint is None:
            hasher = hashlib.sha256()
            for box in self.boxes:
                hasher.update(
                    f"{box.text}\x00{box.x:.4f},{box.y:.4f},"
                    f"{box.w:.4f},{box.h:.4f}\x00".encode("utf-8")
                )
            self._fingerprint = hasher.hexdigest()
        return self._fingerprint

    def find_by_text(self, text: str) -> list[TextBox]:
        return [box for box in self.boxes if text in box.text]

    # ------------------------------------------------------------------
    # Neighbour geometry
    # ------------------------------------------------------------------
    def neighbor(self, box: TextBox, direction: str) -> TextBox | None:
        """Nearest box strictly in ``direction`` with orthogonal overlap.

        Ties go to the first box in reading order.  For a box on this
        page the answer is read from the neighbour table; a box from
        elsewhere is scanned afresh on every call.
        """
        index = self._order.get(id(box))
        if index is None:
            return self._scan(box, direction)
        found = self._table()[4 * index + _SLOT[direction]]
        return None if found is None else self.boxes[found]

    def walk(self, box: TextBox, direction: str, limit: int) -> list[TextBox]:
        """Up to ``limit`` successive neighbours from ``box`` in
        ``direction``: the chain of :meth:`neighbor` answers, read from
        the table slot by slot.  The walk ends at the page edge, because
        every step moves strictly along ``direction``."""
        walked: list[TextBox] = []
        if limit <= 0:
            return walked
        index = self._order.get(id(box))
        if index is None:
            first = self._scan(box, direction)
            if first is None:
                return walked
            walked.append(first)
            index = self._order[id(first)]
        table = self._table()
        slot = _SLOT[direction]
        boxes = self.boxes
        while len(walked) < limit:
            index = table[4 * index + slot]
            if index is None:
                break
            walked.append(boxes[index])
        return walked

    def _table(self) -> list[int | None]:
        table = self._neighbors
        if table is None:
            table = self._neighbors = _neighbor_table(self.boxes)
        return table

    def _scan(self, box: TextBox, direction: str) -> TextBox | None:
        best: TextBox | None = None
        best_distance = float("inf")
        for other in self.boxes:
            if other is box:
                continue
            distance = _directional_distance(box, other, direction)
            if distance is not None and distance < best_distance:
                best = other
                best_distance = distance
        return best


def _overlap(a1: float, a2: float, b1: float, b2: float) -> float:
    return min(a2, b2) - max(a1, b1)


# Orthogonal misalignment contributes a small penalty so neighbour choice is
# stable under coordinate jitter (e.g. "the box below" prefers the box whose
# left edge aligns, not whichever fragment sits a jittered pixel closer).
_ALIGN_PENALTY = 0.05


def _directional_distance(
    box: TextBox, other: TextBox, direction: str
) -> float | None:
    """Distance from ``box`` to ``other`` along ``direction``; ``None`` if
    ``other`` is not in that direction or has no orthogonal overlap."""
    if direction in (LEFT, RIGHT):
        if _overlap(box.y, box.y2, other.y, other.y2) <= 0:
            return None
        penalty = _ALIGN_PENALTY * abs(other.cy - box.cy)
        if direction == RIGHT and other.cx > box.cx:
            return other.cx - box.cx + penalty
        if direction == LEFT and other.cx < box.cx:
            return box.cx - other.cx + penalty
        return None
    if _overlap(box.x, box.x2, other.x, other.x2) <= 0:
        return None
    penalty = _ALIGN_PENALTY * abs(other.x - box.x)
    if direction == BOTTOM and other.cy > box.cy:
        return other.cy - box.cy + penalty
    if direction == TOP and other.cy < box.cy:
        return box.cy - other.cy + penalty
    return None


def _neighbor_table(boxes: Sequence[TextBox]) -> list[int | None]:
    """Every answer of :meth:`ImageDocument.neighbor` for ``boxes``, in
    one pass over their unordered pairs.

    Slot ``4 * i + _SLOT[d]`` holds the reading-order index of box
    ``i``'s neighbour in direction ``d``, or ``None``.  A pair is
    evaluated once and updates both ends: ``Right`` from ``a`` to ``b``
    is the same float expression as ``Left`` from ``b`` to ``a`` (and
    ``Bottom`` / ``Top`` likewise).  Pairs come in reading order for
    each box, so strict ``<`` keeps the first nearest box, exactly as
    :meth:`ImageDocument._scan` does.
    """
    top, left, right, bottom = (_SLOT[d] for d in (TOP, LEFT, RIGHT, BOTTOM))
    table: list[int | None] = [None] * (4 * len(boxes))
    best = [float("inf")] * (4 * len(boxes))

    def offer(near: int, far: int, distance: float) -> None:
        if distance < best[near]:
            best[near], table[near] = distance, far // 4
        if distance < best[far]:
            best[far], table[far] = distance, near // 4

    geometry = [(b.x, b.y, b.x2, b.y2, b.cx, b.cy) for b in boxes]
    for i, (ax, ay, ax2, ay2, acx, acy) in enumerate(geometry):
        a = 4 * i
        for j in range(i + 1, len(geometry)):
            bx, by, bx2, by2, bcx, bcy = geometry[j]
            b = 4 * j
            # |d| is exact: bcx - acx and acx - bcx differ only in sign.
            if min(ay2, by2) - max(ay, by) > 0 and bcx != acx:
                distance = abs(bcx - acx) + _ALIGN_PENALTY * abs(bcy - acy)
                if bcx > acx:
                    offer(a + right, b + left, distance)
                else:
                    offer(a + left, b + right, distance)
            if min(ax2, bx2) - max(ax, bx) > 0 and bcy != acy:
                distance = abs(bcy - acy) + _ALIGN_PENALTY * abs(bx - ax)
                if bcy > acy:
                    offer(a + bottom, b + top, distance)
                else:
                    offer(a + top, b + bottom, distance)
    return table


class ImageRegion:
    """A region of an image document: a set of boxes (Section 3.2).

    Regions come from path programs, so the boxes are kept in path order for
    value extraction while ``locations`` reports reading order.
    """

    def __init__(self, boxes: Sequence[TextBox]):
        self.path_boxes = list(boxes)

    def locations(self) -> list[TextBox]:
        return reading_order(self.path_boxes)

    def text(self) -> str:
        """Concatenated box texts (the input to the value program)."""
        return " ".join(box.text for box in self.locations() if box.text)

    def bounding_rect(self) -> tuple[float, float, float, float]:
        xs1 = min(box.x for box in self.path_boxes)
        ys1 = min(box.y for box in self.path_boxes)
        xs2 = max(box.x2 for box in self.path_boxes)
        ys2 = max(box.y2 for box in self.path_boxes)
        return xs1, ys1, xs2, ys2

    def covers(self, boxes: Iterable[TextBox]) -> bool:
        """Do the region's boxes include all of ``boxes``?"""
        members = {id(box) for box in self.path_boxes}
        return all(id(box) in members for box in boxes)

    def __len__(self) -> int:
        return len(self.path_boxes)


def enclosing_region(doc: ImageDocument, locs: Sequence[TextBox]) -> ImageRegion:
    """``EncRgn``: all boxes intersecting the bounding rect of ``locs``."""
    if not locs:
        raise ValueError("enclosing_region of no boxes")
    x1 = min(box.x for box in locs)
    y1 = min(box.y for box in locs)
    x2 = max(box.x2 for box in locs)
    y2 = max(box.y2 for box in locs)
    inside = [
        box
        for box in doc.boxes
        if box.cx >= x1 - 1 and box.cx <= x2 + 1
        and box.cy >= y1 - 1 and box.cy <= y2 + 1
    ]
    return ImageRegion(inside)

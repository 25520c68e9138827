"""Tests for text-box geometry (repro.images.boxes)."""

import pickle

from hypothesis import given
from hypothesis import strategies as st

from repro.images.boxes import (
    BOTTOM,
    DIRECTIONS,
    ImageDocument,
    ImageRegion,
    LEFT,
    RIGHT,
    TOP,
    TextBox,
    _directional_distance,
    enclosing_region,
    reading_order,
)


def box(text, x, y, w=60, h=20, tags=None):
    return TextBox(text=text, x=x, y=y, w=w, h=h, tags=tags)


def grid_doc():
    """Two rows, two columns:  A B / C D."""
    return ImageDocument(
        [
            box("A", 0, 0),
            box("B", 100, 0),
            box("C", 0, 50),
            box("D", 100, 50),
        ]
    )


class TestReadingOrder:
    def test_rows_then_columns(self):
        doc = grid_doc()
        assert [b.text for b in doc.boxes] == ["A", "B", "C", "D"]

    def test_jitter_does_not_split_rows(self):
        boxes = [
            box("left", 0, 100.0),
            box("mid", 70, 104.0),   # jittered slightly down
            box("right", 140, 98.0),  # jittered slightly up
        ]
        ordered = reading_order(boxes)
        assert [b.text for b in ordered] == ["left", "mid", "right"]

    def test_distinct_rows_stay_distinct(self):
        boxes = [box("low", 0, 60), box("high", 50, 0)]
        ordered = reading_order(boxes)
        assert [b.text for b in ordered] == ["high", "low"]

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 500, allow_nan=False),
                st.floats(0, 500, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_property_is_permutation(self, coords):
        boxes = [box(f"b{i}", x, y) for i, (x, y) in enumerate(coords)]
        ordered = reading_order(boxes)
        assert sorted(b.text for b in ordered) == sorted(
            b.text for b in boxes
        )


class TestNeighbors:
    def test_four_directions(self):
        doc = grid_doc()
        a = doc.boxes[0]
        assert doc.neighbor(a, RIGHT).text == "B"
        assert doc.neighbor(a, BOTTOM).text == "C"
        assert doc.neighbor(a, LEFT) is None
        assert doc.neighbor(a, TOP) is None

    def test_nearest_wins(self):
        doc = ImageDocument(
            [box("start", 0, 0), box("near", 80, 0), box("far", 200, 0)]
        )
        assert doc.neighbor(doc.boxes[0], RIGHT).text == "near"

    def test_requires_orthogonal_overlap(self):
        doc = ImageDocument([box("a", 0, 0), box("b", 100, 200)])
        assert doc.neighbor(doc.boxes[0], RIGHT) is None

    def test_alignment_penalty_prefers_aligned_box(self):
        # The box directly below (aligned left edges) wins over a slightly
        # nearer but misaligned one.
        doc = ImageDocument(
            [
                box("top", 0, 0, w=300),
                box("aligned", 0, 40),
                box("misaligned", 200, 38),
            ]
        )
        assert doc.neighbor(doc.boxes[0], BOTTOM).text == "aligned"

    # A coarse grid of positions and sizes, so pages are full of exact
    # distance ties, duplicate boxes and overlaps.
    GRID_BOX = st.builds(
        lambda x, y, w, h: box("g", x, y, w=w, h=h),
        st.sampled_from([0, 40, 80, 120]),
        st.sampled_from([0, 10, 20, 40]),
        st.sampled_from([20, 40, 80]),
        st.sampled_from([10, 20]),
    )

    @staticmethod
    def scanned(boxes, query, direction):
        """The reference answer: a full scan in reading order, first
        strictly nearest box wins."""
        best, best_distance = None, float("inf")
        for other in boxes:
            if other is query:
                continue
            distance = _directional_distance(query, other, direction)
            if distance is not None and distance < best_distance:
                best, best_distance = other, distance
        return best

    @given(st.lists(GRID_BOX, min_size=1, max_size=10), GRID_BOX)
    def test_property_table_matches_full_scan(self, boxes, foreign):
        doc = ImageDocument(boxes)
        for _ in range(2):  # the second pass reads filled table slots
            for query in [*doc.boxes, foreign]:
                for direction in DIRECTIONS:
                    assert doc.neighbor(query, direction) is self.scanned(
                        doc.boxes, query, direction
                    )
        copy = pickle.loads(pickle.dumps(doc))
        for original, query in zip(doc.boxes, copy.boxes):
            for direction in DIRECTIONS:
                expected = doc.neighbor(original, direction)
                found = copy.neighbor(query, direction)
                assert found is self.scanned(copy.boxes, query, direction)
                assert (found is None) == (expected is None)
                if found is not None:
                    assert copy.order_of(found) == doc.order_of(expected)

    @classmethod
    def scanned_walk(cls, boxes, start, direction, limit):
        """The reference walk: chained reference scans from ``start``."""
        walked, cursor = [], start
        while len(walked) < limit:
            cursor = cls.scanned(boxes, cursor, direction)
            if cursor is None:
                break
            walked.append(cursor)
        return walked

    @given(st.lists(GRID_BOX, min_size=1, max_size=10), GRID_BOX, GRID_BOX)
    def test_property_walk_matches_chained_scans(self, boxes, foreign, moved):
        doc = ImageDocument(boxes)

        def check(page):
            for query in [*page.boxes, foreign]:
                for direction in DIRECTIONS:
                    for limit in (0, 1, 2, len(boxes)):
                        assert page.walk(query, direction, limit) == (
                            self.scanned_walk(
                                page.boxes, query, direction, limit
                            )
                        )

        check(doc)
        # The pickle drops the filled table; the copy fills its own.
        check(pickle.loads(pickle.dumps(doc)))
        # A moved foreign start box is scanned afresh, never cached.
        foreign.x, foreign.y, foreign.w, foreign.h = (
            moved.x, moved.y, moved.w, moved.h
        )
        check(doc)

    def test_walk_from_foreign_box_is_not_cached(self):
        doc = grid_doc()
        foreign = box("elsewhere", -100, 50)  # left of C
        assert [b.text for b in doc.walk(foreign, RIGHT, 4)] == ["C", "D"]
        foreign.y = 0  # same object, moved to A's row
        assert [b.text for b in doc.walk(foreign, RIGHT, 4)] == ["A", "B"]

    def test_foreign_box_is_not_cached(self):
        doc = grid_doc()
        foreign = box("elsewhere", 0, 50)  # where C sits
        assert doc.neighbor(foreign, RIGHT).text == "D"
        foreign.y = 0  # same object, moved to A's row
        assert doc.neighbor(foreign, RIGHT).text == "B"


class TestRegions:
    def test_region_text_in_reading_order(self):
        doc = grid_doc()
        region = ImageRegion([doc.boxes[3], doc.boxes[0]])
        assert region.text() == "A D"

    def test_covers(self):
        doc = grid_doc()
        region = ImageRegion(doc.boxes[:2])
        assert region.covers([doc.boxes[0]])
        assert not region.covers([doc.boxes[3]])

    def test_bounding_rect(self):
        doc = grid_doc()
        region = ImageRegion(doc.boxes)
        x1, y1, x2, y2 = region.bounding_rect()
        assert (x1, y1) == (0, 0)
        assert x2 >= 160 and y2 >= 70

    def test_enclosing_region_picks_up_boxes_in_rect(self):
        doc = grid_doc()
        region = enclosing_region(doc, [doc.boxes[0], doc.boxes[3]])
        assert len(region) == 4

    def test_enclosing_region_single_box(self):
        doc = grid_doc()
        region = enclosing_region(doc, [doc.boxes[0]])
        assert region.covers([doc.boxes[0]])

    def test_order_of(self):
        doc = grid_doc()
        assert doc.order_of(doc.boxes[0]) == 0
        assert doc.order_of(doc.boxes[3]) == 3

    def test_find_by_text_substring(self):
        doc = ImageDocument([box("Chassis number", 0, 0)])
        assert doc.find_by_text("Chassis") == [doc.boxes[0]]
        assert doc.find_by_text("Engine") == []

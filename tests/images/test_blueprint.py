"""Tests for image blueprints (repro.images.blueprint)."""

import pickle

from repro.core.clustering import pair_values_to_landmarks
from repro.datasets import finance
from repro.images import blueprint as bp
from repro.images.boxes import (
    ImageDocument,
    ImageRegion,
    TextBox,
    enclosing_region,
)
from repro.images.domain import ImageDomain
from repro.images.landmarks import _doc_grams


def box(text, x, y, w=80, h=20):
    return TextBox(text=text, x=x, y=y, w=w, h=h)


def invoice_page():
    """The Example 5.2 neighbourhood: Chassis | Engine | Reg Date labels."""
    return ImageDocument(
        [
            box("Chassis number", 0, 0),
            box("Engine number", 100, 0),
            box("Reg Date", 200, 0),
            box("4713872198212", 100, 40),
        ]
    )


FREQUENT = frozenset({"Chassis number", "Engine number", "Reg Date"})


class TestBoxSummary:
    def test_example_5_2(self):
        doc = invoice_page()
        engine_label = doc.boxes[1]
        summary = bp.box_summary(doc, engine_label, FREQUENT)
        gram, top, left, right, bottom = summary
        assert gram == "Engine number"
        assert top == bp.BOTTOM_TYPE          # no box above
        assert left == "Chassis number"
        assert right == "Reg Date"
        assert bottom == bp.TOP_TYPE          # value box: no frequent gram

    def test_non_frequent_box_has_no_summary(self):
        doc = invoice_page()
        value_box = doc.boxes[3]
        assert bp.box_summary(doc, value_box, FREQUENT) is None


class TestFrequentNgrams:
    def test_labels_in_all_docs_are_frequent(self):
        docs = [invoice_page(), invoice_page()]
        frequent = bp.frequent_ngrams(docs)
        assert any("Chassis" in gram for gram in frequent)

    def test_values_are_not_frequent(self):
        doc_a = invoice_page()
        doc_b = ImageDocument(
            [box(b.text, b.x, b.y) for b in doc_a.boxes[:3]]
            + [box("9988055435104", 100, 40)]
        )
        frequent = bp.frequent_ngrams([doc_a, doc_b])
        assert "4713872198212" not in frequent

    def test_top_fraction_kept(self):
        docs = [invoice_page(), invoice_page()]
        all_grams = bp.frequent_ngrams(docs, keep_fraction=1.0)
        half_grams = bp.frequent_ngrams(docs, keep_fraction=0.5)
        assert len(half_grams) <= len(all_grams)


class TestRegionBlueprint:
    def test_blueprint_contains_summaries(self):
        doc = invoice_page()
        region = ImageRegion(doc.boxes[:2])
        blueprint = bp.region_blueprint(doc, region, FREQUENT)
        grams = {summary[0] for summary in blueprint}
        assert grams == {"Chassis number", "Engine number"}


class TestSummaryDistance:
    def s(self, gram, *neighbors):
        return (gram, *neighbors)

    def test_identical(self):
        a = frozenset({self.s("X", "⊥", "A", "B", "⊤")})
        assert bp.summary_distance(a, a) == 0.0

    def test_one_neighbor_differs_is_partial(self):
        a = frozenset({self.s("X", "⊥", "A", "B", "⊤")})
        b = frozenset({self.s("X", "⊥", "A", "B", "C")})
        d = bp.summary_distance(a, b)
        assert 0.0 < d < 0.5

    def test_different_grams_are_far(self):
        a = frozenset({self.s("X", "⊥", "⊥", "⊥", "⊥")})
        b = frozenset({self.s("Y", "⊥", "⊥", "⊥", "⊥")})
        assert bp.summary_distance(a, b) == 1.0

    def test_empty_vs_nonempty(self):
        a = frozenset({self.s("X", "⊥", "⊥", "⊥", "⊥")})
        assert bp.summary_distance(frozenset(), a) == 1.0
        assert bp.summary_distance(frozenset(), frozenset()) == 0.0

    def test_symmetry(self):
        a = frozenset({self.s("X", "⊥", "A", "B", "⊤")})
        b = frozenset(
            {self.s("X", "⊥", "A", "B", "C"), self.s("Y", "⊥", "⊥", "⊥", "⊥")}
        )
        assert abs(
            bp.summary_distance(a, b) - bp.summary_distance(b, a)
        ) < 0.35  # greedy matching is approximately symmetric

    def test_document_blueprint_is_label_texts(self):
        blueprint = bp.document_blueprint(invoice_page())
        assert "Chassis number" in blueprint
        assert "4713872198212" not in blueprint


# -- per-document tables -------------------------------------------------


def fresh_blueprint(doc, region, frequent):
    summaries = (bp.box_summary(doc, b, frequent) for b in region.locations())
    return frozenset(s for s in summaries if s is not None)


def finance_rois():
    """(doc, region, frequent) for every train and test page of a small
    finance corpus: each Algorithm 3 ROI (landmark candidate plus the
    annotated values), the whole page and a few arbitrary box runs."""
    domain = ImageDomain()
    for doc_type in finance.DOC_TYPES:
        corpus = finance.generate_corpus(
            doc_type, train_size=4, test_size=3, seed=5
        )
        frequent = bp.frequent_ngrams([item.doc for item in corpus.train])
        for field_name in finance.FINANCE_FIELDS[doc_type]:
            examples = [
                item.training_example(field_name) for item in corpus.train
            ]
            candidates = domain.landmark_candidates(examples, 3)
            for item in corpus.train + corpus.test:
                annotation = item.annotation(field_name)
                for candidate in candidates:
                    for occurrence, groups in pair_values_to_landmarks(
                        domain, item.doc, annotation, candidate.value
                    ):
                        locations = [occurrence] + [
                            loc for locs, _ in groups for loc in locs
                        ]
                        yield item.doc, enclosing_region(
                            item.doc, locations
                        ), frequent
        for item in corpus.train + corpus.test:
            boxes = item.doc.boxes
            yield item.doc, ImageRegion(boxes), frequent
            for start in range(0, len(boxes), 4):
                yield item.doc, ImageRegion(boxes[start : start + 3]), frequent


class TestBlueprintTables:
    def test_memoized_blueprint_equals_fresh_summaries(self):
        checked = 0
        for doc, region, frequent in finance_rois():
            assert bp.region_blueprint(doc, region, frequent) == (
                fresh_blueprint(doc, region, frequent)
            )
            # Second call reads the table.
            assert bp.region_blueprint(doc, region, frequent) == (
                fresh_blueprint(doc, region, frequent)
            )
            checked += 1
        assert checked > 100

    def test_equal_frequent_set_reuses_the_table(self, monkeypatch):
        doc = invoice_page()
        region = ImageRegion(doc.boxes)
        first = bp.region_blueprint(doc, region, FREQUENT)
        table = doc._summaries[FREQUENT]
        assert len(table) == len(doc.boxes)

        def no_summary(*args):
            raise AssertionError("summary recomputed")

        monkeypatch.setattr(bp, "box_summary", no_summary)
        equal = frozenset(set(FREQUENT))
        assert equal is not FREQUENT
        assert bp.region_blueprint(doc, region, equal) == first
        assert list(doc._summaries) == [FREQUENT]
        assert doc._summaries[equal] is table

    def test_box_from_another_page_is_not_stored(self):
        doc = invoice_page()
        stranger = invoice_page().boxes[1]
        region = ImageRegion([doc.boxes[0], stranger])
        blueprint = bp.region_blueprint(doc, region, FREQUENT)
        assert blueprint == fresh_blueprint(doc, region, FREQUENT)
        assert list(doc._summaries[FREQUENT]) == [0]

    def test_doc_grams_equal_a_fresh_union(self):
        for item in finance.generate_corpus("CashInvoice", 3, 3, 2).train:
            doc = item.doc
            fresh = set()
            for b in doc.boxes:
                fresh |= bp.box_ngrams(b.text)
            grams = _doc_grams(doc)
            assert grams == fresh
            assert _doc_grams(doc) is grams

    def test_tables_are_not_pickled(self):
        doc = finance.generate_corpus("SalesInvoice", 2, 0, 3).train[0].doc
        before = pickle.dumps(doc)
        frequent = bp.frequent_ngrams([doc])
        bp.region_blueprint(doc, ImageRegion(doc.boxes), frequent)
        _doc_grams(doc)
        assert doc._summaries and doc._grams
        assert pickle.dumps(doc) == before
        copy = pickle.loads(before)
        assert copy._summaries == {} and copy._grams is None

"""Tests for the ImageDomain adapter (repro.images.domain)."""

from repro.core.document import Annotation, AnnotationGroup, TrainingExample
from repro.core.synthesis import lrsyn
from repro.harness.images import IMAGE_CONFIG
from repro.images import domain as domain_mod
from repro.images import region_dsl
from repro.images.boxes import ImageDocument, ImageRegion, TextBox
from repro.images.domain import ImageDomain, region_patterns


def box(text, x, y, tags=None):
    return TextBox(text=text, x=x, y=y, w=8.0 * len(text), h=20, tags=tags)


def page(amount):
    return ImageDocument(
        [
            box("Total Due", 0, 0),
            box(amount, 120, 0, tags={"amount": amount}),
            box("Reg Date", 0, 40),
            box("12/04/2021", 120, 40),
        ]
    )


def example(doc):
    value_box = [b for b in doc.boxes if b.tags][0]
    return TrainingExample(
        doc=doc,
        annotation=Annotation(
            groups=[
                AnnotationGroup(locations=(value_box,), value=value_box.text)
            ]
        ),
    )


class TestImageDomain:
    def setup_method(self):
        self.domain = ImageDomain()
        self.doc = page("$12.00")

    def test_layout_conditional_is_off(self):
        assert self.domain.layout_conditional is False

    def test_locations_and_data(self):
        boxes = self.domain.locations(self.doc)
        assert len(boxes) == 4
        assert self.domain.data(self.doc, boxes[0]) == boxes[0].text

    def test_locate_substring(self):
        matches = self.domain.locate(self.doc, "Total")
        assert len(matches) == 1

    def test_enclosing_region(self):
        region = self.domain.enclosing_region(self.doc, self.doc.boxes[:2])
        assert region.covers(self.doc.boxes[:2])

    def test_blueprint_distance_dispatch(self):
        # Document blueprints: frozensets of strings -> Jaccard.
        doc_bp = self.domain.document_blueprint(self.doc)
        assert self.domain.blueprint_distance(doc_bp, doc_bp) == 0.0
        # Region blueprints: frozensets of BoxSummary tuples -> graded.
        common = self.domain.common_values([self.doc, page("$94.50")])
        region = ImageRegion(self.doc.boxes[:2])
        region_bp = self.domain.region_blueprint(self.doc, region, common)
        assert self.domain.blueprint_distance(region_bp, region_bp) == 0.0

    def test_landmark_candidates_and_region_patterns(self):
        examples = [example(page("$12.00")), example(page("$94.50"))]
        candidates = self.domain.landmark_candidates(examples)
        assert candidates
        assert candidates[0].value in ("Total Due", "Total", "Due")
        # The date value of the *other* field is profiled as a stop pattern.
        assert any("/" in pattern for pattern in region_patterns(examples))

    def test_pattern_pool_excludes_current_field_values(self, monkeypatch):
        seen = []

        def spy(common_texts, field_values):
            seen.append((list(common_texts), list(field_values)))
            return ["p"]

        monkeypatch.setattr(domain_mod, "patterns_for_cluster", spy)
        examples = [example(page("$12.00")), example(page("$94.50"))]
        assert region_patterns(examples) == ("p",)
        [(common_texts, field_values)] = seen
        assert field_values == ["$12.00", "$94.50"]
        # Labels and other fields' values, never this field's boxes.
        assert "12/04/2021" in common_texts and "Total Due" in common_texts
        assert "$12.00" not in common_texts and "$94.50" not in common_texts


def invoice(amount, ref):
    """A second format: the amount sits under its label, with a reference
    code instead of a date."""
    return ImageDocument(
        [
            box("Invoice", 200, 0),
            box("Ref No", 0, 40),
            box(ref, 0, 60),
            box("Total Due", 0, 100),
            box(amount, 0, 120, tags={"amount": amount}),
            box("Thank you", 0, 200),
        ]
    )


def test_each_cluster_synthesizes_with_its_own_patterns(monkeypatch):
    """Two formats end as two clusters; each cluster's region synthesis
    gets the Relative-motion patterns profiled from that cluster."""
    forms = [example(page(f"${i}2.00")) for i in range(3)]
    invoices = [example(invoice(f"${i}4.50", f"AB-{i}234")) for i in range(3)]
    calls = []
    synthesize = region_dsl.synthesize_region_program

    def spy(examples, patterns=()):
        calls.append(({id(doc) for doc, _, _ in examples}, patterns))
        return synthesize(examples, patterns=patterns)

    monkeypatch.setattr(region_dsl, "synthesize_region_program", spy)
    lrsyn(ImageDomain(), forms + invoices, IMAGE_CONFIG)
    expected = {
        frozenset(id(ex.doc) for ex in cluster): region_patterns(cluster)
        for cluster in (forms, invoices)
    }
    assert expected[frozenset(map(id, (ex.doc for ex in forms)))] != (
        expected[frozenset(map(id, (ex.doc for ex in invoices)))]
    )
    assert sorted(len(docs) for docs, _ in calls) == [3, 3]
    for docs, patterns in calls:
        assert patterns == expected[frozenset(docs)]

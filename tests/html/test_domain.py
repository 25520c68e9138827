"""Tests for the HtmlDomain adapter (repro.html.domain)."""

from repro.core.clustering import pair_values_to_landmarks
from repro.core.document import Annotation, AnnotationGroup, TrainingExample
from repro.datasets import m2h
from repro.html import blueprint as bp
from repro.html.domain import HtmlDomain
from repro.html.parser import parse_html

SOURCE = (
    "<html><body>"
    "<table><tr><td>Depart:</td><td>8:18 PM</td></tr></table>"
    "</body></html>"
)


class TestHtmlDomain:
    def setup_method(self):
        self.domain = HtmlDomain()
        self.doc = parse_html(SOURCE)

    def test_locations_are_elements(self):
        locations = self.domain.locations(self.doc)
        assert all(not node.is_text for node in locations)
        assert locations[0].tag == "document"

    def test_data_is_text_content(self):
        node = self.doc.find_by_text("Depart:")[0]
        assert self.domain.data(self.doc, node) == "Depart:"

    def test_locate_returns_minimal_nodes(self):
        nodes = self.domain.locate(self.doc, "Depart:")
        assert [node.tag for node in nodes] == ["td"]

    def test_enclosing_region(self):
        nodes = [
            self.doc.find_by_text("Depart:")[0],
            self.doc.find_by_text("8:18 PM")[0],
        ]
        region = self.domain.enclosing_region(self.doc, nodes)
        assert region.parent.tag == "tr"

    def test_blueprint_distance_on_document_blueprints(self):
        bp = self.domain.document_blueprint(self.doc)
        assert self.domain.blueprint_distance(bp, bp) == 0.0

    def test_layout_conditional_default(self):
        assert self.domain.layout_conditional is True

    def test_common_values(self):
        other = parse_html(SOURCE.replace("8:18 PM", "2:02 PM"))
        common = self.domain.common_values([self.doc, other])
        assert "Depart:" in common
        assert "8:18 PM" not in common

    def test_landmark_candidates_via_adapter(self):
        docs = [self.doc, parse_html(SOURCE.replace("8:18 PM", "2:02 PM"))]
        examples = []
        for doc in docs:
            node = [
                n for n in doc.elements()
                if n.tag == "td" and "M" in n.text_content()
                and "Depart" not in n.text_content()
            ][0]
            examples.append(
                TrainingExample(
                    doc=doc,
                    annotation=Annotation(
                        groups=[
                            AnnotationGroup(
                                locations=(node,),
                                value=node.text_content(),
                            )
                        ]
                    ),
                )
            )
        candidates = self.domain.landmark_candidates(examples)
        assert candidates[0].value == "Depart:"


class TestRegionBlueprintMemo:
    def test_memo_equals_fresh_blueprint_on_every_roi(self):
        domain = HtmlDomain()
        corpus = m2h.generate_corpus("delta", train_size=4, test_size=2)
        common = domain.common_values([item.doc for item in corpus.train])
        checked = 0
        for field_name in m2h.fields_for("delta"):
            examples = [
                item.training_example(field_name) for item in corpus.train
            ]
            candidates = domain.landmark_candidates(examples, 3)
            for item in corpus.train + corpus.test:
                doc = item.doc
                annotation = item.annotation(field_name)
                for candidate in candidates:
                    for occurrence, groups in pair_values_to_landmarks(
                        domain, doc, annotation, candidate.value
                    ):
                        locations = [occurrence] + [
                            loc for locs, _ in groups for loc in locs
                        ]
                        region = domain.enclosing_region(doc, locations)
                        fresh = bp.region_blueprint(region, common)
                        first = domain.region_blueprint(doc, region, common)
                        equal = frozenset(set(common))
                        again = domain.region_blueprint(doc, region, equal)
                        assert first == fresh
                        assert again is first
                        checked += 1
        assert checked > 100

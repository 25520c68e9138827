"""Tests for HTML landmark candidates (repro.html.landmarks)."""

import functools
import random

import pytest

from repro.core.document import Annotation, AnnotationGroup, TrainingExample
from repro.datasets import forge, m2h
from repro.html import landmarks as lm
from repro.html.dom import lowest_common_ancestor, tree_distance
from repro.html.parser import parse_html
from repro.html.region import enclosing_region


def email(time):
    return parse_html(
        "<html><body><div>Welcome traveler</div>"
        "<table>"
        "<tr><td>Flight</td><td>AS 100</td></tr>"
        f"<tr><td>Departs</td><td>{time}</td></tr>"
        "</table>"
        "<div>Goodbye</div></body></html>"
    )


def example(time):
    doc = email(time)
    node = doc.find_by_text(time)[0]
    return TrainingExample(
        doc=doc,
        annotation=Annotation(
            groups=[AnnotationGroup(locations=(node,), value=time)]
        ),
    )


class TestNgrams:
    def test_ngrams_of_text(self):
        grams = lm.ngrams_of_text("a b c")
        assert {"a", "b", "c", "a b", "b c", "a b c"} <= grams

    def test_max_n_respected(self):
        grams = lm.ngrams_of_text("a b c d e f", max_n=2)
        assert "a b c" not in grams

    def test_shared_ngrams_from_invariant_texts_only(self):
        shared = lm.shared_ngrams([email("8:18 PM"), email("2:02 PM")])
        assert "Departs" in shared
        # The variable time text is not invariant, so its grams are absent.
        assert "8:18 PM" not in shared
        assert "PM" not in shared

    def test_stopword_grams_filtered(self):
        shared = lm.shared_ngrams([email("8:18 PM"), email("2:02 PM")])
        assert "to" not in shared


class TestCandidates:
    def test_nearest_label_wins(self):
        examples = [example("8:18 PM"), example("2:02 PM")]
        candidates = lm.landmark_candidates(examples)
        assert candidates
        assert candidates[0].value == "Departs"

    def test_value_substring_grams_excluded(self):
        # A gram contained in an annotated value must not become a landmark.
        docs = []
        for t in ("8:18 PM", "2:02 PM"):
            doc = parse_html(
                "<html><body>"
                f"<table><tr><td>Departs</td><td>{t}</td></tr>"
                "<tr><td>Carrier</td><td>AirAsia</td></tr></table>"
                "</body></html>"
            )
            node = doc.find_by_text("AirAsia")[0]
            docs.append(
                TrainingExample(
                    doc=doc,
                    annotation=Annotation(
                        groups=[
                            AnnotationGroup(
                                locations=(node,), value="AirAsia"
                            )
                        ]
                    ),
                )
            )
        candidates = lm.landmark_candidates(docs)
        values = [c.value for c in candidates]
        assert "AirAsia" not in values
        assert "Carrier" in values

    def test_max_candidates_cap(self):
        examples = [example("8:18 PM"), example("2:02 PM")]
        candidates = lm.landmark_candidates(examples, max_candidates=3)
        assert len(candidates) <= 3

    def test_empty_examples(self):
        assert lm.landmark_candidates([]) == []

    def test_scores_are_descending(self):
        examples = [example("8:18 PM"), example("2:02 PM")]
        candidates = lm.landmark_candidates(examples)
        scores = [c.score for c in candidates]
        assert scores == sorted(scores, reverse=True)


def reference_pair_cost(doc, occurrence, value):
    """The pair cost through the LCA, tree-distance and region helpers."""
    path_nodes = tree_distance(occurrence, value)
    region_size = len(enclosing_region([occurrence, value]).locations())
    occurrence_order = doc.document_order(occurrence)
    value_order = doc.document_order(value)
    cost = (
        lm.WEIGHT_PATH * path_nodes
        + lm.WEIGHT_REGION * region_size
        + lm.WEIGHT_ORDER * abs(occurrence_order - value_order)
    )
    if occurrence_order > value_order:
        cost += lm.WEIGHT_FOLLOWS
    return cost


@functools.lru_cache(maxsize=1)
def generated_pages():
    pages = []
    for provider in m2h.PROVIDERS:
        rng = random.Random(11)
        for setting in (m2h.CONTEMPORARY, m2h.LONGITUDINAL):
            pages.append(m2h.generate_document(provider, rng, setting).doc)
    for provider in forge.forge_providers()[:3]:
        rng = random.Random(11)
        pages.append(
            forge.generate_document(provider, rng, forge.LONGITUDINAL).doc
        )
    return pages


class TestPairCost:
    """The pre-order-index pair cost equals the helper-based one exactly."""

    def assert_pairs_match(self, doc, pairs):
        order = doc.order_index()
        for occurrence, value in pairs:
            assert lm._pair_cost(order, occurrence, value) == (
                reference_pair_cost(doc, occurrence, value)
            )

    @pytest.mark.parametrize("page", range(len(m2h.PROVIDERS) * 2 + 3))
    def test_all_element_pairs_of_generated_pages(self, page):
        doc = generated_pages()[page]
        elements = doc.elements()
        self.assert_pairs_match(
            doc, [(a, b) for a in elements for b in elements]
        )

    def test_edge_cases(self):
        doc = parse_html(
            "<div><p>lead<b>Depart:</b>between<i>8:18 PM</i>tail</p></div>"
            "<table><tr><td>Flight</td> text <td><span>AS 100</span></td>"
            "</tr></table>"
        )
        node = {text: doc.find_by_text(text)[0] for text in (
            "Depart:", "8:18 PM", "Flight", "AS 100"
        )}
        paragraph = node["Depart:"].parent
        pairs = [
            (node["Depart:"], node["Depart:"]),  # same node
            (paragraph, node["8:18 PM"]),  # ancestor, descendant
            (node["8:18 PM"], paragraph),
            (node["Depart:"], node["8:18 PM"]),  # siblings across text
            (node["8:18 PM"], node["Depart:"]),
            (node["Flight"], node["AS 100"]),
            (node["Depart:"], node["AS 100"]),  # the LCA is the root
            (doc.root, node["Flight"]),
            (doc.root, doc.root),
        ]
        assert lowest_common_ancestor(
            [node["Depart:"], node["AS 100"]]
        ) is doc.root
        self.assert_pairs_match(doc, pairs)

    def test_candidate_cost_takes_nearest_occurrence_and_averages(self):
        doc = generated_pages()[0]
        elements = doc.elements()
        occurrences, values = elements[3:9], elements[-4:]
        expected = [
            min(reference_pair_cost(doc, o, v) for o in occurrences)
            for v in values
        ]
        assert lm._candidate_cost(doc, occurrences, values) == (
            sum(expected) / len(expected)
        )
        assert lm._candidate_cost(doc, [], values) == float("inf")
        assert lm._candidate_cost(doc, occurrences, []) == float("inf")

"""Tests for LRSyn synthesis (Algorithms 2 and 4)."""

import random

import pytest

from repro.core.document import SynthesisFailure
from repro.core.synthesis import (
    LrsynConfig,
    lrsyn,
    synthesize_extraction_program,
    typical_blueprint,
)
from repro.core.clustering import ClusterInfo, infer_landmarks_and_clusters

from tests.core.fake_domain import FakeDomain, make_example


def corpus(times, layout="plain"):
    examples = []
    for t in times:
        if layout == "plain":
            examples.append(make_example(["hdr:", "Depart:", t, "end"], [2]))
        else:
            examples.append(
                make_example(["hdr:", "Depart:", "gap", t, "end"], [3])
            )
    return examples


class TestTypicalBlueprint:
    def test_majority_vote_for_sets(self):
        blueprints = [
            frozenset({"a", "b"}),
            frozenset({"a", "b"}),
            frozenset({"a", "c"}),
        ]
        assert typical_blueprint(blueprints) == frozenset({"a", "b"})

    def test_empty_raises(self):
        # An empty input has no meaningful average: a frozenset() fallback
        # would be wrong-typed for non-set blueprint domains (BoxSummary).
        with pytest.raises(SynthesisFailure):
            typical_blueprint([])

    def test_medoid_with_distance(self):
        def distance(x, y):
            union = len(x | y)
            return 1 - len(x & y) / union if union else 0.0

        blueprints = [
            frozenset({"a"}),
            frozenset({"a", "b"}),
            frozenset({"a"}),
        ]
        assert typical_blueprint(blueprints, distance) == frozenset({"a"})

    def test_most_common_for_non_sets(self):
        assert typical_blueprint(["x", "y", "x"]) == "x"


def jaccard_distance(x, y):
    union = len(x | y)
    return 1 - len(x & y) / union if union else 0.0


def uncovered_share(x, y):
    """An asymmetric metric: the share of ``x`` that ``y`` misses."""
    return len(x - y) / len(x) if x else 0.0


class TestMedoidOverDistinctBlueprints:
    """The medoid sums each distinct blueprint once, and must pick exactly
    the blueprint (the same object) that the quadratic form picks."""

    @staticmethod
    def quadratic_medoid(blueprints, distance):
        return min(
            blueprints,
            key=lambda bp: sum(distance(bp, other) for other in blueprints),
        )

    @pytest.mark.parametrize("distance", [jaccard_distance, uncovered_share])
    @pytest.mark.parametrize("seed", range(25))
    def test_equals_the_quadratic_form(self, distance, seed):
        rng = random.Random(seed)
        # A few distinct values over a small alphabet: long lists are
        # dense in duplicates and in tied sums.
        shapes = [
            sorted(rng.sample("abcd", rng.randint(0, 3)))
            for _ in range(rng.randint(1, 4))
        ]
        # Every entry is its own object, so the check below also pins
        # which of several equal blueprints is returned.
        blueprints = [
            frozenset(set(rng.choice(shapes)))
            for _ in range(rng.randint(1, 40))
        ]
        calls = []

        def counted(x, y):
            calls.append((x, y))
            return distance(x, y)

        chosen = typical_blueprint(blueprints, counted)
        assert chosen is self.quadratic_medoid(blueprints, distance)
        assert len(calls) == len(set(blueprints)) * len(blueprints)


class TestSynthesizeExtractionProgram:
    def test_produces_working_strategy(self):
        domain = FakeDomain()
        examples = corpus(["8:18 PM", "2:02 PM"])
        cluster = ClusterInfo(examples=examples, landmark="Depart:")
        strategies = synthesize_extraction_program(domain, cluster, "Depart:")
        assert len(strategies) == 1
        strategy = strategies[0]
        assert strategy.landmark == "Depart:"
        doc = examples[0].doc
        region = strategy.region_program(doc, 1)
        assert strategy.value_program(region) == ["8:18 PM"]

    def test_layout_groups_produce_multiple_strategies(self):
        domain = FakeDomain()
        # Two ROI layouts distinguished by a common cell ("end") inside the
        # far layout's region; value offsets differ per layout, so a single
        # merged group would be unsynthesizable.
        plain = [
            make_example(["hdr:", "Depart:", t, "end", "pad"], [2])
            for t in ("8:18 PM", "1:30 PM")
        ]
        far = [
            make_example(["hdr:", "Depart:", "end", t, "pad"], [3])
            for t in ("2:02 PM", "4:45 AM")
        ]
        cluster = ClusterInfo(examples=plain + far, landmark="Depart:")
        strategies = synthesize_extraction_program(domain, cluster, "Depart:")
        assert len(strategies) == 2
        # Each strategy extracts correctly for its own layout.
        for example in plain + far:
            doc = example.doc
            extracted = []
            for strategy in strategies:
                region = strategy.region_program(doc, 1)
                if region is None:
                    continue
                blueprint = domain.region_blueprint(
                    doc, region, strategy.common_values
                )
                if domain.blueprint_distance(
                    blueprint, strategy.blueprint
                ) == 0.0:
                    extracted = strategy.value_program(region)
                    break
            assert extracted == example.annotation.aggregate()

    def test_unanchored_landmark_raises(self):
        domain = FakeDomain()
        examples = corpus(["8:18 PM"])
        cluster = ClusterInfo(examples=examples, landmark="Missing:")
        with pytest.raises(SynthesisFailure):
            synthesize_extraction_program(domain, cluster, "Missing:")

    def test_layout_conditional_off_merges_groups(self):
        class MergedDomain(FakeDomain):
            layout_conditional = False

        domain = MergedDomain()
        examples = corpus(["8:18 PM", "2:02 PM"])
        cluster = ClusterInfo(examples=examples, landmark="Depart:")
        strategies = synthesize_extraction_program(domain, cluster, "Depart:")
        assert len(strategies) == 1


class TestLrsyn:
    def test_end_to_end_on_unseen_document(self):
        domain = FakeDomain()
        program = lrsyn(domain, corpus(["8:18 PM", "2:02 PM", "9:01 AM"]))
        test_doc = make_example(["hdr:", "Depart:", "7:07 AM", "end"], [2]).doc
        assert program.extract(test_doc) == ["7:07 AM"]

    def test_robust_to_content_outside_roi(self):
        domain = FakeDomain()
        program = lrsyn(domain, corpus(["8:18 PM", "2:02 PM"]))
        drifted = make_example(
            ["hdr:", "ad", "ad", "Depart:", "7:07 AM", "end"], [4]
        ).doc
        assert program.extract(drifted) == ["7:07 AM"]

    def test_no_examples_raises(self):
        with pytest.raises(SynthesisFailure):
            lrsyn(FakeDomain(), [])

    def test_bad_candidates_are_skipped(self):
        # "hdr:" scores as a candidate but anchors no consistent value
        # offset across these documents; synthesis falls through to the
        # usable landmark (Section 7.4's robustness claim).
        domain = FakeDomain()
        examples = [
            make_example(["hdr:", "Depart:", "8:18 PM", "end"], [2]),
            make_example(["pad", "hdr:", "Depart:", "2:02 PM", "end"], [3]),
        ]
        program = lrsyn(
            domain, examples, LrsynConfig(fine_threshold=1.0)
        )
        assert "Depart:" in program.landmarks()

    def test_config_threshold_is_passed_through(self):
        domain = FakeDomain()
        config = LrsynConfig(blueprint_threshold=0.25)
        program = lrsyn(domain, corpus(["8:18 PM", "2:02 PM"]), config)
        assert program.threshold == 0.25

    def test_multiple_clusters_yield_multiple_strategies(self):
        domain = FakeDomain()
        depart = corpus(["8:18 PM", "2:02 PM"])
        arrive = [
            make_example(["x", "y", "Arrive:", t, "footer:"], [3])
            for t in ("9:01 AM", "3:03 PM")
        ]
        program = lrsyn(domain, depart + arrive)
        assert set(program.landmarks()) == {"Depart:", "Arrive:"}

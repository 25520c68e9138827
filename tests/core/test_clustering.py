"""Tests for joint clustering + landmark inference (Algorithm 3)."""

import random

from repro.core.caching import DistanceCache
from repro.core.clustering import (
    _merge_clusters,
    fine_cluster,
    infer_landmarks_and_clusters,
    pair_values_to_landmarks,
)

from tests.core.fake_domain import FakeDomain, make_example


def depart_doc(time1, header="hello"):
    return make_example(
        [header, "Depart:", time1, "footer"], [2]
    )


def arrive_doc(time1):
    return make_example(
        ["hi", "Arrive:", time1, "footer", "extra:"], [2]
    )


class TestFineCluster:
    def test_same_format_clusters_together(self):
        domain = FakeDomain()
        examples = [depart_doc("8:18 PM"), depart_doc("2:02 PM")]
        clusters = fine_cluster(domain, examples, threshold=0.0)
        assert len(clusters) == 1

    def test_different_formats_split(self):
        domain = FakeDomain()
        examples = [depart_doc("8:18 PM"), arrive_doc("2:02 PM")]
        clusters = fine_cluster(domain, examples, threshold=0.0)
        assert len(clusters) == 2

    def test_threshold_one_merges_everything(self):
        domain = FakeDomain()
        examples = [depart_doc("8:18 PM"), arrive_doc("2:02 PM")]
        clusters = fine_cluster(domain, examples, threshold=1.0)
        assert len(clusters) == 1

    def test_empty(self):
        assert fine_cluster(FakeDomain(), [], threshold=0.0) == []


class TestPairValues:
    def test_single_occurrence_takes_all_groups(self):
        domain = FakeDomain()
        example = make_example(
            ["Depart:", "8:18 PM", "x", "2:02 PM"], [1, 3]
        )
        pairs = pair_values_to_landmarks(
            domain, example.doc, example.annotation, "Depart:"
        )
        assert len(pairs) == 1
        occurrence, groups = pairs[0]
        assert occurrence == 0
        assert len(groups) == 2

    def test_values_pair_with_nearest_occurrence(self):
        domain = FakeDomain()
        example = make_example(
            ["Depart:", "8:18 PM", "pad", "pad", "Depart:", "2:02 PM"],
            [1, 5],
        )
        pairs = pair_values_to_landmarks(
            domain, example.doc, example.annotation, "Depart:"
        )
        assert len(pairs) == 2
        assert pairs[0][1][0][1] == "8:18 PM"
        assert pairs[1][1][0][1] == "2:02 PM"

    def test_occurrence_without_values_is_dropped(self):
        domain = FakeDomain()
        example = make_example(
            ["Depart:", "8:18 PM", "pad", "pad", "pad", "pad", "Depart:"],
            [1],
        )
        pairs = pair_values_to_landmarks(
            domain, example.doc, example.annotation, "Depart:"
        )
        assert len(pairs) == 1

    def test_missing_landmark_returns_empty(self):
        domain = FakeDomain()
        example = make_example(["a", "b"], [1])
        assert (
            pair_values_to_landmarks(
                domain, example.doc, example.annotation, "Depart:"
            )
            == []
        )


class TestInferLandmarksAndClusters:
    def test_single_format_single_cluster(self):
        domain = FakeDomain()
        examples = [depart_doc(t) for t in ("8:18 PM", "2:02 PM", "9:01 AM")]
        clusters = infer_landmarks_and_clusters(domain, examples)
        assert len(clusters) == 1
        assert clusters[0].landmark == "Depart:"

    def test_roi_equivalent_formats_merge(self):
        # Same local structure around the landmark, different headers: the
        # whole-document blueprints differ (one has an extra "promo:" cell)
        # but the ROI blueprints coincide, so the clusters merge.
        domain = FakeDomain()
        plain = [
            make_example(["hdr:", "Depart:", t, "footer"], [2])
            for t in ("8:18 PM", "2:02 PM")
        ]
        promo = [
            make_example(["hdr:", "promo:", "Depart:", t, "footer"], [3])
            for t in ("9:01 AM", "3:03 PM")
        ]
        clusters = infer_landmarks_and_clusters(
            domain, plain + promo, merge_threshold=0.0
        )
        assert len(clusters) == 1
        assert len(clusters[0].examples) == 4

    def test_different_local_structure_stays_split(self):
        domain = FakeDomain()
        depart = [depart_doc(t) for t in ("8:18 PM", "2:02 PM")]
        arrive = [arrive_doc(t) for t in ("9:01 AM", "3:03 PM")]
        clusters = infer_landmarks_and_clusters(
            domain, depart + arrive, merge_threshold=0.0
        )
        assert len(clusters) == 2
        landmarks = {cluster.landmark for cluster in clusters}
        assert landmarks == {"Depart:", "Arrive:"}

    def test_empty_input(self):
        assert infer_landmarks_and_clusters(FakeDomain(), []) == []

    def test_candidates_are_scored_and_ordered(self):
        domain = FakeDomain()
        examples = [
            make_example(["far:", "pad", "Depart:", t], [3])
            for t in ("8:18 PM", "2:02 PM")
        ]
        clusters = infer_landmarks_and_clusters(domain, examples)
        candidates = clusters[0].candidates
        assert candidates[0].value == "Depart:"
        assert candidates[0].score >= candidates[-1].score


def reference_merges(clusters, roi_of, cache, merge_threshold):
    """Algorithm 3's merge loop without memos: every round re-sums every
    document pair of every cluster pair."""

    def cluster_distance(cluster_a, cluster_b):
        distances = []
        for ex_a in cluster_a:
            for ex_b in cluster_b:
                roi_a = roi_of[id(ex_a)]
                roi_b = roi_of[id(ex_b)]
                shared = set(roi_a) & set(roi_b)
                if not shared:
                    distances.append(1.0)
                    continue
                distances.append(
                    min(cache.distance(roi_a[m], roi_b[m]) for m in shared)
                )
        if not distances:
            return 1.0
        return sum(distances) / len(distances)

    merges = []
    merged = True
    while merged and len(clusters) > 1:
        merged = False
        best_pair = None
        best_distance = merge_threshold
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                distance = cluster_distance(clusters[i], clusters[j])
                if distance <= best_distance:
                    best_pair = (i, j)
                    best_distance = distance
        if best_pair is not None:
            i, j = best_pair
            clusters[i] = clusters[i] + clusters[j]
            del clusters[j]
            merges.append(best_pair)
            merged = True
    return merges


class AsymmetricDomain(FakeDomain):
    """Directed distance: the share of the first blueprint the second
    lacks, so the document-pair memo must keep orientations apart."""

    symmetric_distance = False

    def blueprint_distance(self, bp1, bp2):
        return len(bp1 - bp2) / len(bp1) if bp1 else 0.0


class TestMergeLoop:
    def training_set(self, seed):
        """Singleton clusters over seeded random ROI blueprints: each
        document has a random subset of three landmarks, each with a
        random cell set, so merges happen at many distances."""
        rng = random.Random(seed)
        examples = [
            make_example([f"doc{i}", "v"], [1]) for i in range(14)
        ]
        roi_of = {}
        for example in examples:
            landmarks = [m for m in ("a:", "b:", "c:") if rng.random() < 0.7]
            roi_of[id(example)] = {
                m: frozenset(rng.sample(range(8), rng.randint(1, 5)))
                for m in landmarks
            }
        return examples, roi_of

    def test_merge_sequence_equals_unmemoized_loop(self):
        for domain in (FakeDomain(), AsymmetricDomain()):
            for seed in range(5):
                for threshold in (0.3, 0.6, 0.9):
                    examples, roi_of = self.training_set(seed)
                    memoized = [[example] for example in examples]
                    reference = [[example] for example in examples]
                    merges = _merge_clusters(
                        memoized,
                        roi_of,
                        DistanceCache(domain, enabled=False),
                        threshold,
                    )
                    expected = reference_merges(
                        reference,
                        roi_of,
                        DistanceCache(domain, enabled=False),
                        threshold,
                    )
                    assert merges == expected
                    assert memoized == reference
        # The seeded sets really exercise the loop: several rounds, and
        # merges of clusters that were themselves merged.
        assert len(merges) >= 3
        assert any(len(cluster) >= 3 for cluster in memoized)

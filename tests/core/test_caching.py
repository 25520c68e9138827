"""Tests for the memoization/instrumentation layer (repro.core.caching)."""

import pytest

from repro.core.caching import (
    DistanceCache,
    StageTimer,
    active_timer,
    cache_enabled,
    use_timer,
)
from tests.core.fake_domain import FakeDomain, FakeDoc, make_example


class CountingDomain(FakeDomain):
    """FakeDomain that counts how often each expensive operation runs."""

    def __init__(self):
        self.document_blueprint_calls = 0
        self.distance_calls = 0
        self.landmark_calls = 0

    def document_blueprint(self, doc):
        self.document_blueprint_calls += 1
        return super().document_blueprint(doc)

    def blueprint_distance(self, bp1, bp2):
        self.distance_calls += 1
        return super().blueprint_distance(bp1, bp2)

    def landmark_candidates(self, examples, max_candidates=10):
        self.landmark_calls += 1
        return super().landmark_candidates(examples, max_candidates)


class TestDocumentBlueprintCache:
    def test_second_lookup_hits(self):
        domain = CountingDomain()
        cache = DistanceCache(domain, enabled=True)
        doc = FakeDoc(["a:", "b"])
        first = cache.document_blueprint(doc)
        second = cache.document_blueprint(doc)
        assert first == second
        assert domain.document_blueprint_calls == 1
        assert cache.hit_counts.get("doc_bp") == 1
        assert cache.miss_counts.get("doc_bp") == 1

    def test_distinct_docs_miss(self):
        domain = CountingDomain()
        cache = DistanceCache(domain, enabled=True)
        doc_a, doc_b = FakeDoc(["a:"]), FakeDoc(["b:"])
        cache.document_blueprint(doc_a)
        cache.document_blueprint(doc_b)
        assert domain.document_blueprint_calls == 2
        assert cache.hits == 0

    def test_disabled_cache_always_computes(self):
        domain = CountingDomain()
        cache = DistanceCache(domain, enabled=False)
        doc = FakeDoc(["a:"])
        cache.document_blueprint(doc)
        cache.document_blueprint(doc)
        assert domain.document_blueprint_calls == 2
        assert cache.hits == 0 and cache.misses == 0


class TestDistanceCache:
    def test_symmetric_hit(self):
        domain = CountingDomain()
        cache = DistanceCache(domain, enabled=True)
        bp_a, bp_b = frozenset({"x"}), frozenset({"x", "y"})
        forward = cache.distance(bp_a, bp_b)
        backward = cache.distance(bp_b, bp_a)
        assert forward == backward == domain.blueprint_distance(bp_a, bp_b)
        # One cached computation plus the direct assertion call above.
        assert domain.distance_calls == 2
        assert cache.hit_counts.get("distance") == 1

    def test_asymmetric_domain_caches_each_orientation(self):
        class AsymmetricDomain(CountingDomain):
            symmetric_distance = False

            def blueprint_distance(self, bp1, bp2):
                self.distance_calls += 1
                # Order-dependent metric, like image summary_distance.
                return 0.25 if len(bp1) <= len(bp2) else 0.75

        domain = AsymmetricDomain()
        cache = DistanceCache(domain, enabled=True)
        bp_a, bp_b = frozenset({"x"}), frozenset({"x", "y"})
        assert cache.distance(bp_a, bp_b) == 0.25
        # Must NOT serve the reversed-order entry: recompute.
        assert cache.distance(bp_b, bp_a) == 0.75
        assert domain.distance_calls == 2
        # Each orientation hits its own entry afterwards.
        assert cache.distance(bp_a, bp_b) == 0.25
        assert cache.distance(bp_b, bp_a) == 0.75
        assert domain.distance_calls == 2

    def test_values_match_uncached(self):
        domain = FakeDomain()
        cache = DistanceCache(domain, enabled=True)
        pairs = [
            (frozenset({"a"}), frozenset({"a", "b"})),
            (frozenset(), frozenset()),
            (frozenset({"c"}), frozenset({"d"})),
        ]
        for bp_a, bp_b in pairs:
            assert cache.distance(bp_a, bp_b) == domain.blueprint_distance(
                bp_a, bp_b
            )


class TestRoiBlueprintCache:
    def test_keyed_by_doc_landmark_and_common_values(self):
        cache = DistanceCache(FakeDomain(), enabled=True)
        doc = FakeDoc(["a:", "b"])
        calls = []

        def compute():
            calls.append(1)
            return frozenset({"a:"})

        common = frozenset({"a:"})
        cache.roi_blueprint(doc, "a:", common, compute)
        cache.roi_blueprint(doc, "a:", common, compute)
        assert len(calls) == 1
        # A different landmark or common-value set is a different key.
        cache.roi_blueprint(doc, "b:", common, compute)
        cache.roi_blueprint(doc, "a:", frozenset(), compute)
        assert len(calls) == 3

    def test_none_result_is_cached(self):
        cache = DistanceCache(FakeDomain(), enabled=True)
        doc = FakeDoc(["a:"])
        calls = []

        def compute():
            calls.append(1)
            return None

        assert cache.roi_blueprint(doc, "a:", frozenset(), compute) is None
        assert cache.roi_blueprint(doc, "a:", frozenset(), compute) is None
        assert len(calls) == 1


class TestLandmarkCache:
    def examples(self):
        return [
            make_example(["hdr:", "Depart:", "8:18 PM", "end"], [2]),
            make_example(["hdr:", "Depart:", "2:02 PM", "end"], [2]),
        ]

    def test_same_example_set_hits(self):
        domain = CountingDomain()
        cache = DistanceCache(domain, enabled=True)
        examples = self.examples()
        first = cache.landmark_candidates(examples, 10)
        second = cache.landmark_candidates(examples, 10)
        assert first == second
        assert domain.landmark_calls == 1

    def test_returns_are_independent_copies(self):
        cache = DistanceCache(CountingDomain(), enabled=True)
        examples = self.examples()
        first = cache.landmark_candidates(examples, 10)
        first.clear()
        assert cache.landmark_candidates(examples, 10)


class TestCacheEnabledKnob:
    def test_env_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert cache_enabled()
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert not cache_enabled()
        assert not DistanceCache(FakeDomain()).enabled
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert DistanceCache(FakeDomain()).enabled


class TestStageTimer:
    def test_stage_accumulates_seconds_and_calls(self):
        timer = StageTimer()
        with timer.stage("cluster"):
            pass
        with timer.stage("cluster"):
            pass
        assert timer.calls["cluster"] == 2
        assert timer.seconds["cluster"] >= 0.0

    def test_merge_folds_snapshots(self):
        timer = StageTimer()
        timer.count("cache.distance.hit", 3)
        with timer.stage("score"):
            pass
        other = StageTimer()
        other.merge(timer.snapshot())
        other.merge(timer.snapshot())
        assert other.calls["score"] == 2
        assert other.counters["cache.distance.hit"] == 6

    def test_use_timer_scopes_recording(self):
        scoped = StageTimer()
        with use_timer(scoped) as timer:
            assert active_timer() is scoped is timer
            with active_timer().stage("landmark"):
                pass
        assert scoped.calls["landmark"] == 1
        assert active_timer() is not scoped

    def test_exception_still_records(self):
        timer = StageTimer()
        with pytest.raises(ValueError):
            with timer.stage("score"):
                raise ValueError("boom")
        assert timer.calls["score"] == 1

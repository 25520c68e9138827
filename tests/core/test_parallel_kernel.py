"""Tests for the blocked shared-memory pairwise kernel and its guards."""

from repro.core import parallel
from repro.core.caching import DistanceCache
from repro.core.clustering import (
    pairwise_distance_matrix,
    prefill_pairwise_distances,
)
from repro.html.domain import HtmlDomain
from tests.core.fake_domain import FakeDomain


class AsymmetricDomain(FakeDomain):
    symmetric_distance = False

    def blueprint_distance(self, bp1, bp2):
        return 0.25 if len(bp1) <= len(bp2) else 0.75


def blueprints(n):
    return [frozenset({f"path{i}", "shared"}) for i in range(n)]


class TestTileRanges:
    def test_empty_and_negative(self):
        assert parallel.tile_ranges(0, 4) == []
        assert parallel.tile_ranges(-3, 4) == []

    def test_single_element(self):
        assert parallel.tile_ranges(1, 4) == [(0, 1)]

    def test_tile_larger_than_n(self):
        assert parallel.tile_ranges(3, 100) == [(0, 3)]

    def test_exact_multiple(self):
        assert parallel.tile_ranges(8, 4) == [(0, 4), (4, 8)]

    def test_remainder_tile(self):
        assert parallel.tile_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_degenerate_tile_size(self):
        assert parallel.tile_ranges(3, 0) == [(0, 1), (1, 2), (2, 3)]

    def test_tiles_cover_range_exactly(self):
        ranges = parallel.tile_ranges(17, 5)
        covered = [i for start, stop in ranges for i in range(start, stop)]
        assert covered == list(range(17))


class TestPairwiseMatrix:
    def test_empty_and_singleton(self):
        domain = HtmlDomain()
        assert pairwise_distance_matrix(domain, []) == {}
        assert pairwise_distance_matrix(domain, blueprints(1)) == {}

    def test_symmetric_upper_triangle_only(self):
        domain = HtmlDomain()
        matrix = pairwise_distance_matrix(domain, blueprints(5))
        assert set(matrix) == {
            (i, j) for i in range(5) for j in range(i + 1, 5)
        }

    def test_asymmetric_full_matrix(self):
        domain = AsymmetricDomain()
        matrix = pairwise_distance_matrix(domain, blueprints(4))
        assert set(matrix) == {
            (i, j) for i in range(4) for j in range(4) if i != j
        }

    def test_values_match_direct_computation(self):
        domain = HtmlDomain()
        bps = blueprints(6)
        matrix = pairwise_distance_matrix(domain, bps)
        for (i, j), value in matrix.items():
            assert value == domain.blueprint_distance(bps[i], bps[j])

    def test_n_smaller_than_tile_count(self):
        # n=3 with tile=1 yields more tiles than elements — every pair
        # still appears exactly once.
        domain = HtmlDomain()
        matrix = pairwise_distance_matrix(domain, blueprints(3), tile=1)
        assert set(matrix) == {(0, 1), (0, 2), (1, 2)}

    def test_parallel_equals_serial(self, monkeypatch):
        domain = HtmlDomain()
        bps = [
            frozenset({f"p{i}", f"q{i % 3}", "shared"}) for i in range(24)
        ]
        serial = pairwise_distance_matrix(domain, bps, n_jobs=1)
        monkeypatch.setattr("repro.core.clustering.MIN_PARALLEL_PAIRS", 1)
        forked = pairwise_distance_matrix(domain, bps, tile=5, n_jobs=2)
        assert serial == forked


class TestPrefill:
    def test_seeds_cache_with_exact_values(self, monkeypatch):
        monkeypatch.setattr("repro.core.clustering.MIN_PARALLEL_PAIRS", 1)
        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setattr(parallel, "_IN_WORKER", False)
        domain = HtmlDomain()
        cache = DistanceCache(domain, enabled=True)
        bps = blueprints(6)
        pairs = [(bps[i], bps[j]) for i in range(6) for j in range(i + 1, 6)]
        prefill_pairwise_distances(domain, pairs, cache, tile=4)
        for bp_a, bp_b in pairs:
            assert cache.distance_cached(bp_a, bp_b)
            assert cache.distance(bp_a, bp_b) == domain.blueprint_distance(
                bp_a, bp_b
            )

    def test_disabled_cache_skips(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        domain = HtmlDomain()
        cache = DistanceCache(domain, enabled=False)
        prefill_pairwise_distances(
            domain, [(frozenset({"a"}), frozenset({"b"}))], cache
        )
        assert not cache._distances


class TestKernelGuards:
    def test_serial_inside_harness_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setattr(parallel, "_IN_WORKER", True)
        assert parallel.kernel_jobs() == 1

    def test_follows_repro_jobs(self, monkeypatch):
        monkeypatch.setattr(parallel, "_IN_WORKER", False)
        monkeypatch.setenv("REPRO_JOBS", "3")
        if parallel.fork_context() is not None:
            assert parallel.kernel_jobs() == 3

    def test_run_sharded_orders_results(self, monkeypatch):
        shards = parallel.tile_ranges(10, 3)
        results = parallel.run_sharded(
            None, _identity_shard, shards, max_workers=2
        )
        assert results == shards

    def test_run_sharded_serial_fallback(self):
        shards = parallel.tile_ranges(4, 2)
        assert (
            parallel.run_sharded(None, _identity_shard, shards, max_workers=1)
            == shards
        )


def _identity_shard(shard):
    return shard


class TestParallelLandmarkScoring:
    def test_html_parallel_matches_serial(self, monkeypatch):
        from repro.datasets import m2h
        from repro.html import landmarks as lm

        corpus = m2h.generate_corpus(
            "getthere", train_size=6, test_size=0, seed=0
        )
        examples = corpus.training_examples("DTime")

        monkeypatch.setattr(parallel, "_IN_WORKER", False)
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = lm.landmark_candidates(examples, 10)

        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setattr(lm, "MIN_PARALLEL_GRAMS", 1)
        forked = lm.landmark_candidates(examples, 10)
        assert serial == forked

    def test_image_parallel_matches_serial(self, monkeypatch):
        from repro.datasets import finance
        from repro.images import landmarks as lm

        corpus = finance.generate_corpus(
            "AccountsInvoice", train_size=4, test_size=0, seed=0
        )
        field = finance.FINANCE_FIELDS["AccountsInvoice"][0]
        examples = corpus.training_examples(field)

        monkeypatch.setattr(parallel, "_IN_WORKER", False)
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = lm.landmark_candidates(examples, 10)

        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setattr(lm, "MIN_PARALLEL_GRAMS", 1)
        forked = lm.landmark_candidates(examples, 10)
        assert serial == forked

    def test_lrsyn_identical_with_parallel_kernels(self, monkeypatch):
        """End-to-end: REPRO_JOBS>1 kernels change nothing observable."""
        from repro.core.synthesis import lrsyn
        from repro.datasets import m2h
        from repro.html import landmarks as lm

        corpus = m2h.generate_corpus(
            "delta", train_size=6, test_size=8, seed=0
        )
        examples = corpus.training_examples("DTime")
        domain = HtmlDomain()

        monkeypatch.setattr(parallel, "_IN_WORKER", False)
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial_program = lrsyn(domain, examples)

        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setattr(lm, "MIN_PARALLEL_GRAMS", 1)
        monkeypatch.setattr("repro.core.clustering.MIN_PARALLEL_PAIRS", 1)
        parallel_program = lrsyn(domain, examples)

        assert len(serial_program.strategies) == len(
            parallel_program.strategies
        )
        for left, right in zip(
            serial_program.strategies, parallel_program.strategies
        ):
            assert left.landmark == right.landmark
            assert left.blueprint == right.blueprint
            assert left.common_values == right.common_values
        for example in examples:
            assert serial_program.extract(example.doc) == (
                parallel_program.extract(example.doc)
            )

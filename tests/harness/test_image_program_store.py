"""Image-table persistence: warm image runs must skip training.

Mirror of ``tests/harness/test_program_store.py`` for the image domain —
plus the invariants it depends on: content fingerprints must survive a
pickle round-trip (historically broken: the ``ImageDocument._order`` map
is keyed by process-local ids), symmetric metrics must serve both
orientations from one in-memory cache entry while the image domain's
asymmetric BoxSummary metric must keep orientations separate.
"""

import math
import pickle

from repro.core.caching import DistanceCache, StageTimer, use_timer
from repro.store import shared_store
from repro.datasets import finance, m2h_images
from repro.harness.images import (
    AfrMethod,
    LrsynImageMethod,
    run_finance_experiment,
    run_m2h_images_experiment,
)
from repro.harness.runner import flush_corpus_store
from repro.html.domain import HtmlDomain
from repro.html.parser import parse_html
from repro.images import blueprint as bp
from repro.images.boxes import DIRECTIONS
from repro.images.domain import ImageDomain
from tests.harness.test_bench_experiment_store import assert_trained_nothing


def assert_identical(first, second):
    assert len(first) == len(second)
    for left, right in zip(first, second):
        assert (left.method, left.provider, left.field, left.setting) == (
            right.method, right.provider, right.field, right.setting
        )
        for a, b in (
            (left.f1, right.f1),
            (left.precision, right.precision),
            (left.recall, right.recall),
        ):
            assert (math.isnan(a) and math.isnan(b)) or a == b


def rotate_shared_store(monkeypatch, tmp_path, store_dir):
    """Force the next shared_store() to rehydrate from sqlite.

    Bounces the env config through a throwaway directory so the rerun
    behaves like a fresh process: nothing is served from the previous
    instance's in-memory tables.
    """
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "rotate"))
    shared_store()
    monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))


class TestFingerprintStability:
    def test_image_fingerprints_survive_pickle(self):
        corpus = finance.generate_corpus(
            "CashInvoice", train_size=2, test_size=1, seed=0
        )
        domain = ImageDomain()
        for field in finance.FINANCE_FIELDS["CashInvoice"][:3]:
            for example in corpus.training_examples(field):
                copy = pickle.loads(pickle.dumps(example))
                assert domain.example_fingerprint(
                    copy
                ) == domain.example_fingerprint(example)

    def test_order_index_rebuilt_after_pickle(self):
        corpus = finance.generate_corpus(
            "CashInvoice", train_size=1, test_size=0, seed=0
        )
        doc = corpus.train[0].doc
        copy = pickle.loads(pickle.dumps(doc))
        assert copy.fingerprint() == doc.fingerprint()
        orders = [copy.order_of(box) for box in copy.boxes]
        assert orders == list(range(len(copy.boxes)))

    def test_neighbour_table_stays_out_of_pickles(self):
        """Neighbour queries fill the document's neighbour table; neither
        the document's nor the corpus's pickled bytes may change, and an
        unpickled copy must answer every query the same way."""
        corpus = finance.generate_corpus(
            "CashInvoice", train_size=2, test_size=1, seed=0
        )
        doc = corpus.train[0].doc
        doc_bytes, corpus_bytes = pickle.dumps(doc), pickle.dumps(corpus)
        answers = [
            [doc.neighbor(box, direction) for direction in DIRECTIONS]
            for box in doc.boxes
        ]
        assert pickle.dumps(doc) == doc_bytes
        assert pickle.dumps(corpus) == corpus_bytes
        copy = pickle.loads(doc_bytes)
        for box, row in zip(copy.boxes, answers):
            for direction, expected in zip(DIRECTIONS, row):
                found = copy.neighbor(box, direction)
                assert (found is None) == (expected is None)
                if found is not None:
                    assert copy.order_of(found) == doc.order_of(expected)

    def test_regenerated_corpus_fingerprints_identical(self):
        """Seeded generation is the cross-machine key contract: machine A
        stores under the fingerprints machine B derives."""
        first = finance.generate_corpus(
            "CashInvoice", train_size=2, test_size=2, seed=3
        )
        second = finance.generate_corpus(
            "CashInvoice", train_size=2, test_size=2, seed=3
        )
        firsts = [labeled.doc.fingerprint() for labeled in first.train]
        seconds = [labeled.doc.fingerprint() for labeled in second.train]
        assert firsts == seconds

    def test_html_fingerprint_stable_across_parse_round_trips(self):
        html = "<html><body><p id='a'>Depart: 8:18 PM</p></body></html>"
        assert parse_html(html).fingerprint() == parse_html(html).fingerprint()
        doc = parse_html(html)
        copy = pickle.loads(pickle.dumps(doc))
        assert copy.fingerprint() == doc.fingerprint()


class TestWarmImageRuns:
    def test_warm_finance_run_skips_training(
        self, tmp_path, monkeypatch
    ):
        store_dir = tmp_path / "imgstore"
        monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))
        monkeypatch.setenv("REPRO_STORE", "1")
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_JOBS", "1")
        methods = [AfrMethod(), LrsynImageMethod()]

        cold_timer = StageTimer()
        with use_timer(cold_timer):
            cold = run_finance_experiment(
                methods, doc_types=["CashInvoice"], train_size=4, test_size=6
            )
        flush_corpus_store()
        assert cold_timer.counters.get("store.program.miss", 0) > 0

        rotate_shared_store(monkeypatch, tmp_path, store_dir)

        warm_timer = StageTimer()
        with use_timer(warm_timer):
            warm = run_finance_experiment(
                methods, doc_types=["CashInvoice"], train_size=4, test_size=6
            )
        assert_identical(cold, warm)
        # Every training request — both methods, every field — must be
        # served from the store: the warm image table skips synthesis.
        assert warm_timer.counters.get("store.program.hit", 0) > 0
        assert_trained_nothing(warm_timer)

    def test_warm_m2h_images_run_skips_training(self, tmp_path, monkeypatch):
        store_dir = tmp_path / "imgstore2"
        monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))
        methods = [LrsynImageMethod()]
        cold = run_m2h_images_experiment(
            methods, providers=["getthere"], train_size=3, test_size=4
        )
        flush_corpus_store()
        rotate_shared_store(monkeypatch, tmp_path, store_dir)
        warm_timer = StageTimer()
        with use_timer(warm_timer):
            warm = run_m2h_images_experiment(
                methods, providers=["getthere"], train_size=3, test_size=4
            )
        assert_identical(cold, warm)
        assert_trained_nothing(warm_timer)
        assert warm_timer.counters.get("store.program.hit", 0) == len(
            m2h_images.fields_for("getthere")
        )


class TestMetricInvariants:
    # A greedy-matching asymmetry: the single summary in ``b`` matches a
    # different element of ``a`` depending on which side drives the
    # greedy loop, so d(a, b) != d(b, a).
    ASYM_A = frozenset({("T", "p", "q", "r", "s"), ("T", "p", "x", "y", "z")})
    ASYM_B = frozenset({("T", "p", "q", "y", "z")})

    def test_summary_distance_is_genuinely_asymmetric(self):
        assert bp.summary_distance(self.ASYM_A, self.ASYM_B) != (
            bp.summary_distance(self.ASYM_B, self.ASYM_A)
        )

    def test_symmetric_metric_orientation_independent_hits(self):
        """HTML distances: one table entry serves both orientations."""
        domain = HtmlDomain()
        cache = DistanceCache(domain, enabled=True)
        a = frozenset({"Depart", "Arrive"})
        b = frozenset({"Depart"})
        value = cache.distance(a, b)
        assert cache.distance(b, a) == value
        assert cache.hit_counts.get("distance") == 1  # reversed = a hit
        assert list(cache._distances) == [(a, b)]

    def test_asymmetric_image_metric_keeps_orientations_apart(self):
        """Image BoxSummary matching: each orientation caches its own
        value, and both equal the uncached computation exactly."""
        domain = ImageDomain()
        cache = DistanceCache(domain, enabled=True)
        forward = cache.distance(self.ASYM_A, self.ASYM_B)
        backward = cache.distance(self.ASYM_B, self.ASYM_A)
        assert forward == domain.blueprint_distance(self.ASYM_A, self.ASYM_B)
        assert backward == domain.blueprint_distance(self.ASYM_B, self.ASYM_A)
        assert forward != backward
        # The reversed lookup must have been a miss, never served from
        # the forward entry.
        assert cache.hit_counts.get("distance") is None
        assert cache.miss_counts.get("distance") == 2
        assert cache._distances == {
            (self.ASYM_A, self.ASYM_B): forward,
            (self.ASYM_B, self.ASYM_A): backward,
        }
        # Each orientation is then served from its own entry.
        assert cache.distance(self.ASYM_A, self.ASYM_B) == forward
        assert cache.distance(self.ASYM_B, self.ASYM_A) == backward
        assert cache.hit_counts.get("distance") == 2

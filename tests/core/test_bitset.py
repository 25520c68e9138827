"""Property tests for the interned-bitset blueprint encoding.

The serving router interns its catalog with it.  The contracts under
test, in the order the router relies on them:

* bitset Jaccard is *bit-identical* (not approximately equal) to the
  frozenset ``jaccard_distance`` on randomized universes — both paths
  divide the same two integers;
* the interner assigns bit positions from sorted element order, so the
  encoding is a pure function of universe content: identical across
  subprocesses running under hostile ``PYTHONHASHSEED`` values;
* encode/decode round-trips, also on each domain's real
  whole-document blueprints (what the router's catalog holds).
"""

from __future__ import annotations

import inspect
import os
import random
import subprocess
import sys

from repro.core import bitset
from repro.core.caching import DistanceCache
from repro.core.clustering import fine_cluster
from repro.core.distance import jaccard_distance
from repro.html.domain import HtmlDomain
from repro.images.domain import ImageDomain
from tests.core.fake_domain import make_example


def jaccard_bits(a, b):
    """Jaccard distance between two bitmasks of one universe, the
    popcount form the serving router computes inline.

    Bit-identical to ``jaccard_distance`` on the decoded sets: both
    divide ``|a ∩ b|`` by ``|a ∪ b|`` as exact integers.
    """
    union = (a | b).bit_count()
    if not union:
        return 0.0
    return 1.0 - (a & b).bit_count() / union


def decode(universe, mask):
    """The element set a bitmask denotes (inverts ``universe.encode``)."""
    return frozenset(
        element
        for position, element in enumerate(universe.elements)
        if mask >> position & 1
    )


def random_universe(rng: random.Random, n_sets: int, vocab: int):
    """Randomized string sets drawn from a shared vocabulary."""
    words = [f"w{idx}-{rng.randrange(1000)}" for idx in range(vocab)]
    return [
        frozenset(rng.sample(words, rng.randrange(0, vocab)))
        for _ in range(n_sets)
    ]


class TestInterner:
    def test_sorted_bit_assignment(self):
        universe = bitset.BitsetUniverse(["zebra", "apple", "mango"])
        assert universe.elements == ("apple", "mango", "zebra")
        assert universe.index == {"apple": 0, "mango": 1, "zebra": 2}

    def test_insertion_order_is_irrelevant(self):
        elements = [f"e{i}" for i in range(100)]
        shuffled = list(elements)
        random.Random(7).shuffle(shuffled)
        a = bitset.BitsetUniverse(elements)
        b = bitset.BitsetUniverse(shuffled)
        assert a.elements == b.elements
        assert a.index == b.index

    def test_round_trip_randomized(self):
        rng = random.Random(0)
        for _ in range(50):
            sets = random_universe(rng, n_sets=8, vocab=40)
            universe = bitset.BitsetUniverse(
                element for s in sets for element in s
            )
            for s in sets:
                assert decode(universe, universe.encode(s)) == s

    def test_encode_within_drops_unknowns(self):
        universe = bitset.BitsetUniverse(["a", "b"])
        assert universe.encode_within(["a", "nope", "b"]) == universe.encode(
            ["a", "b"]
        )

    def test_empty_universe(self):
        universe = bitset.BitsetUniverse([])
        assert len(universe) == 0
        assert universe.encode([]) == 0
        assert decode(universe, 0) == frozenset()


class TestDistanceEquality:
    def test_jaccard_bits_matches_frozenset_exactly(self):
        rng = random.Random(1)
        for _ in range(30):
            sets = random_universe(rng, n_sets=12, vocab=80)
            universe = bitset.BitsetUniverse(
                element for s in sets for element in s
            )
            masks = [universe.encode(s) for s in sets]
            for i, set_a in enumerate(sets):
                for j, set_b in enumerate(sets):
                    expected = jaccard_distance(set_a, set_b)
                    assert jaccard_bits(masks[i], masks[j]) == expected

    def test_empty_sets_distance_zero(self):
        universe = bitset.BitsetUniverse(["x"])
        assert jaccard_bits(0, 0) == 0.0
        assert jaccard_bits(0, universe.encode(["x"])) == 1.0

    def test_intersect_all_matches_iterated_intersection(self):
        rng = random.Random(5)
        for _ in range(30):
            sets = random_universe(rng, n_sets=6, vocab=30)
            expected = sets[0]
            for s in sets[1:]:
                expected = expected & s
            assert bitset.intersect_all(sets) == expected
        assert bitset.intersect_all([]) == frozenset()
        assert bitset.intersect_all([frozenset({"a"})]) == frozenset({"a"})


# The subprocess defines the same ``jaccard_bits`` helper as this module.
_DETERMINISM_SNIPPET = inspect.getsource(jaccard_bits) + """
import random
from repro.core import bitset
rng = random.Random(42)
words = [f"tok{i}" for i in range(200)]
sets = [frozenset(rng.sample(words, rng.randrange(0, 120))) for _ in range(30)]
universe = bitset.BitsetUniverse(e for s in sets for e in s)
masks = [universe.encode(s) for s in sets]
print(",".join(universe.elements))
print(",".join(str(m) for m in masks))
print(",".join(repr(jaccard_bits(masks[0], m)) for m in masks))
"""


class TestHashSeedDeterminism:
    def test_identical_across_subprocess_hash_seeds(self):
        outputs = set()
        for hash_seed in ("0", "1", "31337"):
            env = {
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "PYTHONPATH": os.pathsep.join(
                    p for p in ("src", os.environ.get("PYTHONPATH")) if p
                ),
            }
            result = subprocess.run(
                [sys.executable, "-c", _DETERMINISM_SNIPPET],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1


def assert_interns_exactly(domain, blueprints):
    """Round-trip, and bitset distance equals ``domain.blueprint_distance``."""
    universe = bitset.BitsetUniverse(
        element for blueprint in blueprints for element in blueprint
    )
    masks = [universe.encode(blueprint) for blueprint in blueprints]
    for blueprint, mask in zip(blueprints, masks):
        assert decode(universe, mask) == blueprint
    for i, mask_a in enumerate(masks):
        for j, mask_b in enumerate(masks):
            assert jaccard_bits(mask_a, mask_b) == (
                domain.blueprint_distance(blueprints[i], blueprints[j])
            )


class TestUniverseFor:
    """What the router interns: each domain's whole-document blueprints."""

    def test_html_blueprints_encode(self):
        from repro.datasets import m2h

        domain = HtmlDomain()
        corpus = m2h.generate_corpus(
            "getthere", train_size=4, test_size=0, seed=0
        )
        blueprints = [
            domain.document_blueprint(example.doc)
            for example in corpus.training_examples("DTime")
        ]
        assert all(blueprints)
        assert_interns_exactly(domain, blueprints + [frozenset()])

    def test_image_document_blueprints_encode(self):
        from repro.datasets import finance

        domain = ImageDomain()
        corpus = finance.generate_corpus(
            "AccountsInvoice", train_size=4, test_size=0, seed=0
        )
        field = finance.FINANCE_FIELDS["AccountsInvoice"][0]
        blueprints = [
            domain.document_blueprint(example.doc)
            for example in corpus.training_examples(field)
        ]
        assert all(blueprints)
        assert_interns_exactly(domain, blueprints + [frozenset()])


class TestPipelineParity:
    """Synthesis call sites agree with the plain frozenset definitions."""

    def test_fine_cluster_placements_match_legacy(self):
        rng = random.Random(8)
        vocab = [f"body/table/tr/td{i}" for i in range(20)]
        examples = []
        for _ in range(18):
            cells = rng.sample(vocab, rng.randrange(5, 20))
            example = make_example(["x:"], [0])
            example.doc = _BlueprintDoc(frozenset(cells))
            examples.append(example)
        domain = _BlueprintOnlyDomain()
        placements = fine_cluster(
            domain,
            examples,
            threshold=0.5,
            cache=DistanceCache(domain, enabled=True),
        )
        assert _shape(placements) == _shape(
            _legacy_fine_cluster(examples, 0.5)
        )


def _shape(clusters):
    return [[id(example) for example in cluster] for cluster in clusters]


def _legacy_fine_cluster(examples, threshold):
    """Single linkage, first cluster wins, by per-pair frozenset Jaccard."""
    clusters = []
    for example in examples:
        for cluster in clusters:
            if any(
                jaccard_distance(example.doc.blueprint, other.doc.blueprint)
                <= threshold
                for other in cluster
            ):
                cluster.append(example)
                break
        else:
            clusters.append([example])
    return clusters


class _BlueprintDoc:
    def __init__(self, blueprint):
        self.blueprint = blueprint


class _BlueprintOnlyDomain(HtmlDomain):
    """HtmlDomain metric over pre-made blueprints (no DOM needed)."""

    substrate = None

    def document_blueprint(self, doc):
        return doc.blueprint

    def document_fingerprint(self, doc):
        return None

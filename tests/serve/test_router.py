"""Catalog loading, degrade reasons and bitset-distance routing."""

from __future__ import annotations

import pytest

import repro.store as store_mod
from repro.serve.router import (
    REASON_MISSING,
    REASON_STALE,
    REASON_SYNTH,
    REASON_UNPICKLABLE,
    REASON_UNREADABLE,
    Router,
    load_catalog,
    peek_digest,
)
from repro.store import BlueprintStore


class FixedExtractor:
    """A picklable stand-in program (tests only need `.extract`)."""

    def __init__(self, values):
        self.values = list(values)

    def extract(self, doc):
        return list(self.values)


def synthetic_store(tmp_path, rows, programs):
    """A store holding explicit serving rows + program blobs."""
    from repro.harness.export import catalog_payload, serving_entry_key

    store = BlueprintStore(directory=tmp_path, enabled=True)
    for program_key, value in programs.items():
        store.put("program", program_key, "html", value)
    for row in rows:
        payload = catalog_payload(
            row["dataset"],
            row["provider"],
            row["field"],
            row["method"],
            row["program_key"],
            row.get("blueprints", (frozenset({"a", "b"}),)),
            row.get("status", "ready"),
        )
        payload.update(row.get("override", {}))
        store.put(
            "serving",
            serving_entry_key(
                row["dataset"], row["provider"], row["field"], row["method"]
            ),
            "html",
            payload,
            overwrite=True,
        )
    store.flush()
    return store


def row(provider, field="F", method="LRSyn", program_key="pk", **kw):
    return {
        "dataset": "synthetic",
        "provider": provider,
        "field": field,
        "method": method,
        "program_key": program_key,
        **kw,
    }


# ---------------------------------------------------------------------
# Loading the real exported catalog
# ---------------------------------------------------------------------
def test_exported_catalog_loads_ready(serve_setup):
    catalog = load_catalog(serve_setup.store)
    assert catalog.ready > 0
    assert catalog.ready == sum(
        1
        for entry in serve_setup.report["entries"]
        if entry["status"] == "ready"
    )
    for entry in catalog.entries:
        if entry.ready:
            assert hasattr(entry.extractor, "extract")
            assert entry.blueprints


def test_digest_tracks_rows_and_generation(serve_setup, monkeypatch):
    catalog = load_catalog(serve_setup.store)
    assert peek_digest(serve_setup.store) == catalog.digest
    monkeypatch.setattr(
        store_mod,
        "BLUEPRINT_ALGO_VERSION",
        store_mod.BLUEPRINT_ALGO_VERSION + 1,
    )
    assert peek_digest(serve_setup.store) != catalog.digest


# ---------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------
def test_routes_training_doc_to_its_provider(serve_setup, sample_docs):
    from repro.html.domain import HtmlDomain

    domain = HtmlDomain()
    router = Router(load_catalog(serve_setup.store))
    for provider, docs in sample_docs.items():
        blueprint = domain.document_blueprint(docs.training[0])
        entry, distance, diagnostic = router.route(docs.field, blueprint)
        assert diagnostic is None
        assert entry.provider == provider
        assert distance == 0.0


def test_distance_paths_are_bit_identical(serve_setup, sample_docs):
    """The bitset distances equal per-pair ``jaccard_distance`` exactly,
    also for request blueprints holding elements outside the catalog
    universe and for the empty blueprint."""
    import random

    from repro.core.distance import jaccard_distance
    from repro.html.domain import HtmlDomain

    domain = HtmlDomain()
    router = Router(load_catalog(serve_setup.store))
    assert router.rows
    blueprints = [
        domain.document_blueprint(doc)
        for docs in sample_docs.values()
        for doc in (*docs.training, *docs.test)
    ]
    known = sorted({e for row in router.rows for e in row.blueprint})
    rng = random.Random(0)
    for index in range(20):
        inside = rng.sample(known, rng.randrange(0, min(len(known), 40)))
        outside = [f"unseen-{index}-{n}" for n in range(rng.randrange(0, 5))]
        blueprints.append(frozenset(inside + outside))
    blueprints.append(frozenset())

    for blueprint in blueprints:
        assert router.distances(blueprint) == [
            jaccard_distance(row.blueprint, blueprint) for row in router.rows
        ]


def test_route_tie_breaks_deterministically(tmp_path):
    store = synthetic_store(
        tmp_path,
        rows=[
            row("pB", blueprints=(frozenset({"x"}),)),
            row("pA", blueprints=(frozenset({"x"}),)),
        ],
        programs={"pk": FixedExtractor(["v"])},
    )
    router = Router(load_catalog(store))
    entry, distance, diagnostic = router.route("F", frozenset({"x"}))
    assert diagnostic is None
    assert (entry.provider, distance) == ("pA", 0.0)
    store.close()


# ---------------------------------------------------------------------
# Degrade reasons: sentinel, stale generation, missing/unreadable blobs
# ---------------------------------------------------------------------
def test_failure_sentinel_never_served(tmp_path):
    """A leaked ``_FAILURE`` sentinel behind a 'ready' row answers 404."""
    from repro.harness.runner import _FAILURE

    store = synthetic_store(
        tmp_path,
        rows=[row("p1", program_key="failed")],
        programs={"failed": _FAILURE},
    )
    router = Router(load_catalog(store))
    entry, diagnostic = router.lookup("p1", "F", "LRSyn")
    assert entry is None
    assert diagnostic["reason"] == REASON_SYNTH
    # And it is not a routing destination either.
    entry, _, diagnostic = router.route("F", frozenset({"a", "b"}))
    assert entry is None
    assert diagnostic["reason"] == REASON_SYNTH
    store.close()


def test_stale_generation_rejected_without_unpickling(tmp_path):
    store = synthetic_store(
        tmp_path,
        rows=[
            row(
                "p1",
                override={"algo": store_mod.BLUEPRINT_ALGO_VERSION + 1},
            )
        ],
        # Unpickling Bomb raises, so a crash here would prove the loader
        # fetched a stale program's blob.
        programs={"pk": Bomb()},
    )
    router = Router(load_catalog(store))
    entry, diagnostic = router.lookup("p1", "F")
    assert entry is None
    assert diagnostic["reason"] == REASON_STALE
    store.close()


def _explode():
    raise RuntimeError("unpickled a stale program")


class Bomb:
    """A program whose *unpickling* raises (pickling is fine)."""

    def __reduce__(self):
        return (_explode, ())


def test_missing_and_unreadable_programs(tmp_path):
    store = synthetic_store(
        tmp_path,
        rows=[
            row("p1", program_key="absent"),
            row("p2", program_key="garbage"),
            row("p3", program_key="pk", status="unpicklable"),
            row("p4", program_key="pk", status="synthesis-failure"),
        ],
        programs={"pk": FixedExtractor(["v"])},
    )
    # A blob that is not a pickle at all.
    store.backend.commit(
        [("garbage", "program", "html", b"\x00not-a-pickle", "raw", 14,
          store_mod.default_generation())],
        (),
    )
    router = Router(load_catalog(store))
    reasons = {
        provider: router.lookup(provider, "F")[1]["reason"]
        for provider in ("p1", "p2", "p3", "p4")
    }
    assert reasons == {
        "p1": REASON_MISSING,
        "p2": REASON_UNREADABLE,
        "p3": REASON_UNPICKLABLE,
        "p4": REASON_SYNTH,
    }
    # None of the degraded entries routes.
    entry, _, diagnostic = router.route("F", frozenset({"a"}))
    assert entry is None and diagnostic is not None
    store.close()


def test_unknown_lookups_are_diagnosed(tmp_path):
    store = synthetic_store(
        tmp_path,
        rows=[row("p1")],
        programs={"pk": FixedExtractor(["v"])},
    )
    router = Router(load_catalog(store))
    _, diagnostic = router.lookup("nope", "F")
    assert diagnostic["reason"] == "unknown-provider-field"
    _, diagnostic = router.lookup("p1", "F", "NDSyn")
    assert diagnostic["reason"] == "unknown-method"
    assert diagnostic["available"] == ["LRSyn"]
    _, _, diagnostic = router.route("G", frozenset({"a"}))
    assert diagnostic["reason"] == "unknown-field"
    store.close()

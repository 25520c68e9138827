"""Cost-model regression tests against synthetic timing fixtures.

The model must be boring in exactly the right ways: a warm model
reproduces recorded timings verbatim, a cold one walks the documented
fallback chain (experiment mean, uniform default), corrupt
or empty store rows read as "no history" instead of raising, timings
recorded at one ``REPRO_SCALE`` are invisible at another, and a
``BLUEPRINT_ALGO_VERSION`` bump orphans every stale entry.
"""

import math

import pytest

from repro.store import BlueprintStore
from repro.harness import costmodel
from repro.harness.costmodel import (
    DEFAULT_SECONDS,
    EWMA_ALPHA,
    CostModel,
    record_task_timings,
    timing_entry_key,
)

GRAPH_A = [("p1", "f1"), ("p1", "f2"), ("p2", "f1")]
GRAPH_B = [("x", "y"), ("x", "z")]
GRAPHS = {"expA": GRAPH_A, "expB": GRAPH_B}


@pytest.fixture()
def store(tmp_path):
    store = BlueprintStore(directory=tmp_path / "timing-store", enabled=True)
    yield store
    store.close()


def load(store, scale=0.15):
    return CostModel.load(GRAPHS, scale=scale, store=store)


class TestFallbacks:
    def test_cold_model_uses_uniform_default(self, store):
        model = load(store)
        for task in GRAPH_A:
            assert model.predict("expA", task) == DEFAULT_SECONDS

    def test_warm_model_predicts_recorded_tasks_exactly(self, store):
        record_task_timings(
            "expA",
            {GRAPH_A[0]: 2.0, GRAPH_A[1]: 4.0},
            scale=0.15,
            store=store,
        )
        model = load(store)
        assert model.predict("expA", GRAPH_A[0]) == 2.0
        assert model.predict("expA", GRAPH_A[1]) == 4.0

    def test_unrecorded_task_falls_back_to_experiment_mean(self, store):
        record_task_timings(
            "expA",
            {GRAPH_A[0]: 2.0, GRAPH_A[1]: 4.0},
            scale=0.15,
            store=store,
        )
        model = load(store)
        assert model.predict("expA", GRAPH_A[2]) == 3.0

    def test_disabled_store_predicts_defaults(self, tmp_path):
        disabled = BlueprintStore(
            directory=tmp_path / "disabled", enabled=False
        )
        assert record_task_timings(
            "expA", {GRAPH_A[0]: 2.0}, scale=0.15, store=disabled
        ) == 0
        model = load(disabled)
        assert model.predict("expA", GRAPH_A[0]) == DEFAULT_SECONDS


class TestFeedback:
    def test_repeat_observations_blend_by_ewma(self, store):
        record_task_timings(
            "expA", {GRAPH_A[0]: 2.0}, scale=0.15, store=store
        )
        record_task_timings(
            "expA", {GRAPH_A[0]: 4.0}, scale=0.15, store=store
        )
        model = load(store)
        expected = EWMA_ALPHA * 4.0 + (1 - EWMA_ALPHA) * 2.0
        assert model.predict("expA", GRAPH_A[0]) == pytest.approx(expected)
        row = store.get(
            costmodel.TIMING_KIND,
            timing_entry_key("expA", 0.15, GRAPH_A[0]),
        )
        assert row["count"] == 2

    def test_invalid_observations_are_skipped(self, store):
        wrote = record_task_timings(
            "expA",
            {
                GRAPH_A[0]: float("nan"),
                GRAPH_A[1]: -1.0,
                GRAPH_A[2]: 0.0,
            },
            scale=0.15,
            store=store,
        )
        assert wrote == 0
        assert load(store).predict("expA", GRAPH_A[0]) == DEFAULT_SECONDS

    def test_timings_persist_across_store_reopen(self, tmp_path):
        directory = tmp_path / "persist"
        first = BlueprintStore(directory=directory, enabled=True)
        record_task_timings(
            "expA", {GRAPH_A[0]: 7.5}, scale=0.15, store=first
        )
        first.close()
        second = BlueprintStore(directory=directory, enabled=True)
        assert load(second).predict("expA", GRAPH_A[0]) == 7.5
        second.close()

    def test_shared_store_is_the_default_sink(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "shared"))
        record_task_timings("expA", {GRAPH_A[0]: 1.5}, scale=0.15)
        model = CostModel.load(GRAPHS, scale=0.15)
        assert model.predict("expA", GRAPH_A[0]) == 1.5


class TestDegradation:
    @pytest.mark.parametrize(
        "row",
        [
            "garbage-string",
            {},
            {"seconds": "fast"},
            {"seconds": True},
            {"seconds": float("nan")},
            {"seconds": float("inf")},
            {"seconds": -3.0},
            {"seconds": 0.0},
            [1.0, 2.0],
            None,
        ],
    )
    def test_corrupt_rows_degrade_to_fallbacks(self, store, row):
        key = timing_entry_key("expA", 0.15, GRAPH_A[0])
        store.put(
            costmodel.TIMING_KIND,
            key,
            costmodel.TIMING_SUBSTRATE,
            row,
            overwrite=True,
        )
        store.flush()
        model = load(store)
        assert model.predict("expA", GRAPH_A[0]) == DEFAULT_SECONDS

    def test_corrupt_row_is_replaced_on_next_observation(self, store):
        key = timing_entry_key("expA", 0.15, GRAPH_A[0])
        store.put(
            costmodel.TIMING_KIND,
            key,
            costmodel.TIMING_SUBSTRATE,
            {"seconds": float("nan"), "count": 3},
            overwrite=True,
        )
        record_task_timings(
            "expA", {GRAPH_A[0]: 5.0}, scale=0.15, store=store
        )
        model = load(store)
        # A corrupt previous EWMA must not poison the blend.
        assert model.predict("expA", GRAPH_A[0]) == 5.0
        assert math.isfinite(model.predict("expA", GRAPH_A[0]))


class TestKeying:
    def test_scales_never_mix(self, store):
        record_task_timings(
            "expA", {GRAPH_A[0]: 2.0}, scale=0.15, store=store
        )
        assert load(store, scale=0.15).predict("expA", GRAPH_A[0]) == 2.0
        cold = load(store, scale=1.0)
        assert cold.predict("expA", GRAPH_A[0]) == DEFAULT_SECONDS

    def test_experiments_never_mix_exactly(self, store):
        # Two experiments sharing a task tuple: the entry recorded for
        # expA must not read as expB's own.
        shared = {"expA": [("x", "y")], "expB": [("x", "y")]}
        record_task_timings(
            "expA", {("x", "y"): 2.0}, scale=0.15, store=store
        )
        model = CostModel.load(shared, scale=0.15, store=store)
        assert model.predict("expA", ("x", "y")) == 2.0
        assert model.predict("expB", ("x", "y")) == DEFAULT_SECONDS

    def test_algo_version_bump_invalidates_stale_entries(
        self, store, monkeypatch
    ):
        import repro.store as store_module

        record_task_timings(
            "expA", {GRAPH_A[0]: 2.0}, scale=0.15, store=store
        )
        assert load(store).predict("expA", GRAPH_A[0]) == 2.0
        monkeypatch.setattr(
            store_module,
            "BLUEPRINT_ALGO_VERSION",
            store_module.BLUEPRINT_ALGO_VERSION + 1,
        )
        stale = load(store)
        assert stale.predict("expA", GRAPH_A[0]) == DEFAULT_SECONDS

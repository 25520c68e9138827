"""Whole-experiment runs, their partial-result files and the registry.

:func:`repro.harness.sharding.run_experiment` runs a registered task
graph into a partial dict; ``save_partial``/``load_partial`` carry it
through disk and ``diff_partials`` compares two of them.  The file
layout is schema 1 with ``shard = (0, 1)`` and ``owned == graph``, the
layout older, split-capable versions wrote for a whole run, so files from
either version diff against each other.  The experiment arms run the real
M2H pipeline on two providers at toy sizes.  The registry's robustness
and ablation task graphs and its ``result_key`` projections are pinned at
the end.
"""

import pytest

from repro.datasets import m2h
from repro.harness import sharding
from repro.harness.runner import (
    LrsynHtmlMethod,
    NdsynMethod,
    run_m2h_experiment,
    scale,
)

PROVIDERS = ["getthere", "delta"]
TRAIN, TEST = 4, 6


def graph():
    return [
        (provider, field)
        for provider in PROVIDERS
        for field in m2h.fields_for(provider)
    ]


def small_run(methods, tasks, seed):
    return run_m2h_experiment(
        methods,
        providers=PROVIDERS,
        train_size=TRAIN,
        test_size=TEST,
        seed=seed,
        tasks=tasks,
    )


def make_partial(methods=None):
    return sharding.run_experiment(
        "m2h",
        graph=graph(),
        methods=methods if methods is not None else [LrsynHtmlMethod()],
        run=small_run,
    )


def scores(partial):
    return sharding.canonical_scores(sharding.flat_results(partial))


@pytest.fixture(scope="module")
def baseline():
    return make_partial()


@pytest.fixture()
def toy(monkeypatch):
    """The toy graph registered as an experiment, for the CLI."""
    experiment = sharding.Experiment(
        "toy",
        settings=lambda: ("contemporary",),
        tasks=graph,
        methods=lambda: [LrsynHtmlMethod()],
        run=small_run,
    )
    monkeypatch.setitem(sharding.EXPERIMENTS, "toy", experiment)
    return experiment


def older_layout(partial):
    """``partial`` rebuilt key by key in the schema-1 layout an older,
    split-capable version wrote for a whole (``0/1``) run."""
    graph = [tuple(task) for task in partial["graph"]]
    return {
        "schema": 1,
        "experiment": partial["experiment"],
        "shard": (0, 1),
        "seed": partial["seed"],
        "scale": partial["scale"],
        "graph": graph,
        "graph_digest": sharding._graph_digest(
            partial["experiment"], graph, partial["seed"],
            partial["scale"], partial["methods"],
        ),
        "owned": graph,
        "methods": list(partial["methods"]),
        "results": {
            task: list(results)
            for task, results in partial["results"].items()
        },
        "wall_seconds": partial["wall_seconds"],
        "task_seconds": dict(partial["task_seconds"]),
        "timer": partial["timer"],
    }


class TestWholeRun:
    def test_partial_covers_the_whole_graph(self, baseline):
        assert baseline["graph"] == graph()
        assert baseline["owned"] == baseline["graph"]
        assert baseline["shard"] == (0, 1)
        assert set(baseline["results"]) == set(graph())
        assert all(baseline["results"].values())

    def test_driver_runs_whole_graph_unless_tasks_given(self, baseline):
        whole = small_run([LrsynHtmlMethod()], None, 0)
        assert sharding.canonical_scores(whole) == scores(baseline)
        subset = small_run([LrsynHtmlMethod()], graph()[:2], 0)
        assert {(r.provider, r.field) for r in subset} == set(graph()[:2])

    def test_result_outside_the_graph_is_refused(self):
        def stray_run(methods, tasks, seed):
            return small_run(methods, graph(), seed)

        with pytest.raises(RuntimeError, match="outside the graph"):
            sharding.run_experiment(
                "m2h", graph=graph()[:2], methods=[LrsynHtmlMethod()],
                run=stray_run,
            )

    def test_rendered_tables_name_the_experiment(self, baseline):
        tables = sharding.render_tables(baseline)
        assert "m2h overall (contemporary)" in tables
        assert "m2h per field" in tables


class TestTaskTimingsInPartials:
    def test_partials_record_per_task_seconds(self, baseline):
        assert set(baseline["task_seconds"]) == set(graph())
        assert all(
            seconds > 0 for seconds in baseline["task_seconds"].values()
        )


class TestMergeEquivalence:
    """A partial read back from disk, or rebuilt in the older layout, is
    identical to the run that wrote it."""

    def test_partial_round_trips_through_disk(self, tmp_path, baseline):
        path = tmp_path / "m2h.pkl"
        sharding.save_partial(path, baseline)
        # The atomic write leaves only the final file behind.
        assert [p.name for p in tmp_path.iterdir()] == ["m2h.pkl"]
        loaded = sharding.load_partial(path)
        assert set(loaded) == set(baseline)
        assert sharding.diff_partials(loaded, baseline) is None

    def test_rendered_tables_identical(self, tmp_path, baseline):
        path = tmp_path / "m2h.pkl"
        sharding.save_partial(path, baseline)
        expected = sharding.render_tables(baseline)
        assert sharding.render_tables(sharding.load_partial(path)) == expected
        assert sharding.render_tables(older_layout(baseline)) == expected


class TestPartialFile:
    def test_load_refuses_other_pickles(self, tmp_path):
        path = tmp_path / "other.pkl"
        sharding.save_partial(path, {"schema": 2, "results": {}})
        with pytest.raises(ValueError, match="schema mismatch"):
            sharding.load_partial(path)


class TestOlderLayout:
    """Files written by older versions still diff against new runs, and
    new files keep their layout: the cross-version equivalence check
    (``repro-shard diff`` against the parent commit) rests on both."""

    def test_older_layout_file_diffs_identical(self, tmp_path, baseline):
        path = tmp_path / "older.pkl"
        sharding.save_partial(path, older_layout(baseline))
        older = sharding.load_partial(path)
        assert older["graph_digest"] == baseline["graph_digest"]
        assert sharding.diff_partials(older, baseline) is None
        assert sharding.diff_partials(baseline, older) is None

    def test_graph_digest_bytes_unchanged(self):
        # Digests the older versions computed for these inputs.
        assert sharding._graph_digest(
            "m2h", [("getthere", "DTime"), ("delta", "RId")], 0, 0.15,
            ["LRSyn"],
        ) == "bf3949238f98b684a6f99908ef39ce5509ef5319a9939a7c9839730b5a9e6719"
        assert sharding._graph_digest(
            "robustness", [("getthere", "DTime", "s0")], 3, 0.05,
            ["LRSyn", "NDSyn"], "forge|providers=2|docs=24",
        ) == "e1f66a067ccf02910e28980e4ff5528302fe8824d658ef06d8dfe957f21a8ac2"

    def test_new_partial_keeps_the_layout(self, baseline):
        older = older_layout(baseline)
        assert set(baseline) == set(older)
        for key in ("schema", "shard", "graph", "owned", "graph_digest"):
            assert baseline[key] == older[key], key
        assert baseline["scale"] == scale()


class TestMergeValidation:
    """``diff`` refuses partials made under different configurations."""

    def test_different_method_sets_rejected(self, baseline):
        other = make_partial(methods=[NdsynMethod()])
        verdict = sharding.diff_partials(baseline, other)
        assert verdict.startswith("different splits")

    def test_mixed_configurations_rejected(self, baseline, monkeypatch):
        # The toy run fixes its own corpus sizes, so the scores match;
        # the recorded scale alone must still refuse the comparison.
        monkeypatch.setenv("REPRO_SCALE", str(scale() * 2))
        other = make_partial()
        assert scores(other) == scores(baseline)
        verdict = sharding.diff_partials(baseline, other)
        assert verdict.startswith("different splits")
        assert f"scale={scale()}" in verdict


class TestDiff:
    def test_changed_score_reported(self, baseline):
        import dataclasses

        changed = dict(baseline, results=dict(baseline["results"]))
        task = graph()[0]
        first, *rest = changed["results"][task]
        changed["results"][task] = [
            dataclasses.replace(first, setting="elsewhere"), *rest
        ]
        verdict = sharding.diff_partials(baseline, changed)
        assert verdict.startswith("first differing row")


class TestGeneralizedTaskGraphs:
    def test_registry_lists_every_bench_experiment(self):
        assert set(sharding.EXPERIMENTS) == {
            "m2h", "finance", "m2h_images", "robustness", "ablations",
            "forge_html", "forge_images",
        }

    def test_robustness_graph_shape(self):
        tasks = sharding.get_experiment("robustness").tasks()
        assert len(tasks) == 36  # 3 providers x 3 fields x 4 seeds
        assert all(len(task) == 3 for task in tasks)
        labels = {task[2] for task in tasks}
        assert labels == {"s0", "s1", "s2", "s3"}
        # (provider, seed) groups stay consecutive: one live corpus at a
        # time, exactly like the provider-major table loops.
        groups = [(task[0], task[2]) for task in tasks]
        seen, current = set(), None
        for group in groups:
            if group != current:
                assert group not in seen
                seen.add(group)
                current = group

    def test_ablations_graph_shape(self):
        tasks = sharding.get_experiment("ablations").tasks()
        assert all(len(task) == 3 for task in tasks)
        assert {task[0] for task in tasks} == {"blueprint", "hierarchy"}

    def test_result_key_projections(self):
        from repro.harness.runner import FieldResult

        result = FieldResult("LRSyn", "getthere", "DTime", "s2", None)
        robustness = sharding.get_experiment("robustness")
        assert robustness.result_key(result) == ("getthere", "DTime", "s2")
        result = FieldResult("LRSyn[flat]", "getthere", "DTime", "hierarchy",
                             None)
        ablations = sharding.get_experiment("ablations")
        assert ablations.result_key(result) == (
            "hierarchy", "getthere", "DTime"
        )
        assert sharding.field_task_key(result) == ("getthere", "DTime")

    def test_tasks_cli_lists_new_experiments(self, capsys):
        assert sharding.main(["tasks"]) == 0
        out = capsys.readouterr().out
        assert "robustness: 36 tasks" in out
        assert "ablations: 3 tasks" in out
        assert sharding.main(["tasks", "--experiment", "ablations"]) == 0
        out = capsys.readouterr().out
        assert "blueprint / SalesInvoice / RefNo" in out


class TestCli:
    def test_run_then_diff(self, toy, tmp_path, capsys):
        left, right = tmp_path / "left.pkl", tmp_path / "right.pkl"
        for path in (left, right):
            assert sharding.main(
                ["run", "--experiment", "toy", "--out", str(path)]
            ) == 0
        out = capsys.readouterr().out
        assert f"toy: {len(graph())} tasks" in out
        assert sharding.main(["diff", str(left), str(right)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_reports_mismatch(self, toy, tmp_path, capsys, baseline):
        left, right = tmp_path / "left.pkl", tmp_path / "right.pkl"
        sharding.save_partial(left, baseline)
        sharding.save_partial(right, dict(baseline, graph_digest="0" * 64))
        assert sharding.main(["diff", str(left), str(right)]) == 1
        assert "MISMATCH: different splits" in capsys.readouterr().out

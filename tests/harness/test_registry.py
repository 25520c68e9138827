"""Registry-listing regression tests for *all* registered experiments.

A new experiment must be visible everywhere the registry is consumed —
the no-arg ``repro-shard tasks`` summary, the per-experiment CLI
listings, and ``get_experiment`` (which is what lets
``benchmarks/shard_equivalence_check.py`` accept it) — so future
experiments cannot silently miss the registry.
"""

import pytest

from repro.harness.sharding import EXPERIMENTS, get_experiment, main


@pytest.fixture(autouse=True)
def small_forge(monkeypatch):
    monkeypatch.setenv("REPRO_FORGE_PROVIDERS", "2")
    monkeypatch.setenv("REPRO_FORGE_DOCS", "24")


def test_registry_contains_the_forge_experiments():
    assert {"forge_html", "forge_images"} <= set(EXPERIMENTS)


def test_tasks_summary_lists_every_experiment(capsys):
    assert main(["tasks"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == len(EXPERIMENTS)
    for name, experiment in EXPERIMENTS.items():
        expected = f"{name}: {len(experiment.tasks())} tasks"
        assert any(line.startswith(expected) for line in lines), (
            f"`repro-shard tasks` is missing {expected!r}:\n{out}"
        )


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_cli_lists_each_experiment_with_shard_assignment(name, capsys):
    assert main(["tasks", "--experiment", name, "--shards", "2"]) == 0
    out = capsys.readouterr().out
    graph = EXPERIMENTS[name].tasks()
    assert f"{name}: {len(graph)} tasks, 2 shard(s)" in out


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_task_graphs_are_canonical(name):
    experiment = EXPERIMENTS[name]
    graph = experiment.tasks()
    assert graph, f"{name}: empty task graph"
    assert len(set(graph)) == len(graph), f"{name}: duplicate tasks"
    for task in graph:
        assert isinstance(task, tuple)
        assert all(isinstance(part, str) for part in task)
    assert experiment.settings()
    methods = experiment.methods()
    assert methods and all(method.name for method in methods)
    assert isinstance(experiment.config(), str)


def test_get_experiment_accepts_every_name_and_rejects_unknown():
    for name in EXPERIMENTS:
        assert get_experiment(name).name == name
    with pytest.raises(ValueError, match="unknown experiment"):
        get_experiment("not-an-experiment")


def test_registry_graphs_covers_every_experiment():
    for name in EXPERIMENTS:
        assert get_experiment(name).tasks()


def test_forge_task_counts_follow_provider_knob(monkeypatch):
    monkeypatch.setenv("REPRO_FORGE_PROVIDERS", "4")
    from repro.datasets import forge

    expected = sum(
        len(forge.fields_for(provider)) for provider in forge.forge_providers()
    )
    assert len(EXPERIMENTS["forge_html"].tasks()) == expected
    expected_images = sum(
        len(forge.image_fields_for(provider))
        for provider in forge.forge_providers()
    )
    assert len(EXPERIMENTS["forge_images"].tasks()) == expected_images

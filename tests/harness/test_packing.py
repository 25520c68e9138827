"""How :func:`repro.harness.runner.run_field_tasks` packs a task graph
onto ``REPRO_JOBS`` worker processes.

The pool is the harness's one fan-out: futures are submitted in
canonical order and consumed in that order, so whatever order the
workers finish in, the results come back as the serial run lays them
out.

* **coverage** — for random graphs and every worker count, each task's
  results come back exactly once, in canonical order; with one job every
  task runs in the calling process, with more none of them does;
* **bad knob values** are refused before any task runs.

Determinism is checked the hard way: the same pooled run in three
subprocesses pinned to different ``PYTHONHASHSEED`` values must print
byte-identical JSON.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness.runner import FieldResult, run_field_tasks

REPO = Path(__file__).resolve().parent.parent.parent
# A bare subprocess environment that still honours a run's choice not to
# write bytecode into the source tree.
CLEAN_ENV = {
    "PATH": "/usr/bin:/bin",
    **{
        k: v
        for k, v in os.environ.items()
        if k == "PYTHONDONTWRITEBYTECODE"
    },
}


def random_graph(seed: int, max_tasks: int = 40):
    rng = random.Random(seed)
    count_tasks = rng.randint(1, max_tasks)
    graph = []
    provider = 0
    while len(graph) < count_tasks:
        provider += 1
        for field in range(rng.randint(1, 5)):
            graph.append((f"p{provider}", f"f{field}"))
            if len(graph) == count_tasks:
                break
    return graph


def probe_task(provider, field, pause=0.0):
    """A field task that records which process ran it."""
    time.sleep(pause)
    return [
        FieldResult(
            method="probe",
            provider=provider,
            field=field,
            setting=str(os.getpid()),
            score=None,
        )
    ]


def pooled(monkeypatch, graph, count, pause=0.0):
    """``(tasks in result order, pids that ran them)`` under ``count`` jobs."""
    monkeypatch.setenv("REPRO_JOBS", str(count))
    results = run_field_tasks(
        probe_task, [(*task, pause) for task in graph]
    )
    return (
        [(r.provider, r.field) for r in results],
        {r.setting for r in results},
    )


class TestCoverage:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("count", [1, 2, 3, 7])
    def test_every_task_exactly_once(self, seed, count, monkeypatch):
        graph = random_graph(seed)
        tasks, pids = pooled(monkeypatch, graph, count)
        assert tasks == graph
        assert len(tasks) == len(set(tasks))
        if count == 1:
            assert pids == {str(os.getpid())}
        else:
            assert str(os.getpid()) not in pids
            assert len(pids) <= count

    def test_rejects_bad_inputs(self, monkeypatch):
        ran = []

        def task(index):
            ran.append(index)
            return []

        for bad in ("2.5", "a", "1/2", ""):
            monkeypatch.setenv("REPRO_JOBS", bad)
            with pytest.raises(ValueError, match="REPRO_JOBS"):
                run_field_tasks(task, [(0,), (1,)])
        assert ran == []


DETERMINISM_SNIPPET = """
import json, os, sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {repo!r})
os.environ["REPRO_JOBS"] = "3"
from repro.harness.runner import run_field_tasks
from tests.harness.test_packing import probe_task

graph = [(f"p{{i % 9}}", f"f{{i}}") for i in range(37)]
results = run_field_tasks(probe_task, graph)
print(json.dumps([[r.provider, r.field] for r in results]))
print(len({{r.setting for r in results}} - {{str(os.getpid())}}))
"""


class TestDeterminism:
    def test_identical_across_hash_seeds(self):
        snippet = DETERMINISM_SNIPPET.format(
            src=str(REPO / "src"), repo=str(REPO)
        )
        outputs = []
        for hash_seed in ("0", "1", "31337"):
            result = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                check=True,
                env={**CLEAN_ENV, "PYTHONHASHSEED": hash_seed},
            )
            order, workers = result.stdout.splitlines()
            assert 1 <= int(workers) <= 3
            outputs.append(order)
        assert outputs[0] == outputs[1] == outputs[2]
        tasks = json.loads(outputs[0])
        assert tasks == [[f"p{i % 9}", f"f{i}"] for i in range(37)]

    def test_repeat_calls_identical(self, monkeypatch):
        graph = random_graph(5)
        first, _ = pooled(monkeypatch, graph, 3)
        second, _ = pooled(monkeypatch, list(graph), 3)
        serial, _ = pooled(monkeypatch, graph, 1)
        assert first == second == serial

    def test_equal_costs_tie_break_by_canonical_position(self, monkeypatch):
        graph = [("p", f"f{i}") for i in range(6)]
        # Equal-cost tasks finish on the two workers in whatever order
        # the scheduler allows; results still come back by position.
        tasks, pids = pooled(monkeypatch, graph, 2, pause=0.02)
        assert tasks == graph
        assert str(os.getpid()) not in pids

"""Properties of the work pool's packing: greedy claims in LPT order.

The pool packs tasks onto workers dynamically: the queue is seeded in
:func:`repro.harness.queue.claim_order` (descending predicted seconds
from the ``timing`` store kind, ties canonical) and each worker claims
the next task the moment it is free.  These tests record random cost
vectors as timing history, then replay the real claim protocol
(:func:`repro.store.claims.apply`) with simulated clocks, so the per-worker
task lists below are exactly what a pool of that size would run.

* **coverage** — every task is claimed by exactly one worker, for random
  graphs, random positive costs and every worker count;
* **near-optimal** — on the classic LPT adversarial fixtures the pool's
  makespan respects Graham's bound (checked against the lower bound
  ``max(total/N, max-task)`` plus one max-task of slack).

Determinism is checked the hard way: the same claim order computed in
three subprocesses pinned to different ``PYTHONHASHSEED`` values must
print byte-identical JSON.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import queue as work_queue
from repro.harness import sharding
from repro.harness.costmodel import record_task_timings
from repro.harness.runner import scale
from repro.store import claims

REPO = Path(__file__).resolve().parent.parent.parent


@pytest.fixture(autouse=True)
def timing_store(monkeypatch, tmp_path):
    # A store of its own: recorded costs must not leak between tests.
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "timing-store"))
    monkeypatch.setenv("REPRO_STORE", "1")


def random_case(seed: int, max_tasks: int = 40):
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
    costs = [rng.uniform(0.01, 30.0) for _ in graph]
    return graph, costs


def pool_schedule(experiment, graph, costs, count):
    """Per-worker claimed tasks and makespan of a ``count``-worker pool.

    The costs are recorded as timing history first, so the queue is
    seeded in the order the real pool would use; then the earliest-free
    worker claims next until the queue drains.
    """
    cost_of = dict(zip(graph, costs))
    record_task_timings(experiment, cost_of, scale=scale())
    records = {}
    dirty, _ = claims.apply(
        records,
        "sync",
        {"tasks": work_queue.claim_order(experiment, graph)},
        0.0,
    )
    records.update(dirty)
    shards = [[] for _ in range(count)]
    free_at = [0.0] * count
    while True:
        worker = min(range(count), key=lambda w: (free_at[w], w))
        args = {"worker": f"w{worker}", "lease": 1e9}
        dirty, grant = claims.apply(records, "claim", args, free_at[worker])
        if grant["status"] != "claimed":
            break
        records.update(dirty)
        task = tuple(grant["record"]["task"])
        shards[worker].append(task)
        free_at[worker] += cost_of[task]
        args["member"] = grant["member"]
        dirty, _ = claims.apply(records, "complete", args, free_at[worker])
        records.update(dirty)
    return shards, max(free_at)


class TestCoverage:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("count", [1, 2, 3, 7])
    def test_every_task_exactly_once(self, seed, count):
        graph, costs = random_case(seed)
        shards, _ = pool_schedule(f"cov{seed}", graph, costs, count)
        assert len(shards) == count
        flat = [task for shard in shards for task in shard]
        assert sorted(flat) == sorted(graph)
        assert len(flat) == len(set(flat)) == len(graph)

    def test_more_shards_than_tasks_leaves_empty_shards(self):
        graph, costs = random_case(3, max_tasks=4)
        shards, _ = pool_schedule("wide", graph, costs, len(graph) + 5)
        assert sum(1 for shard in shards if shard) <= len(graph)
        flat = [task for shard in shards for task in shard]
        assert sorted(flat) == sorted(graph)

    def test_rejects_bad_inputs(self, monkeypatch, tmp_path):
        # Invalid observations never become predictions, so they cannot
        # reorder the queue.
        graph = [("p", "f0"), ("p", "f1"), ("p", "f2")]
        record_task_timings(
            "bad", dict(zip(graph, [-1.0, float("nan"), 0.0])), scale=scale()
        )
        assert work_queue.claim_order("bad", graph) == graph
        # A pool needs at least one worker.
        experiment = sharding.Experiment(
            "bad",
            settings=lambda: ("contemporary",),
            tasks=lambda: list(graph),
            methods=lambda: [],
            run=lambda methods, tasks, seed: [],
        )
        monkeypatch.setitem(sharding.EXPERIMENTS, "bad", experiment)
        with pytest.raises(ValueError, match="worker"):
            work_queue.run_work_pool(
                "bad", 0, out=tmp_path / "merged.pkl", echo=lambda _: None
            )


class TestMakespan:
    # Classic LPT stress fixtures: Graham's worst case (2N+1 jobs of
    # sizes 2N-1..N), near-ties, one dominating task, uniform costs.
    ADVERSARIAL = [
        ([5.0, 5.0, 4.0, 4.0, 3.0, 3.0, 3.0], 2),
        ([7.0, 7.0, 6.0, 6.0, 5.0, 5.0, 4.0, 4.0, 4.0], 3),
        ([11.0, 11.0, 10.0, 10.0, 9.0, 9.0, 8.0, 8.0, 7.0, 7.0, 6.0, 6.0], 4),
        ([100.0] + [1.0] * 30, 2),
        ([1.0] * 17, 5),
        ([3.0, 3.0, 2.0, 2.0, 2.0], 2),
    ]

    @pytest.mark.parametrize("costs,count", ADVERSARIAL)
    def test_within_lpt_bound_on_adversarial_fixtures(self, costs, count):
        graph = [("p", f"f{i}") for i in range(len(costs))]
        _, makespan = pool_schedule("adv", graph, costs, count)
        # OPT is unknown, but OPT >= max(total/N, max task); Graham
        # guarantees LPT <= 4/3 * OPT, so a fortiori the pool's makespan
        # must sit under 4/3 * lower-bound + one max task of slack.
        lower_bound = max(sum(costs) / count, max(costs))
        assert makespan <= (4.0 / 3.0) * lower_bound + max(costs)


DETERMINISM_SNIPPET = """
import json, random, sys
sys.path.insert(0, {src!r})
from repro.harness import queue
from repro.harness.costmodel import record_task_timings
from repro.harness.runner import scale

rng = random.Random(2026)
graph = [(f"p{{i % 9}}", f"f{{i}}") for i in range(37)]
costs = [round(rng.uniform(0.01, 20.0), 6) for _ in graph]
record_task_timings("det", dict(zip(graph, costs)), scale=scale())
print(json.dumps(queue.claim_order("det", graph)))
"""


class TestDeterminism:
    def test_identical_across_hash_seeds(self, tmp_path):
        snippet = DETERMINISM_SNIPPET.format(src=str(REPO / "src"))
        outputs = []
        for hash_seed in ("0", "1", "31337"):
            result = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                check=True,
                env={
                    "PYTHONHASHSEED": hash_seed,
                    "PATH": "/usr/bin:/bin",
                    "REPRO_STORE": "1",
                    "REPRO_STORE_DIR": str(tmp_path / f"store-{hash_seed}"),
                },
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        order = json.loads(outputs[0])
        assert len(order) == 37
        # History present: the order is not the canonical one.
        assert order != [[f"p{i % 9}", f"f{i}"] for i in range(37)]

    def test_repeat_calls_identical(self):
        graph, costs = random_case(5)
        first = pool_schedule("rep", graph, costs, 3)
        # Re-recording identical seconds leaves every prediction as is.
        second = pool_schedule("rep", list(graph), list(costs), 3)
        assert first == second

    def test_equal_costs_tie_break_by_canonical_position(self):
        graph = [("p", f"f{i}") for i in range(6)]
        shards, _ = pool_schedule("tie", graph, [1.0] * 6, 2)
        # Uniform costs: heaviest-first degenerates to canonical order,
        # alternating workers — exactly the round-robin split.
        assert shards == [
            sharding.assign(graph, sharding.ShardSpec(i, 2))
            for i in range(2)
        ]

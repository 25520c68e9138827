"""Properties of round-robin shard packing (:func:`repro.harness.sharding.assign`).

Round-robin over canonical position is the scheduler: shard ``i`` of
``N`` runs every task whose canonical position is ``i (mod N)``.

* **coverage** — for random graphs and every shard count, every task
  lands in exactly one shard, shards keep canonical order and differ in
  size by at most one task;
* **balance** — on the classic LPT adversarial fixtures (listed heaviest
  first), round-robin is LPT without cost knowledge: no shard carries
  more than the largest task plus ``total/N``, which is inside Graham's
  bound plus one max task of slack.

Determinism is checked the hard way: the same assignment computed in
three subprocesses pinned to different ``PYTHONHASHSEED`` values must
print byte-identical JSON.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import sharding

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


def round_robin(graph, count):
    """Per-shard task lists of a ``count``-way split."""
    return [
        sharding.assign(graph, sharding.ShardSpec(index, count))
        for index in range(count)
    ]


class TestCoverage:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("count", [1, 2, 3, 7])
    def test_every_task_exactly_once(self, seed, count):
        graph = random_graph(seed)
        shards = round_robin(graph, count)
        assert len(shards) == count
        flat = [task for shard in shards for task in shard]
        assert sorted(flat) == sorted(graph)
        assert len(flat) == len(set(flat)) == len(graph)
        for shard in shards:
            assert shard == sorted(shard, key=graph.index)
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_tasks_leaves_empty_shards(self):
        graph = random_graph(3, max_tasks=4)
        shards = round_robin(graph, len(graph) + 5)
        assert shards[: len(graph)] == [[task] for task in graph]
        assert all(not shard for shard in shards[len(graph):])

    def test_rejects_bad_inputs(self, monkeypatch):
        with pytest.raises(ValueError, match="count"):
            sharding.ShardSpec(0, 0)
        with pytest.raises(ValueError, match="index"):
            sharding.ShardSpec(2, 2)
        for bad in ("2", "a/b", "3/2", "-1/2", ""):
            with pytest.raises(ValueError, match="i/N"):
                sharding.parse_shard(bad)
        monkeypatch.setenv("REPRO_SHARD", "1/1")
        with pytest.raises(ValueError, match="i/N"):
            sharding.resolve_shard(None)


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
        cost_of = dict(zip(graph, costs))
        makespan = max(
            sum(cost_of[task] for task in shard)
            for shard in round_robin(graph, count)
        )
        # Heaviest first, each later task of a shard is at most the mean
        # of the N tasks ending at it, so a shard carries at most
        # max + total/N.  OPT >= max(total/N, max task), so this sits
        # inside Graham's 4/3 * lower-bound + one max task of slack.
        lower_bound = max(sum(costs) / count, max(costs))
        assert makespan <= max(costs) + sum(costs) / count
        assert makespan <= (4.0 / 3.0) * lower_bound + max(costs)


DETERMINISM_SNIPPET = """
import json, sys
sys.path.insert(0, {src!r})
from repro.harness import sharding

graph = [(f"p{{i % 9}}", f"f{{i}}") for i in range(37)]
print(json.dumps([
    sharding.assign(graph, sharding.ShardSpec(index, 3))
    for index in range(3)
]))
"""


class TestDeterminism:
    def test_identical_across_hash_seeds(self):
        snippet = DETERMINISM_SNIPPET.format(src=str(REPO / "src"))
        outputs = []
        for hash_seed in ("0", "1", "31337"):
            result = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                check=True,
                env={**CLEAN_ENV, "PYTHONHASHSEED": hash_seed},
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        shards = json.loads(outputs[0])
        assert [len(shard) for shard in shards] == [13, 12, 12]
        assert shards[0][:2] == [["p0", "f0"], ["p3", "f3"]]

    def test_repeat_calls_identical(self):
        graph = random_graph(5)
        assert round_robin(graph, 3) == round_robin(list(graph), 3)

    def test_equal_costs_tie_break_by_canonical_position(self):
        graph = [("p", f"f{i}") for i in range(6)]
        # Round-robin weighs every task alike: shards alternate by
        # canonical position.
        assert round_robin(graph, 2) == [
            [("p", "f0"), ("p", "f2"), ("p", "f4")],
            [("p", "f1"), ("p", "f3"), ("p", "f5")],
        ]

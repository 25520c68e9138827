"""Shard determinism: any split must merge byte-identical to one full run.

Property-style coverage for :mod:`repro.harness.sharding`: round-robin and
*arbitrary* task partitions, shuffled merge order, N=1, N greater than the
task count (empty shards), plus the merge validator's failure modes.  The
experiment arms run the real M2H pipeline on two providers at toy sizes so
score equivalence is end-to-end, not mocked.
"""

import random

import pytest

from repro.datasets import m2h
from repro.harness import sharding
from repro.harness.runner import LrsynHtmlMethod, run_m2h_experiment

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


def make_partial(shard=None, owned=None):
    return sharding.run_shard(
        "m2h",
        shard,
        graph=graph(),
        owned=owned,
        methods=[LrsynHtmlMethod()],
        run=small_run,
    )


@pytest.fixture(scope="module")
def baseline():
    return make_partial(sharding.FULL_RUN)


@pytest.fixture(scope="module")
def baseline_scores(baseline):
    return sharding.canonical_scores(sharding.flat_results(baseline))


class TestShardSpec:
    def test_parse(self):
        assert sharding.parse_shard("0/2") == sharding.ShardSpec(0, 2)
        assert sharding.parse_shard(" 2/3 ") == sharding.ShardSpec(2, 3)

    @pytest.mark.parametrize("bad", ["", "x", "1", "3/3", "-1/2", "1/0", "a/b"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            sharding.parse_shard(bad)

    def test_env_default_is_full_run(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD", raising=False)
        assert sharding.env_shard() == sharding.FULL_RUN

    def test_env_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD", "1/4")
        assert sharding.env_shard() == sharding.ShardSpec(1, 4)

    def test_resolve(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD", "1/2")
        assert sharding.resolve_shard(None) == sharding.ShardSpec(1, 2)
        assert sharding.resolve_shard("0/3") == sharding.ShardSpec(0, 3)
        spec = sharding.ShardSpec(2, 5)
        assert sharding.resolve_shard(spec) is spec


class TestAssignment:
    def test_n1_is_identity(self):
        tasks = graph()
        assert sharding.assign(tasks, sharding.FULL_RUN) == tasks

    @pytest.mark.parametrize("count", [2, 3, 5, 97])
    def test_shards_partition_the_graph(self, count):
        tasks = graph()
        shards = [
            sharding.assign(tasks, sharding.ShardSpec(i, count))
            for i in range(count)
        ]
        # Disjoint, complete, and balanced to within one task.
        flat = [task for shard in shards for task in shard]
        assert sorted(flat) == sorted(tasks)
        assert len(flat) == len(tasks)
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_large_count_leaves_empty_shards(self):
        tasks = graph()
        count = len(tasks) + 10
        shards = [
            sharding.assign(tasks, sharding.ShardSpec(i, count))
            for i in range(count)
        ]
        assert all(len(shard) == 1 for shard in shards[: len(tasks)])
        assert all(shard == [] for shard in shards[len(tasks):])

    def test_provider_tasks_stay_consecutive(self):
        # The serial loop keeps one provider's corpora live at a time;
        # round-robin must not interleave providers within a shard.
        tasks = graph()
        for count in (2, 3):
            for index in range(count):
                owned = sharding.assign(tasks, sharding.ShardSpec(index, count))
                providers = [provider for provider, _ in owned]
                assert providers == sorted(
                    providers, key=PROVIDERS.index
                )


class TestMergeEquivalence:
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_round_robin_merge_matches_unsharded(
        self, count, baseline_scores
    ):
        partials = [
            make_partial(sharding.ShardSpec(i, count)) for i in range(count)
        ]
        merged = sharding.merge_partials(partials)
        scores = sharding.canonical_scores(sharding.flat_results(merged))
        assert scores == baseline_scores

    def test_shard_count_beyond_task_count(self, baseline_scores):
        count = len(graph()) + 3  # some shards own nothing
        partials = [
            make_partial(sharding.ShardSpec(i, count)) for i in range(count)
        ]
        assert any(not partial["owned"] for partial in partials)
        merged = sharding.merge_partials(partials)
        scores = sharding.canonical_scores(sharding.flat_results(merged))
        assert scores == baseline_scores

    def test_merge_order_is_irrelevant(self, baseline_scores):
        partials = [make_partial(sharding.ShardSpec(i, 3)) for i in range(3)]
        rng = random.Random(7)
        for _ in range(3):
            rng.shuffle(partials)
            merged = sharding.merge_partials(partials)
            scores = sharding.canonical_scores(sharding.flat_results(merged))
            assert scores == baseline_scores

    @pytest.mark.parametrize("seed", [1, 2])
    def test_arbitrary_task_permutations_merge_identical(
        self, seed, baseline_scores
    ):
        """Any partition of the graph — not just round-robin — merges
        back to the canonical result, because the merge reorders by
        canonical position rather than trusting shard-arrival order."""
        tasks = graph()
        rng = random.Random(seed)
        shuffled = tasks[:]
        rng.shuffle(shuffled)
        count = rng.randint(2, 4)
        owned_sets = [shuffled[i::count] for i in range(count)]
        partials = [make_partial(owned=owned) for owned in owned_sets]
        merged = sharding.merge_partials(partials)
        scores = sharding.canonical_scores(sharding.flat_results(merged))
        assert scores == baseline_scores

    def test_rendered_tables_identical(self, baseline):
        partials = [make_partial(sharding.ShardSpec(i, 2)) for i in range(2)]
        merged = sharding.merge_partials(partials)
        # Compare only result content: the two dicts differ in wall/timer.
        assert sharding.canonical_scores(
            sharding.flat_results(merged)
        ) == sharding.canonical_scores(sharding.flat_results(baseline))
        assert sharding.diff_partials(merged, baseline) is None

    def test_partial_round_trips_through_disk(self, tmp_path, baseline):
        partials = [make_partial(sharding.ShardSpec(i, 2)) for i in range(2)]
        paths = []
        for index, partial in enumerate(partials):
            path = tmp_path / f"part{index}.pkl"
            sharding.save_partial(path, partial)
            paths.append(path)
        loaded = [sharding.load_partial(path) for path in paths]
        merged = sharding.merge_partials(loaded)
        assert sharding.diff_partials(merged, baseline) is None


class TestTaskTimingsInPartials:
    def test_partials_record_per_task_seconds(self):
        tasks = graph()
        partial = make_partial(sharding.ShardSpec(0, 2), owned=tasks[:3])
        assert set(partial["task_seconds"]) == set(tasks[:3])
        assert all(
            seconds > 0 for seconds in partial["task_seconds"].values()
        )

    def test_merge_unions_task_seconds(self):
        tasks = graph()
        partials = [
            make_partial(sharding.ShardSpec(0, 2), owned=tasks[:2]),
            make_partial(sharding.ShardSpec(1, 2), owned=tasks[2:]),
        ]
        merged = sharding.merge_partials(partials)
        assert set(merged["task_seconds"]) == set(tasks)


class TestMergeValidation:
    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError, match="no partials"):
            sharding.merge_partials([])

    def test_duplicate_ownership_rejected(self):
        partials = [make_partial(sharding.ShardSpec(i, 2)) for i in range(2)]
        partials[1]["owned"] = partials[0]["owned"]
        partials[1]["results"] = partials[0]["results"]
        with pytest.raises(ValueError, match="owned by two"):
            sharding.merge_partials(partials)

    def test_missing_tasks_rejected(self):
        partials = [make_partial(sharding.ShardSpec(0, 2))]
        with pytest.raises(ValueError, match="incomplete merge"):
            sharding.merge_partials(partials)

    def test_mixed_configurations_rejected(self):
        left = make_partial(sharding.ShardSpec(0, 2))
        right = make_partial(sharding.ShardSpec(1, 2))
        right = dict(right, graph_digest="0" * 64)
        with pytest.raises(ValueError, match="incompatible"):
            sharding.merge_partials([left, right])

    def test_stray_tasks_rejected(self):
        partials = [make_partial(sharding.ShardSpec(i, 2)) for i in range(2)]
        partials[1]["owned"] = partials[1]["owned"] + [("nosuch", "Field")]
        with pytest.raises(ValueError, match="outside the graph"):
            sharding.merge_partials(partials)

    def test_unowned_results_rejected(self):
        # A results entry outside the partial's owned list must fail the
        # merge, not silently overwrite the rightful owner's rows.
        partials = [make_partial(sharding.ShardSpec(i, 2)) for i in range(2)]
        stolen = partials[0]["owned"][0]
        partials[1]["results"][stolen] = partials[0]["results"][stolen]
        with pytest.raises(ValueError, match="does not own"):
            sharding.merge_partials(partials)

    def test_different_method_sets_rejected(self):
        from repro.harness.runner import NdsynMethod

        left = make_partial(sharding.ShardSpec(0, 2))
        right = sharding.run_shard(
            "m2h",
            sharding.ShardSpec(1, 2),
            graph=graph(),
            methods=[NdsynMethod()],
            run=small_run,
        )
        with pytest.raises(ValueError, match="incompatible"):
            sharding.merge_partials([left, right])


class TestGeneralizedTaskGraphs:
    def test_registry_lists_every_bench_experiment(self):
        assert set(sharding.EXPERIMENTS) == {
            "m2h", "finance", "m2h_images", "robustness", "ablations",
            "forge_html", "forge_images",
        }

    def test_robustness_graph_shape(self):
        experiment = sharding.get_experiment("robustness")
        tasks = experiment.tasks()
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
        experiment = sharding.get_experiment("ablations")
        tasks = experiment.tasks()
        assert all(len(task) == 3 for task in tasks)
        assert {task[0] for task in tasks} == {"blueprint", "hierarchy"}

    def test_assignment_is_shape_agnostic(self):
        tasks = sharding.get_experiment("robustness").tasks()
        shards = [
            sharding.assign(tasks, sharding.ShardSpec(i, 3)) for i in range(3)
        ]
        flat = [task for shard in shards for task in shard]
        assert sorted(flat) == sorted(tasks)

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
        assert sharding.main(
            ["tasks", "--experiment", "ablations", "--shards", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "blueprint / SalesInvoice / RefNo" in out


class TestRetry:
    def test_incomplete_merge_reports_exact_residual(self):
        partials = [make_partial(sharding.ShardSpec(i, 2)) for i in range(2)]
        with pytest.raises(sharding.IncompleteMergeError) as excinfo:
            sharding.merge_partials([partials[0]])
        # The residual is exactly the dropped shard's owned set, in
        # canonical order.
        assert excinfo.value.missing == partials[1]["owned"]
        assert sharding.residual_tasks([partials[0]]) == partials[1]["owned"]

    def test_retry_completes_to_identical_scores(self, baseline_scores):
        partials = [make_partial(sharding.ShardSpec(i, 3)) for i in range(3)]
        survivors = [partials[0], partials[2]]
        residual = sharding.retry_partial(
            survivors, methods=[LrsynHtmlMethod()], run=small_run
        )
        assert residual["owned"] == partials[1]["owned"]
        merged = sharding.merge_partials([*survivors, residual])
        scores = sharding.canonical_scores(sharding.flat_results(merged))
        assert scores == baseline_scores

    def test_retry_with_full_coverage_refuses(self):
        partials = [make_partial(sharding.ShardSpec(i, 2)) for i in range(2)]
        assert sharding.residual_tasks(partials) == []
        with pytest.raises(ValueError, match="nothing to retry"):
            sharding.retry_partial(partials)

    def test_retry_rejects_scale_mismatch(self, monkeypatch):
        partial = make_partial(sharding.ShardSpec(0, 2))
        monkeypatch.setenv(
            "REPRO_SCALE", str(float(partial["scale"]) * 2 + 0.01)
        )
        with pytest.raises(ValueError, match="scale mismatch"):
            sharding.retry_partial(
                [partial], methods=[LrsynHtmlMethod()], run=small_run
            )

    def test_retry_rejects_mixed_splits(self):
        left = make_partial(sharding.ShardSpec(0, 2))
        right = dict(
            make_partial(sharding.ShardSpec(1, 2)), graph_digest="0" * 64
        )
        with pytest.raises(ValueError, match="incompatible"):
            sharding.residual_tasks([left, right])


class TestCliRetryWorkflow:
    """End-to-end CLI lifecycle on a registered toy experiment."""

    @pytest.fixture()
    def toy(self, monkeypatch):
        experiment = sharding.Experiment(
            "toy",
            settings=lambda: ("contemporary",),
            tasks=graph,
            methods=lambda: [LrsynHtmlMethod()],
            run=small_run,
        )
        monkeypatch.setitem(sharding.EXPERIMENTS, "toy", experiment)
        return experiment

    def test_merge_reports_residual_and_retry_completes(
        self, toy, tmp_path, capsys
    ):
        part0 = tmp_path / "part0.pkl"
        merged = tmp_path / "merged.pkl"
        residual = tmp_path / "residual.pkl"
        baseline = tmp_path / "baseline.pkl"
        assert sharding.main(
            ["run", "--experiment", "toy", "--shard", "0/2",
             "--out", str(part0)]
        ) == 0
        assert sharding.main(
            ["run", "--experiment", "toy", "--out", str(baseline)]
        ) == 0
        # Shard 1 never ran (its file is also unreadable garbage): merge
        # must fail with the exact residual and the retry recipe.
        broken = tmp_path / "part1.pkl"
        broken.write_bytes(b"truncated")
        code = sharding.main(
            ["merge", str(part0), str(broken), "--out", str(merged)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "MERGE INCOMPLETE" in out
        assert "repro-shard retry" in out
        missing = sharding.assign(graph(), sharding.ShardSpec(1, 2))
        for task in missing:
            assert " / ".join(task) in out
        # Retry runs exactly the residual; the completed merge is
        # byte-identical to the unsharded baseline.
        assert sharding.main(
            ["retry", str(part0), "--out", str(residual)]
        ) == 0
        assert sharding.load_partial(residual)["owned"] == missing
        assert sharding.main(
            ["merge", str(part0), str(residual), "--out", str(merged)]
        ) == 0
        assert sharding.main(
            ["diff", str(merged), str(baseline)]
        ) == 0

    def test_retry_with_nothing_missing(self, toy, tmp_path, capsys):
        part = tmp_path / "full.pkl"
        assert sharding.main(
            ["run", "--experiment", "toy", "--out", str(part)]
        ) == 0
        assert sharding.main(
            ["retry", str(part), "--out", str(tmp_path / "r.pkl")]
        ) == 0
        assert "nothing to retry" in capsys.readouterr().out
        assert not (tmp_path / "r.pkl").exists()


KILLED_SHARD = """
import os, signal, sys
from repro.datasets import m2h
from repro.harness import sharding
from repro.harness.runner import LrsynHtmlMethod, run_m2h_experiment

PROVIDERS = ["getthere", "delta"]

def graph():
    return [(p, f) for p in PROVIDERS for f in m2h.fields_for(p)]

def small_run(methods, tasks, seed):
    return run_m2h_experiment(
        methods, providers=PROVIDERS, train_size=4, test_size=6,
        seed=seed, tasks=tasks,
    )

sharding.EXPERIMENTS["toy"] = sharding.Experiment(
    "toy", settings=lambda: ("contemporary",), tasks=graph,
    methods=lambda: [LrsynHtmlMethod()], run=small_run,
)
partial = sharding.run_shard("toy", "1/2")
# Die inside the flush: the first half of the pickled partial lands in
# the final path, then the process is SIGKILLed.
sharding.save_partial(sys.argv[1], partial)
with open(sys.argv[1], "r+b") as handle:
    handle.truncate(max(1, os.path.getsize(sys.argv[1]) // 2))
os.kill(os.getpid(), signal.SIGKILL)
"""


class TestCrashMidFlush:
    """A worker SIGKILLed inside its partial write leaves a torn file;
    the merge must tolerate it, report the exact residual, and a retry
    must complete byte-identical to the unsharded baseline."""

    def test_truncated_partial_is_skipped_not_fatal(self, tmp_path):
        partial = make_partial(sharding.ShardSpec(0, 2))
        path = tmp_path / "torn.pkl"
        sharding.save_partial(path, partial)
        # No tmp-file debris: the atomic write leaves only the final file.
        assert list(tmp_path.glob("*.tmp.*")) == []
        # A writer that died inside write(): half the bytes on disk.
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(Exception):
            sharding.load_partial(path)
        loaded, skipped = sharding._load_partials_tolerant([str(path)])
        assert loaded == []
        assert skipped == [str(path)]

    def test_sigkill_mid_flush_then_retry_completes_identical(
        self, tmp_path, capsys, monkeypatch
    ):
        import os
        import signal
        import subprocess
        import sys as _sys
        from pathlib import Path as _Path

        part0 = tmp_path / "part0.pkl"
        torn = tmp_path / "part1.pkl"
        merged = tmp_path / "merged.pkl"
        residual = tmp_path / "residual.pkl"
        baseline = tmp_path / "baseline.pkl"

        # The subprocess registers the same toy experiment by the same
        # name, so every partial here shares one graph digest.
        monkeypatch.setitem(
            sharding.EXPERIMENTS,
            "toy",
            sharding.Experiment(
                "toy",
                settings=lambda: ("contemporary",),
                tasks=graph,
                methods=lambda: [LrsynHtmlMethod()],
                run=small_run,
            ),
        )
        assert sharding.main(
            ["run", "--experiment", "toy", "--shard", "0/2",
             "--out", str(part0)]
        ) == 0
        assert sharding.main(
            ["run", "--experiment", "toy", "--out", str(baseline)]
        ) == 0

        # Shard 1 runs in a real subprocess and is SIGKILLed inside its
        # partial flush, leaving half a pickle on disk.
        env = dict(os.environ)
        src = str(_Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [_sys.executable, "-c", KILLED_SHARD, str(torn)],
            env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        assert torn.exists()
        capsys.readouterr()

        # Merge tolerates the torn file and reports the exact residual.
        missing = sharding.assign(graph(), sharding.ShardSpec(1, 2))
        code = sharding.main(
            ["merge", str(part0), str(torn), "--out", str(merged)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "skipping unreadable partial" in out
        assert "MERGE INCOMPLETE" in out
        for task in missing:
            assert " / ".join(task) in out

        # Retry reruns precisely the lost tasks; the completed merge is
        # byte-identical to the unsharded baseline.
        assert sharding.main(
            ["retry", str(part0), "--out", str(residual)]
        ) == 0
        assert sharding.load_partial(residual)["owned"] == missing
        assert sharding.main(
            ["merge", str(part0), str(residual), "--out", str(merged)]
        ) == 0
        assert sharding.main(["diff", str(merged), str(baseline)]) == 0


class TestEnvIntegration:
    def test_experiment_driver_honours_repro_shard(
        self, monkeypatch, baseline_scores
    ):
        """REPRO_SHARD alone — no explicit task lists — must slice the
        driver's own task graph the same way the scheduler does."""
        results = []
        for index in range(2):
            monkeypatch.setenv("REPRO_SHARD", f"{index}/2")
            results.append(
                small_run([LrsynHtmlMethod()], None, 0)
            )
        monkeypatch.delenv("REPRO_SHARD")
        full = small_run([LrsynHtmlMethod()], None, 0)
        sharded_keys = sorted(
            (r.provider, r.field, r.setting) for part in results for r in part
        )
        assert sharded_keys == sorted(
            (r.provider, r.field, r.setting) for r in full
        )

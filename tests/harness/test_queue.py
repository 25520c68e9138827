"""Work-stealing claim queue: leases, CAS ownership, crash recovery.

The in-process half of the fault-tolerance story: ClaimQueue verbs over
a real backend (memory — the same load/apply/store-back path sqlite
runs), lease expiry and stealing, completion CAS losers
dropping their results, heartbeats keeping slow workers alive, and the
worker pull loop (:func:`repro.harness.queue.work_shard`) merging
byte-identical to a single-worker run no matter how tasks were raced,
stolen, or re-executed, and the claim order (longest recorded seconds
first, canonical without history).  Subprocess orchestration is
covered by ``benchmarks/chaos_recovery_check.py`` and the
store concurrency tests.
"""

import random
import threading
import time

import pytest

from repro.harness import queue as work_queue
from repro.harness import sharding
from repro.harness.costmodel import record_task_timings
from repro.harness.queue import ClaimQueue, QueueUnavailableError
from repro.harness.runner import FieldResult
from repro.store import claims
from repro.store.claims import member_id
from repro.store.memory import MemoryBackend

TASKS = [("alpha", "F1"), ("alpha", "F2"), ("beta", "F1"), ("beta", "F2")]


@pytest.fixture()
def backend(tmp_path):
    backend = MemoryBackend(tmp_path / "queue-store")
    yield backend
    backend.close()


@pytest.fixture()
def cq(backend):
    queue = ClaimQueue("testq", backend)
    yield queue


class TestClaimQueueVerbs:
    def test_sync_is_idempotent(self, cq):
        assert cq.sync(TASKS) == {"added": 4, "total": 4}
        assert cq.sync(TASKS) == {"added": 0, "total": 4}

    def test_claims_grant_in_canonical_order(self, cq):
        cq.sync(TASKS)
        granted = []
        while True:
            grant = cq.claim("w0", lease=30.0)
            if grant["status"] == "drained":
                break
            assert grant["stolen"] is False
            granted.append(tuple(grant["record"]["task"]))
            assert cq.complete("w0", grant["member"])
        assert granted == TASKS

    def test_live_peer_claim_means_wait(self, cq):
        cq.sync(TASKS[:1])
        cq.claim("w0", lease=30.0)
        grant = cq.claim("w1", lease=30.0)
        assert grant == {"status": "wait", "live": 1}

    def test_complete_is_cas_on_the_holder(self, cq):
        cq.sync(TASKS[:1])
        grant = cq.claim("w0", lease=30.0)
        member = grant["member"]
        assert cq.complete("intruder", member) is False
        assert cq.complete("w0", member) is True
        # Already done: even the erstwhile holder cannot complete twice.
        assert cq.complete("w0", member) is False

    def test_expired_lease_is_stolen_with_reclaim_count(self, cq):
        cq.sync(TASKS[:1])
        grant = cq.claim("w0", lease=0.05)
        member = grant["member"]
        time.sleep(0.15)
        stolen = cq.claim("w1", lease=30.0)
        assert stolen["status"] == "claimed"
        assert stolen["stolen"] is True
        assert stolen["record"]["reclaims"] == 1
        assert stolen["record"]["attempts"] == 2
        # The loser's CAS fails; the thief's succeeds.
        assert cq.complete("w0", member) is False
        assert cq.complete("w1", member) is True

    def test_renew_extends_lease_and_counts_heartbeats(self, cq):
        cq.sync(TASKS[:1])
        grant = cq.claim("w0", lease=0.2)
        member = grant["member"]
        for _ in range(3):
            time.sleep(0.1)
            assert cq.renew("w0", member, lease=0.2) is True
        # Well past the original deadline, yet nobody can steal it.
        assert cq.claim("w1", lease=30.0)["status"] == "wait"
        snapshot = cq.snapshot()
        assert snapshot["heartbeats"] == 3

    def test_renew_fails_after_steal(self, cq):
        cq.sync(TASKS[:1])
        grant = cq.claim("w0", lease=0.05)
        time.sleep(0.15)
        cq.claim("w1", lease=30.0)
        assert cq.renew("w0", grant["member"], lease=30.0) is False

    def test_requeue_resets_to_pending(self, cq):
        cq.sync(TASKS[:2])
        first = cq.claim("w0", lease=30.0)
        assert cq.complete("w0", first["member"])
        cq.claim("w0", lease=30.0)
        assert cq.requeue() == {"requeued": 2}
        snapshot = cq.snapshot()
        assert snapshot["states"] == {"pending": 2, "claimed": 0, "done": 0}
        assert snapshot["requeues"] == 2

    def test_requeue_specific_members(self, cq):
        cq.sync(TASKS[:2])
        first = cq.claim("w0", lease=30.0)
        assert cq.complete("w0", first["member"])
        assert cq.requeue([first["member"]]) == {"requeued": 1}
        assert cq.requeue([member_id(("nosuch", "X"))]) == {"requeued": 0}

    def test_purge_empties_the_queue(self, cq):
        cq.sync(TASKS)
        assert cq.purge() == {"purged": 4}
        assert cq.snapshot()["total"] == 0

    def test_snapshot_aggregates(self, cq):
        cq.sync(TASKS)
        grant = cq.claim("w0", lease=30.0)
        cq.complete("w0", grant["member"])
        cq.claim("w1", lease=30.0)
        snapshot = cq.snapshot()
        assert snapshot["total"] == 4
        assert snapshot["states"] == {"pending": 2, "claimed": 1, "done": 1}
        assert snapshot["attempts"] == 2
        assert snapshot["reclaims"] == 0


class _DeadBackend:
    """queue_op always answers None — the coordination-lost sentinel."""

    def queue_op(self, queue, op, args):
        return None

    def close(self):
        pass


class TestBackendLoss:
    def test_grace_exhaustion_raises(self, tmp_path):
        queue = ClaimQueue("q", _DeadBackend(), grace=0.3)
        with pytest.raises(QueueUnavailableError, match="unreachable"):
            queue.sync(TASKS)

    def test_nonblocking_renew_reports_loss_immediately(self):
        queue = ClaimQueue("q", _DeadBackend(), grace=60.0)
        start = time.monotonic()
        assert queue.renew("w0", "m", lease=1.0, blocking=False) is False
        assert time.monotonic() - start < 1.0

    def test_rebuild_recovers_spec_configured_queues(self, tmp_path):
        # Memory backends are directory-keyed within the process, so a
        # rebuilt backend sees the same rows — the model of a store
        # reopened from the same directory.
        seeder = ClaimQueue(
            "q", spec="memory", directory=tmp_path / "shared", grace=5.0
        )
        seeder.sync(TASKS)
        victim = ClaimQueue(
            "q", spec="memory", directory=tmp_path / "shared", grace=5.0
        )
        victim._backend = _DeadBackend()  # sever: next op must rebuild
        assert victim.snapshot()["total"] == 4
        victim.close()
        seeder.close()

    def test_explicit_backend_is_not_rebuilt(self):
        queue = ClaimQueue("q", _DeadBackend(), grace=0.3)
        assert queue._rebuildable is False


class TestHeartbeat:
    def test_heartbeat_keeps_a_slow_worker_alive(self, cq):
        cq.sync(TASKS[:1])
        grant = cq.claim("w0", lease=0.3)
        beat = work_queue._Heartbeat(cq, "w0", grant["member"], 0.3)
        try:
            time.sleep(0.8)  # several lease lengths
            assert cq.claim("w1", lease=30.0)["status"] == "wait"
        finally:
            beat.stop()
        assert beat.beats >= 2
        assert cq.complete("w0", grant["member"]) is True


# ----------------------------------------------------------------------
# The worker pull loop over a registered (fake, instant) experiment
# ----------------------------------------------------------------------
class _Method:
    name = "M"


def _toy_tasks():
    return list(TASKS)


def _toy_run(methods, tasks, seed):
    time.sleep(0.01)  # enough to interleave two pulling threads
    return [
        FieldResult(method.name, provider, field, "contemporary", None)
        for provider, field in tasks
        for method in methods
    ]


@pytest.fixture()
def toyq(monkeypatch, tmp_path):
    # A store of its own: timings one test records must not reorder
    # another test's claims.
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "toyq-store"))
    monkeypatch.setenv("REPRO_STORE", "1")
    experiment = sharding.Experiment(
        "toyq",
        settings=lambda: ("contemporary",),
        tasks=_toy_tasks,
        methods=lambda: [_Method()],
        run=_toy_run,
    )
    monkeypatch.setitem(sharding.EXPERIMENTS, "toyq", experiment)
    return experiment


def _drain(queue, worker, out=None, **kwargs):
    return work_queue.work_shard("toyq", worker, queue, out=out, **kwargs)


def _record_toy_history(seconds):
    from repro.harness.runner import scale

    record_task_timings("toyq", dict(zip(TASKS, seconds)), scale=scale())


class TestWorkShard:
    def test_single_worker_covers_the_graph(self, toyq, backend, tmp_path):
        out = tmp_path / "solo.pkl"
        partial = _drain(ClaimQueue("workq", backend), "solo", out=out)
        assert [tuple(t) for t in partial["owned"]] == TASKS
        assert sharding.load_partial(out)["owned"] == partial["owned"]
        # Disk snapshot and returned partial agree on results.
        assert sharding.residual_tasks([partial]) == []

    def test_two_workers_tile_the_graph_and_merge_identical(
        self, toyq, backend, tmp_path
    ):
        self._race_two_workers(backend, tmp_path)

    def test_two_workers_tile_the_graph_with_timing_history(
        self, toyq, backend, tmp_path
    ):
        _record_toy_history([1.0, 3.0, 1.0, 2.0])
        self._race_two_workers(backend, tmp_path)

    @staticmethod
    def _race_two_workers(backend, tmp_path):
        baseline = _drain(ClaimQueue("base", backend), "solo")
        queues = [ClaimQueue("race", backend) for _ in range(2)]
        partials = [None, None]

        def pull(index):
            partials[index] = _drain(
                queues[index],
                f"w{index}",
                out=tmp_path / f"p{index}.pkl",
                shard=sharding.ShardSpec(index, 2),
                poll=0.01,
            )

        threads = [
            threading.Thread(target=pull, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        owned = [tuple(t) for p in partials for t in p["owned"]]
        assert sorted(owned) == sorted(TASKS)  # disjoint and complete
        merged = sharding.merge_partials(partials)
        assert sharding.diff_partials(merged, baseline) is None

    def test_survivor_steals_a_dead_workers_claim(self, toyq, backend):
        # "Dead" worker: claims the first task and never renews/completes.
        dead = ClaimQueue("steal", backend)
        dead.sync([tuple(t) for t in TASKS])
        dead.claim("casualty", lease=0.1)
        survivor = _drain(
            ClaimQueue("steal", backend), "survivor", lease=5.0, poll=0.02
        )
        # The stolen task arrives last (only after its lease expired),
        # so compare coverage, not order — the merge reorders anyway.
        assert sorted(tuple(t) for t in survivor["owned"]) == sorted(TASKS)
        snapshot = ClaimQueue("steal", backend).snapshot()
        assert snapshot["reclaims"] == 1
        assert snapshot["states"]["done"] == 4
        assert sharding.residual_tasks([survivor]) == []

    def test_completion_loser_drops_and_reruns(self, toyq, backend):
        """A worker whose claim is requeued out from under it must drop
        that result, then win the task again — owning it exactly once."""
        inner = ClaimQueue("loser", backend)

        class LosingQueue:
            def __init__(self):
                self.losses = 0

            def complete(self, worker, member):
                if self.losses == 0:
                    self.losses += 1
                    inner.requeue([member])  # models a steal + requeue
                return inner.complete(worker, member)

            def __getattr__(self, name):
                return getattr(inner, name)

        wrapper = LosingQueue()
        partial = work_queue.work_shard(
            "toyq", "w0", wrapper, lease=5.0, poll=0.01
        )
        assert wrapper.losses == 1
        owned = [tuple(t) for t in partial["owned"]]
        assert sorted(owned) == sorted(TASKS)
        assert len(owned) == len(set(owned))
        snapshot = inner.snapshot()
        assert snapshot["requeues"] == 1
        assert snapshot["attempts"] == len(TASKS) + 1

    def test_kill_claim_chaos_dies_holding_the_lease(
        self, toyq, backend, monkeypatch
    ):
        from repro.harness import chaos

        class _Died(Exception):
            pass

        monkeypatch.setattr(
            chaos, "kill", lambda: (_ for _ in ()).throw(_Died())
        )
        chaos.reset("kill_claim=1")
        try:
            with pytest.raises(_Died):
                work_queue.work_shard(
                    "toyq", "w0", ClaimQueue("chaos", backend), lease=0.1
                )
        finally:
            chaos.reset("")
        # The dead worker left a live claim; after expiry a survivor
        # steals it and finishes the whole graph.
        survivor = _drain(
            ClaimQueue("chaos", backend), "survivor", lease=5.0, poll=0.02
        )
        assert sorted(tuple(t) for t in survivor["owned"]) == sorted(TASKS)
        assert ClaimQueue("chaos", backend).snapshot()["reclaims"] == 1


class TestClaimOrder:
    def test_history_orders_longest_first_ties_canonical(
        self, toyq, backend
    ):
        _record_toy_history([1.0, 3.0, 1.0, 2.0])
        expected = [TASKS[1], TASKS[3], TASKS[0], TASKS[2]]
        assert work_queue.claim_order("toyq", TASKS) == expected
        partial = _drain(ClaimQueue("lpt", backend), "solo")
        assert [tuple(t) for t in partial["owned"]] == expected
        records = ClaimQueue("lpt", backend).snapshot()["records"]
        assert [tuple(r["task"]) for r in records] == expected

    def test_no_history_keeps_canonical_order(self, toyq, backend):
        assert work_queue.claim_order("toyq", TASKS) == TASKS
        partial = _drain(ClaimQueue("cold", backend), "solo")
        assert [tuple(t) for t in partial["owned"]] == TASKS

    def test_disabled_store_keeps_canonical_order(self, toyq, monkeypatch):
        _record_toy_history([1.0, 3.0, 1.0, 2.0])
        monkeypatch.setenv("REPRO_STORE", "0")
        assert work_queue.claim_order("toyq", TASKS) == TASKS

    def test_first_sync_fixes_the_order(self, toyq, backend):
        queue = ClaimQueue("fixed", backend)
        queue.sync(work_queue.claim_order("toyq", TASKS))
        _record_toy_history([1.0, 3.0, 1.0, 2.0])
        partial = _drain(queue, "solo")
        assert [tuple(t) for t in partial["owned"]] == TASKS

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_greedy_claims_reach_the_lpt_makespan(self, toyq, workers):
        """Workers that each claim the next task the moment they are free
        give Graham's LPT schedule: the same makespan as packing
        heaviest-first onto the least loaded worker."""
        from repro.harness.runner import scale

        rng = random.Random(workers)
        graph = [(f"t{i:02d}",) for i in range(12)]
        for trial in range(10):
            experiment = f"sim{workers}-{trial}"
            costs = {
                task: rng.choice([0.5, 1.0, 2.0, 3.5]) for task in graph
            }
            record_task_timings(experiment, costs, scale=scale())
            records = {}
            dirty, _ = claims.apply(
                records,
                "sync",
                {"tasks": work_queue.claim_order(experiment, graph)},
                0.0,
            )
            records.update(dirty)
            free_at = [0.0] * workers
            while True:
                worker = min(range(workers), key=lambda w: (free_at[w], w))
                args = {"worker": f"w{worker}", "lease": 1e9}
                dirty, grant = claims.apply(
                    records, "claim", args, free_at[worker]
                )
                if grant["status"] != "claimed":
                    break
                records.update(dirty)
                free_at[worker] += costs[tuple(grant["record"]["task"])]
                args["member"] = grant["member"]
                dirty, _ = claims.apply(
                    records, "complete", args, free_at[worker]
                )
                records.update(dirty)
            loads = [0.0] * workers
            for task in sorted(graph, key=lambda t: -costs[t]):
                loads[loads.index(min(loads))] += costs[task]
            assert max(free_at) == max(loads)


class TestOrchestrationHelpers:
    def test_queue_id_is_digest_derived(self):
        assert work_queue.queue_id("a" * 64) == "work|" + "a" * 32

    def test_experiment_digest_is_stable_and_seed_sensitive(self):
        first = work_queue.experiment_digest("robustness", 0)
        assert work_queue.experiment_digest("robustness", 0) == first
        assert work_queue.experiment_digest("robustness", 1) != first

    def test_worker_env_routes_chaos_to_round_one_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "kill_task=1")
        monkeypatch.setenv("REPRO_CHAOS_W1", "truncate_partial=2")
        monkeypatch.setenv("REPRO_SHARD", "0/2")
        env0 = work_queue._worker_env(0, 1)
        env1 = work_queue._worker_env(1, 1)
        assert env0["REPRO_CHAOS"] == "kill_task=1"  # plain knob -> worker 0
        assert env1["REPRO_CHAOS"] == "truncate_partial=2"
        assert "REPRO_SHARD" not in env0
        # Recovery rounds are chaos-free, or the same fault re-trips
        # forever and recovery can never be observed converging.
        assert "REPRO_CHAOS" not in work_queue._worker_env(0, 2)
        assert "REPRO_CHAOS" not in work_queue._worker_env(1, 2)

    def test_format_stats_calls_out_recovered_tasks(self, cq):
        cq.sync(TASKS[:2])
        cq.claim("w0", lease=0.01)
        time.sleep(0.05)
        cq.claim("w1", lease=30.0)  # steals
        text = work_queue._format_stats(cq.snapshot())
        assert "reclaims 1" in text
        assert "recovered alpha / F1" in text
        assert "last worker w1" in text

    @pytest.mark.parametrize(
        "name,default",
        [
            ("REPRO_QUEUE_LEASE", work_queue.DEFAULT_LEASE_SECONDS),
            ("REPRO_QUEUE_POLL", work_queue.DEFAULT_POLL_SECONDS),
            ("REPRO_QUEUE_GRACE", work_queue.DEFAULT_GRACE_SECONDS),
        ],
    )
    def test_knobs_parse_and_reject_garbage(self, monkeypatch, name, default):
        reader = {
            "REPRO_QUEUE_LEASE": work_queue.lease_seconds,
            "REPRO_QUEUE_POLL": work_queue.poll_seconds,
            "REPRO_QUEUE_GRACE": work_queue.grace_seconds,
        }[name]
        monkeypatch.delenv(name, raising=False)
        assert reader() == default
        monkeypatch.setenv(name, "2.5")
        assert reader() == 2.5
        monkeypatch.setenv(name, "0")
        with pytest.raises(ValueError, match=name):
            reader()
        monkeypatch.setenv(name, "soon")
        with pytest.raises(ValueError, match=name):
            reader()


class TestWorkCli:
    def test_worker_mode_drains_the_queue(self, toyq, tmp_path, capsys):
        out = tmp_path / "cli-worker.pkl"
        assert sharding.main(
            ["work", "--experiment", "toyq", "--worker", "0/1",
             "--out", str(out)]
        ) == 0
        assert "4/4 tasks won" in capsys.readouterr().out
        partial = sharding.load_partial(out)
        assert sorted(tuple(t) for t in partial["owned"]) == sorted(TASKS)
        # Drain the leftover queue so a second identical run starts clean.
        digest = work_queue.experiment_digest("toyq", 0)
        queue = ClaimQueue(work_queue.queue_id(digest))
        queue.purge()
        queue.close()

"""Work-stealing shard execution over a leased claim queue.

Static round-robin shards decide ownership before the first task runs;
a killed or straggling worker strands its whole slice until someone
runs ``repro-shard retry``.  This module is the dynamic alternative: N
workers pull tasks one at a time from a shared **claim queue** — a
``queue``-kind table in the blueprint store (:mod:`repro.store.claims`),
riding whichever backend the run already uses (sqlite file-lock or
memory).

The protocol per worker::

    sync(graph)                  # idempotent: first worker seeds the queue
    while True:
        claim(worker, lease)     # atomic CAS grant, in claim order
        ... run the task, renewing the lease (heartbeats) ...
        complete(worker, member) # CAS: only the current holder wins
        append to partial file   # atomic tmp+rename snapshot

Tasks are queued in :func:`claim_order`: longest predicted seconds
first (the ``timing`` store kind, :mod:`repro.harness.costmodel`), ties
in canonical order.  Greedy claiming in that order is list scheduling
in LPT order, i.e. Graham's LPT schedule, without a plan file.  With no
timing history every prediction is equal and the order is canonical.

Crash safety falls out of three properties:

* **Leases expire.**  A worker that dies (SIGKILL, OOM, lost store)
  stops renewing; once its deadline passes, any survivor's ``claim``
  steals the task (``reclaims`` counts it) and re-executes.
* **Completion is a compare-and-swap.**  If a slow-but-alive worker is
  stolen from, its ``complete`` fails and it *drops* the result, so the
  merge invariant — every task owned by exactly one partial — holds no
  matter how the race resolves.  Re-execution is idempotent: results
  are keyed by TaskKey and the config digest, so the merged tables are
  byte-identical to an unsharded run regardless of which worker ran a
  task or how many times it was attempted.
* **Partials snapshot after every task.**  The atomic rewrite means a
  dead worker loses at most its in-flight task; everything it finished
  merges normally.

The orchestrator (:func:`run_work_pool`, ``repro-shard work``) spawns
worker subprocesses, and after each round requeues exactly the tasks no
readable partial covers (a worker that died after queue-``complete``
but before its partial snapshot leaves a done-in-queue/missing-on-disk
task — requeue resurrects it).  Bounded rounds of this loop recover
from any number of worker deaths with zero manual intervention, then
merge through the ordinary :func:`repro.harness.sharding.merge_partials`
machinery.

Knobs: ``REPRO_QUEUE_LEASE`` (seconds a claim stays exclusive without
renewal, default 30), ``REPRO_QUEUE_POLL`` (idle claim retry interval,
default 0.5), ``REPRO_QUEUE_GRACE`` (how long a worker keeps retrying a
lost store before giving up, default 60).  Fault injection for
all of this lives in :mod:`repro.harness.chaos` (``REPRO_CHAOS``).
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.harness.sharding import (
    ShardSpec,
    TaskKey,
    _graph_digest,
    get_experiment,
    merge_partials,
    residual_tasks,
    save_partial,
    PARTIAL_SCHEMA,
    _load_partials_tolerant,
)
from repro.store.claims import member_id

DEFAULT_LEASE_SECONDS = 30.0
DEFAULT_POLL_SECONDS = 0.5
DEFAULT_GRACE_SECONDS = 60.0
DEFAULT_MAX_ROUNDS = 4

# How long the reconnect loop sleeps between attempts to rebuild a lost
# backend (store briefly unreadable or unwritable).
_RECONNECT_POLL_SECONDS = 0.5


def _env_seconds(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a number (seconds), got {raw!r}"
        ) from None
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {raw!r}")
    return value


def lease_seconds() -> float:
    """``REPRO_QUEUE_LEASE``: claim exclusivity without renewal."""
    return _env_seconds("REPRO_QUEUE_LEASE", DEFAULT_LEASE_SECONDS)


def poll_seconds() -> float:
    """``REPRO_QUEUE_POLL``: idle worker claim-retry interval."""
    return _env_seconds("REPRO_QUEUE_POLL", DEFAULT_POLL_SECONDS)


def grace_seconds() -> float:
    """``REPRO_QUEUE_GRACE``: how long to outwait a lost store."""
    return _env_seconds("REPRO_QUEUE_GRACE", DEFAULT_GRACE_SECONDS)


def queue_id(digest: str) -> str:
    """The queue name of one split: digest-derived, so re-running the
    same configuration *resumes* its queue instead of starting over."""
    return f"work|{digest[:32]}"


def experiment_digest(experiment: str, seed: int = 0) -> str:
    """The split digest of a registered experiment's full graph.

    Orchestrator and workers each compute this independently (from the
    registry and the shared env: seed, scale, method set), so they agree
    on the queue name without talking to each other first.
    """
    from repro.harness.runner import scale

    registered = get_experiment(experiment)
    graph = [tuple(task) for task in registered.tasks()]
    method_names = [method.name for method in registered.methods()]
    return _graph_digest(
        experiment, graph, seed, scale(), method_names, registered.config()
    )


def claim_order(experiment: str, graph: Sequence[TaskKey]) -> list[TaskKey]:
    """``graph`` sorted by descending predicted seconds, ties canonical.

    ``sync`` keeps existing rows, so whichever sync runs first fixes the
    order of a queue.
    """
    from repro.harness.costmodel import CostModel
    from repro.harness.runner import scale

    graph = [tuple(task) for task in graph]
    model = CostModel.load({experiment: graph}, scale=scale())
    predicted = [model.predict(experiment, task) for task in graph]
    order = sorted(range(len(graph)), key=lambda i: (-predicted[i], i))
    return [graph[i] for i in order]


class QueueUnavailableError(RuntimeError):
    """The claim queue's backend stayed unreachable past the grace window."""


class ClaimQueue:
    """Client for one claim queue, with reconnect-on-loss.

    A ``None`` from :meth:`~repro.store.backend.StoreBackend.queue_op`
    means the backend lost coordination (a degraded store, or a sqlite
    error mid-op).  The sqlite backend latches itself off after its
    first failed open — correct
    for a cache, fatal for a coordination table — so this client
    *rebuilds* the backend from its spec and keeps trying until
    ``grace`` runs out.  Queue rows live in the store itself, so they
    survive the rebuild.
    """

    def __init__(
        self,
        queue: str,
        backend: Any = None,
        *,
        spec: str | None = None,
        directory: str | os.PathLike | None = None,
        grace: float | None = None,
    ) -> None:
        from repro.store import make_backend

        self.queue = queue
        self._spec = spec
        self._directory = directory
        # An explicitly provided backend instance cannot be rebuilt;
        # spec-configured (or env-configured) queues can.
        self._rebuildable = backend is None
        self._backend = (
            backend if backend is not None else make_backend(spec, directory)
        )
        self.grace = grace_seconds() if grace is None else grace
        self._lock = threading.Lock()

    def _rebuild(self) -> None:
        if not self._rebuildable:
            return
        from repro.store import make_backend

        try:
            self._backend.close()
        except Exception:  # noqa: BLE001 - the old backend is already lost
            pass
        self._backend = make_backend(self._spec, self._directory)

    def _op(self, op: str, args: dict, grace: float | None = None) -> Any:
        """One queue op, retried through backend loss.

        ``grace=0`` is the non-blocking form (the heartbeat thread uses
        it so a lost store cannot pin the lock for the full window);
        the default retries until :attr:`grace` expires, then raises
        :class:`QueueUnavailableError`.
        """
        budget = self.grace if grace is None else grace
        with self._lock:
            deadline = time.monotonic() + budget
            while True:
                result = self._backend.queue_op(self.queue, op, args)
                if result is not None:
                    return result
                if time.monotonic() >= deadline:
                    if grace == 0:
                        return None
                    raise QueueUnavailableError(
                        f"claim queue {self.queue!r} unreachable for"
                        f" {budget:.0f}s (op {op!r})"
                    )
                time.sleep(_RECONNECT_POLL_SECONDS)
                self._rebuild()

    # -- protocol verbs --------------------------------------------------
    def sync(self, tasks: Sequence[TaskKey]) -> dict:
        return self._op("sync", {"tasks": [list(task) for task in tasks]})

    def claim(self, worker: str, lease: float) -> dict:
        return self._op("claim", {"worker": worker, "lease": lease})

    def renew(
        self, worker: str, member: str, lease: float, *, blocking: bool = True
    ) -> bool:
        result = self._op(
            "renew",
            {"worker": worker, "member": member, "lease": lease},
            grace=None if blocking else 0,
        )
        return bool(result and result.get("ok"))

    def complete(self, worker: str, member: str) -> bool:
        result = self._op("complete", {"worker": worker, "member": member})
        return bool(result.get("ok"))

    def requeue(self, members: Sequence[str] | None = None) -> dict:
        args: dict = {}
        if members is not None:
            args["members"] = list(members)
        return self._op("requeue", args)

    def snapshot(self) -> dict:
        return self._op("snapshot", {})

    def purge(self) -> dict:
        return self._op("purge", {})

    def close(self) -> None:
        self._backend.close()


class _Heartbeat:
    """Renews one claim on a background thread while the task runs.

    Renewal uses the queue's non-blocking path: a missed beat (store
    briefly unavailable) is recorded and retried at the next interval
    instead of wedging — the lease just drifts closer to expiry, which is the
    designed signal that this worker *might* be dead.  The CAS on
    ``complete`` settles the truth either way.
    """

    def __init__(
        self, queue: ClaimQueue, worker: str, member: str, lease: float
    ) -> None:
        self._queue = queue
        self._worker = worker
        self._member = member
        self._lease = lease
        self._stop = threading.Event()
        self.beats = 0
        self.misses = 0
        self._thread = threading.Thread(
            target=self._run, daemon=True, name=f"heartbeat:{member[:24]}"
        )
        self._thread.start()

    def _run(self) -> None:
        interval = max(0.05, self._lease / 3.0)
        while not self._stop.wait(interval):
            if self._queue.renew(
                self._worker, self._member, self._lease, blocking=False
            ):
                self.beats += 1
            else:
                self.misses += 1

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def work_shard(
    experiment: str,
    worker: str,
    queue: ClaimQueue,
    seed: int = 0,
    *,
    shard: ShardSpec | None = None,
    methods: list | None = None,
    graph: Sequence[TaskKey] | None = None,
    run: Callable[[list, list[TaskKey], int], list] | None = None,
    out: "str | os.PathLike | None" = None,
    lease: float | None = None,
    poll: float | None = None,
) -> dict:
    """One worker's pull loop; returns (and incrementally writes) a partial.

    The keyword overrides mirror :func:`repro.harness.sharding.run_shard`
    (test-sized graphs, custom method sets).  ``out`` enables the
    incremental snapshot: the partial file is atomically rewritten after
    every completed task, so a crash loses at most the in-flight task.
    ``shard`` only labels the partial (``(index, count)`` for humans and
    reports); ownership comes exclusively from won completions.
    """
    from repro.core.caching import StageTimer, cache_enabled, use_timer
    from repro.harness import chaos
    from repro.harness.costmodel import record_task_timings
    from repro.harness.runner import flush_corpus_store, scale

    registered = get_experiment(experiment)
    graph = [tuple(task) for task in (
        graph if graph is not None else registered.tasks()
    )]
    methods = methods if methods is not None else registered.methods()
    run = run if run is not None else registered.run
    method_names = [method.name for method in methods]
    digest = _graph_digest(
        experiment, graph, seed, scale(), method_names, registered.config()
    )
    lease = lease_seconds() if lease is None else lease
    poll = poll_seconds() if poll is None else poll
    label = shard if shard is not None else ShardSpec(0, 1)

    queue.sync(claim_order(experiment, graph))

    timer = StageTimer()
    grouped: dict[TaskKey, list] = {}
    owned: list[TaskKey] = []
    wall_start = time.perf_counter()

    def partial_snapshot() -> dict:
        task_seconds = {
            task: seconds
            for task, seconds in timer.tasks.items()
            if task in grouped
        }
        return {
            "schema": PARTIAL_SCHEMA,
            "experiment": experiment,
            "shard": (label.index, label.count),
            "seed": seed,
            "scale": scale(),
            "graph": graph,
            "graph_digest": digest,
            "owned": list(owned),
            "methods": method_names,
            "results": dict(grouped),
            "wall_seconds": time.perf_counter() - wall_start,
            "task_seconds": task_seconds,
            "timer": timer.snapshot(),
        }

    while True:
        grant = queue.claim(worker, lease)
        status = grant["status"]
        if status == "drained":
            break
        if status == "wait":
            # Peers hold live leases on everything left; one of them may
            # yet die, so poll until the queue drains or a lease expires.
            time.sleep(poll)
            continue
        task = tuple(grant["record"]["task"])
        member = grant["member"]
        if chaos.trip("kill_claim"):
            # Die *holding* the claim: the lease must expire and a
            # survivor must steal it (the reclaim path, distinct from
            # kill_task's clean boundary death).
            chaos.kill()
        heartbeat = _Heartbeat(queue, worker, member, lease)
        try:
            with use_timer(timer):
                results = run(methods, [task], seed)
        finally:
            heartbeat.stop()
        flush_corpus_store()
        for result in results:
            if registered.result_key(result) != task:
                raise RuntimeError(
                    f"driver returned result for task"
                    f" {registered.result_key(result)} while running {task}"
                )
        if not queue.complete(worker, member):
            # Lost the claim (lease expired and a peer stole it, or it
            # was requeued out from under us): drop the result so the
            # eventual owner's partial is the only one carrying it.
            continue
        grouped[task] = list(results)
        owned.append(task)
        if out is not None:
            save_partial(out, partial_snapshot())
        if chaos.trip("kill_task"):
            chaos.kill()

    if cache_enabled():
        record_task_timings(
            experiment,
            {
                task: seconds
                for task, seconds in timer.tasks.items()
                if task in grouped
            },
            scale=scale(),
        )
    partial = partial_snapshot()
    if out is not None:
        save_partial(out, partial)
    return partial


def _format_stats(snapshot: dict) -> str:
    """Human-readable queue stats, reclaimed leases called out per task."""
    states = snapshot["states"]
    lines = [
        f"queue stats: {snapshot['total']} tasks"
        f" (done {states.get('done', 0)}, claimed {states.get('claimed', 0)},"
        f" pending {states.get('pending', 0)}),"
        f" attempts {snapshot['attempts']},"
        f" reclaims {snapshot['reclaims']},"
        f" requeues {snapshot['requeues']},"
        f" heartbeats {snapshot['heartbeats']}"
    ]
    for record in snapshot["records"]:
        if record["reclaims"] or record["requeues"]:
            lines.append(
                f"  recovered {' / '.join(record['task'])}:"
                f" {record['reclaims']} reclaim(s),"
                f" {record['requeues']} requeue(s),"
                f" {record['attempts']} attempt(s),"
                f" last worker {record['worker']}"
            )
    return "\n".join(lines)


def _worker_env(index: int, round_number: int) -> dict[str, str]:
    """The environment for worker ``index`` of round ``round_number``.

    Chaos routing: ``REPRO_CHAOS_W<i>`` configures worker ``i`` alone;
    a plain ``REPRO_CHAOS`` applies to worker 0 only.  Faults are
    injected into the *first* round's workers exclusively — chaos
    counters are per-process, so a recovery round inheriting the spec
    would re-trip the identical fault every round and "recovery" could
    never be observed terminating.  The orchestrator itself runs
    chaos-free either way.
    """
    env = dict(os.environ)
    env.pop("REPRO_CHAOS", None)
    if round_number == 1:
        per_worker = os.environ.get(f"REPRO_CHAOS_W{index}")
        if per_worker is not None:
            env["REPRO_CHAOS"] = per_worker
        elif index == 0 and os.environ.get("REPRO_CHAOS"):
            env["REPRO_CHAOS"] = os.environ["REPRO_CHAOS"]
    # Workers coordinate through the queue; a static-shard knob leaking
    # into their environment must not confuse anything they run.
    env.pop("REPRO_SHARD", None)
    src = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    return env


def run_work_pool(
    experiment: str,
    workers: int,
    seed: int = 0,
    *,
    out: "str | os.PathLike",
    fresh: bool = False,
    keep_queue: bool = False,
    lease: float | None = None,
    poll: float | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    stats_out: "str | os.PathLike | None" = None,
    echo: Callable[[str], None] = print,
) -> dict:
    """Run ``experiment`` with ``workers`` work-stealing subprocesses.

    Orchestration: seed the queue, spawn a round of workers, and when
    they exit collect every readable partial.  Tasks no partial covers
    (in-flight at a crash, done-in-queue but lost with a dead worker's
    file, or still pending) are requeued and a fresh round runs — up to
    ``max_rounds`` rounds, which bounds recovery without human help.
    The merged result is saved to ``out`` and returned; queue rows are
    purged on success (the digest-named queue would otherwise shadow
    the next identical run) unless ``keep_queue``.
    """
    from repro.harness import chaos

    # The orchestrator must not trip worker-targeted chaos sites in its
    # own process (e.g. truncating the *merged* output); fault routing
    # to workers happens in _worker_env.
    chaos.reset("")
    registered = get_experiment(experiment)
    graph = [tuple(task) for task in registered.tasks()]
    digest = experiment_digest(experiment, seed)
    queue = ClaimQueue(queue_id(digest))
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    if fresh:
        queue.purge()
    synced = queue.sync(claim_order(experiment, graph))
    echo(
        f"work pool: {experiment} x{workers} workers,"
        f" {len(graph)} tasks ({synced['added']} newly queued),"
        f" queue {queue.queue}"
    )

    partial_paths: list[Path] = []
    partials: list[dict] = []
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        round_paths = [
            out.with_name(f"{out.stem}.r{rounds}w{index}.pkl")
            for index in range(workers)
        ]
        procs = []
        for index, path in enumerate(round_paths):
            cmd = [
                sys.executable,
                "-m",
                "repro.harness.sharding",
                "work",
                "--experiment",
                experiment,
                "--seed",
                str(seed),
                "--worker",
                f"{index}/{workers}",
                "--out",
                str(path),
            ]
            if lease is not None:
                cmd += ["--lease", str(lease)]
            if poll is not None:
                cmd += ["--poll", str(poll)]
            procs.append(
                subprocess.Popen(cmd, env=_worker_env(index, rounds))
            )
        exits = [proc.wait() for proc in procs]
        dead = sum(1 for code in exits if code != 0)
        if dead:
            echo(
                f"round {rounds}: {dead}/{workers} worker(s) died"
                f" (exit codes {exits})"
            )
        loaded, skipped = _load_partials_tolerant(
            [str(path) for path in partial_paths + round_paths
             if path.exists()]
        )
        if skipped:
            echo(f"round {rounds}: {len(skipped)} partial file(s) unreadable")
        partial_paths = [Path(path) for path, _ in loaded]
        partials = [partial for _, partial in loaded]
        residual = residual_tasks(partials) if partials else graph
        if not residual:
            break
        echo(
            f"round {rounds}: {len(residual)} task(s) unrecovered —"
            " requeueing for a fresh round"
        )
        # Every worker of the round has exited, so no live process holds
        # a claim: force the uncovered tasks (whatever their queue state
        # — expired claims, done-but-lost) back to pending.
        queue.requeue([member_id(task) for task in residual])
    else:
        raise RuntimeError(
            f"work pool failed to cover the graph in {max_rounds} rounds"
            f" ({len(residual)} task(s) missing) — the queue is kept for"
            " inspection"
        )

    snapshot = queue.snapshot()
    echo(_format_stats(snapshot))
    if stats_out is not None:
        import json

        stats_path = Path(stats_out)
        stats_path.parent.mkdir(parents=True, exist_ok=True)
        stats_path.write_text(json.dumps(snapshot, indent=2) + "\n")
    merged = merge_partials(partials)
    save_partial(out, merged)
    if not keep_queue:
        queue.purge()
    queue.close()
    merged["queue_stats"] = snapshot
    merged["rounds"] = rounds
    return merged


def default_worker_name(index: "int | str") -> str:
    """A fleet-unique worker identity: host, pid, and pool slot."""
    return f"{socket.gethostname()}:{os.getpid()}:w{index}"

"""The claim-table state machine behind the work-stealing queue.

A *claim queue* is a new ``queue`` store kind: one row per canonical
task, living in the ordinary entries table of whichever backend holds
the store (sqlite file or memory dict), so queue state is persisted
like any other kind and survives a worker that dies holding it.

This module is the *pure* half: given the decoded records of one queue
and an operation, :func:`apply` returns the mutated records and the
operation's result.  It never touches storage or locks — each backend
implements :meth:`repro.store.backend.StoreBackend.queue_op` by loading
the queue's rows under its own exclusive mechanism (the sqlite advisory
file lock or the memory backend's thread lock), applying this function,
and writing the dirty rows back.  That makes every operation an atomic
compare-and-swap no matter which backend coordinates it.

Lease semantics: a claim carries ``deadline = now + lease`` stamped
with the clock of the process applying the op (all of them on one
machine, so one clock per queue).  A worker renews its lease while
running; each renewal bumps the ``heartbeats`` counter, and deadlines
only ever move forward (``max(old, now + lease)``), so a clock stepping
backwards can shorten no lease.  A claim whose deadline has passed is
*expired*: any other worker's ``claim`` steals it (``reclaims``
increments — the visible trace of crash recovery) and ``complete`` from
the original worker fails its compare-and-swap, so exactly one worker
ever owns a task's result.  Completion losers simply drop their
(idempotent, byte-identical) result.

Record shape (one dict per task)::

    {"task": [...],        # the canonical TaskKey, as a list
     "position": int,       # claim order: index in the first synced list
     "state": "pending" | "claimed" | "done",
     "worker": str | None,  # current/last claim holder
     "deadline": float,     # lease expiry (claimed state only)
     "heartbeats": int,     # lease renewals for the current claim
     "attempts": int,       # total claims ever granted
     "reclaims": int,       # claims granted by stealing an expired lease
     "requeues": int}       # times an operator reset the task to pending
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

QUEUE_KIND = "queue"
QUEUE_SUBSTRATE = "queue"

PENDING = "pending"
CLAIMED = "claimed"
DONE = "done"

#: Ops understood by :func:`apply` (and therefore by every backend's
#: ``queue_op``).  ``purge`` is special-cased by backends: it deletes
#: the queue's rows instead of rewriting them.
OPS = ("sync", "claim", "renew", "complete", "requeue", "snapshot", "purge")


def member_id(task: Sequence[str]) -> str:
    """The queue-row member id of one canonical task."""
    return "\x1f".join(task)


def queue_row_key(queue: str, member: str) -> str:
    """The store key of one claim row (``queue`` + unit separator + id)."""
    return f"{queue}\x1e{member}"


def queue_prefix(queue: str) -> str:
    """Every row of ``queue`` starts with this key prefix."""
    return f"{queue}\x1e"


def row_generation() -> str:
    """Generation stamp for queue rows.

    Queue rows carry the current algo generation so ``repro-store gc``
    keeps live queues and drops ones stranded by a version bump (a bump
    invalidates the digest-named queue anyway).  Imported lazily — this
    module must stay importable from the backends without touching the
    package front.
    """
    from repro.store import default_generation

    return default_generation()


def new_record(task: Sequence[str], position: int) -> dict:
    return {
        "task": list(task),
        "position": position,
        "state": PENDING,
        "worker": None,
        "deadline": 0.0,
        "heartbeats": 0,
        "attempts": 0,
        "reclaims": 0,
        "requeues": 0,
    }


def apply(
    records: Mapping[str, dict],
    op: str,
    args: Mapping[str, Any],
    now: float,
) -> tuple[dict[str, dict], Any]:
    """Apply one queue operation; returns ``(dirty_records, result)``.

    ``records`` maps member id -> record for every row of the queue;
    ``dirty_records`` is the subset (same keying) the caller must write
    back.  The function never mutates its input records in place.
    """
    if op == "sync":
        return _sync(records, args)
    if op == "claim":
        return _claim(records, args, now)
    if op == "renew":
        return _renew(records, args, now)
    if op == "complete":
        return _complete(records, args, now)
    if op == "requeue":
        return _requeue(records, args)
    if op == "snapshot":
        return {}, _snapshot(records, now)
    raise ValueError(f"unknown queue op {op!r}")


def _ordered(records: Mapping[str, dict]) -> list[tuple[str, dict]]:
    return sorted(
        records.items(), key=lambda item: (item[1]["position"], item[0])
    )


def _sync(
    records: Mapping[str, dict], args: Mapping[str, Any]
) -> tuple[dict[str, dict], dict]:
    """Ensure a pending row exists per task; never downgrades existing.

    Idempotent by construction, so every worker of a fleet can sync the
    same graph on startup without coordination.  A new row's position is
    its index in ``tasks``, so the first sync fixes the claim order.
    """
    dirty: dict[str, dict] = {}
    for position, task in enumerate(args["tasks"]):
        member = member_id(task)
        if member not in records:
            dirty[member] = new_record(task, position)
    return dirty, {"added": len(dirty), "total": len(records) + len(dirty)}


def _claim(
    records: Mapping[str, dict], args: Mapping[str, Any], now: float
) -> tuple[dict[str, dict], dict]:
    """Grant the first pending-or-expired task to ``worker``.

    Result status: ``claimed`` (with the granted record), ``wait``
    (nothing grantable, but live claims remain — poll again), or
    ``drained`` (every task is done).
    """
    worker = args["worker"]
    lease = float(args["lease"])
    live = 0
    for member, record in _ordered(records):
        if record["state"] == PENDING or (
            record["state"] == CLAIMED and record["deadline"] <= now
        ):
            stolen = record["state"] == CLAIMED
            updated = dict(record)
            updated["state"] = CLAIMED
            updated["worker"] = worker
            updated["deadline"] = max(record["deadline"], now + lease)
            updated["heartbeats"] = 0
            updated["attempts"] = record["attempts"] + 1
            if stolen:
                updated["reclaims"] = record["reclaims"] + 1
            return {member: updated}, {
                "status": "claimed",
                "member": member,
                "record": updated,
                "stolen": stolen,
            }
        if record["state"] == CLAIMED:
            live += 1
    if live:
        return {}, {"status": "wait", "live": live}
    return {}, {"status": "drained"}


def _renew(
    records: Mapping[str, dict], args: Mapping[str, Any], now: float
) -> tuple[dict[str, dict], dict]:
    """Extend ``worker``'s lease on ``member`` — CAS on the holder.

    Renewal succeeds even when the deadline already slipped, as long as
    nobody stole the claim: the worker is demonstrably alive, and
    letting it keep the lease avoids needless duplicate work.
    """
    member = args["member"]
    worker = args["worker"]
    record = records.get(member)
    if (
        record is None
        or record["state"] != CLAIMED
        or record["worker"] != worker
    ):
        return {}, {"ok": False}
    updated = dict(record)
    updated["deadline"] = max(record["deadline"], now + float(args["lease"]))
    updated["heartbeats"] = record["heartbeats"] + 1
    return {member: updated}, {"ok": True}


def _complete(
    records: Mapping[str, dict], args: Mapping[str, Any], now: float
) -> tuple[dict[str, dict], dict]:
    """Mark ``member`` done — CAS on the holder.

    ``ok: False`` means the caller lost the task (its lease expired and
    another worker claimed it, or it was already completed elsewhere):
    the caller must drop its result so exactly one partial ever owns
    the task.
    """
    member = args["member"]
    worker = args["worker"]
    record = records.get(member)
    if (
        record is None
        or record["state"] != CLAIMED
        or record["worker"] != worker
    ):
        return {}, {"ok": False}
    updated = dict(record)
    updated["state"] = DONE
    updated["deadline"] = 0.0
    return {member: updated}, {"ok": True}


def _requeue(
    records: Mapping[str, dict], args: Mapping[str, Any]
) -> tuple[dict[str, dict], dict]:
    """Reset the given members (default: every non-pending row) to pending.

    The recovery verb: tasks a dead worker completed in the queue but
    never wrote to its partial file are made claimable again.  Results
    are keyed by task + config digest, so re-execution is idempotent.
    """
    members = args.get("members")
    if members is None:
        members = [
            member
            for member, record in records.items()
            if record["state"] != PENDING
        ]
    dirty: dict[str, dict] = {}
    for member in members:
        record = records.get(member)
        if record is None or record["state"] == PENDING:
            continue
        updated = dict(record)
        updated["state"] = PENDING
        updated["worker"] = None
        updated["deadline"] = 0.0
        updated["heartbeats"] = 0
        updated["requeues"] = record["requeues"] + 1
        dirty[member] = updated
    return dirty, {"requeued": len(dirty)}


def _snapshot(records: Mapping[str, dict], now: float) -> dict:
    """Full queue state plus the aggregate counters the CLI prints."""
    ordered = [record for _, record in _ordered(records)]
    by_state = {PENDING: 0, CLAIMED: 0, DONE: 0}
    expired = 0
    for record in ordered:
        by_state[record["state"]] = by_state.get(record["state"], 0) + 1
        if record["state"] == CLAIMED and record["deadline"] <= now:
            expired += 1
    return {
        "records": ordered,
        "total": len(ordered),
        "states": by_state,
        "expired": expired,
        "attempts": sum(r["attempts"] for r in ordered),
        "reclaims": sum(r["reclaims"] for r in ordered),
        "requeues": sum(r["requeues"] for r in ordered),
        "heartbeats": sum(r["heartbeats"] for r in ordered),
    }

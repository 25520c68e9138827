"""Sharded experiment scheduler: split experiment tasks across machines.

PR 1 made the experiment drivers fan ``(provider, field)`` tasks over a
process pool; this module splits the same task graph across *jobs or
machines*.  A shard is ``REPRO_SHARD=i/N``: the canonical task list of an
experiment (exactly the order an unsharded run visits) is
partitioned deterministically, shard ``i`` runs every task whose
canonical position is ``i (mod N)``, and the per-shard partial results
serialize to a file.  ``repro-shard merge`` reassembles partials into the
canonical order, so the merged result list — and every table rendered
from it — is **byte-identical** to the unsharded run (enforced by
``tests/harness/test_sharding.py`` and
``benchmarks/shard_equivalence_check.py``).

Task keys are string tuples whose shape belongs to the experiment: the
table experiments use ``(provider, field)``, the Section 7.4 robustness
experiment ``(provider, field, seed-label)``, the ablation experiment
``(mechanism, provider, field)``.  Each registered
:class:`Experiment` carries a ``result_key`` projecting one driver result
back onto its task — the scheduler itself never interprets key
components, so every bench of the suite is schedulable through one
registry.

The decomposition is blocked partitioning: tasks are independent,
assignment is a pure function of canonical position, and the merge is a
deterministic reorder, never a reduction.  Inside a shard the ordinary
``REPRO_JOBS`` pool still applies, so a two-machine, eight-core run
shards twice and forks eight ways.

Round-robin assignment balances task *counts*, not seconds; it is the
only scheduler.  Shards on one machine that share a ``REPRO_STORE_DIR``
share a single warm sqlite store (:mod:`repro.store`) — programs
trained by one shard are hits for the rest.

Command line (installed as ``repro-shard``)::

    repro-shard tasks                                  # registry summary
    repro-shard tasks --experiment robustness --shards 3
    REPRO_SCALE=0.15 repro-shard run --experiment m2h --shard 0/3 \
        --out part0.pkl
    repro-shard merge part*.pkl --out merged.pkl --table table.txt \
        --timing-json benchmarks/results/BENCH_synthesis_speed.json
    repro-shard retry part0.pkl part2.pkl --out residual.pkl
    repro-shard diff merged.pkl baseline.pkl

Partial files embed a digest of (experiment, task graph, seed, scale), so
merging partials from incompatible configurations fails loudly instead of
producing a quietly wrong table.  When a shard job dies, ``merge``
reports the exact residual task set and the ``retry`` command that reruns
it: ``retry`` reads the surviving partials, runs precisely the missing
tasks, and writes a residual partial that completes the merge — still
byte-identical to an unsharded run.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

PARTIAL_SCHEMA = 1

# A canonical task: a tuple of strings whose length/meaning is fixed per
# experiment (see the module docstring).
TaskKey = tuple[str, ...]


# ----------------------------------------------------------------------
# Shard specification (the REPRO_SHARD knob)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One shard of an ``N``-way split: ``index`` in ``range(count)``."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index must be in [0, {self.count}), got {self.index}"
            )

    def owns(self, position: int) -> bool:
        """Whether the task at canonical ``position`` belongs to this shard."""
        return position % self.count == self.index

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


FULL_RUN = ShardSpec(0, 1)


def parse_shard(text: str) -> ShardSpec:
    """Parse ``"i/N"`` (e.g. ``0/2``, ``2/3``) into a :class:`ShardSpec`."""
    head, sep, tail = text.strip().partition("/")
    try:
        if not sep:
            raise ValueError
        spec = ShardSpec(int(head), int(tail))
    except ValueError:
        raise ValueError(
            f"shard must look like i/N with 0 <= i < N, got {text!r}"
        ) from None
    return spec


def env_shard() -> ShardSpec:
    """The shard from ``REPRO_SHARD`` (default ``0/1`` = the whole graph)."""
    raw = os.environ.get("REPRO_SHARD", "").strip()
    if not raw:
        return FULL_RUN
    return parse_shard(raw)


def resolve_shard(shard: "ShardSpec | str | None") -> ShardSpec:
    """Normalize an explicit shard argument, falling back to the env knob."""
    if shard is None:
        return env_shard()
    if isinstance(shard, str):
        return parse_shard(shard)
    return shard


def assign(tasks: Sequence[TaskKey], shard: ShardSpec) -> list[TaskKey]:
    """The sub-list of canonical ``tasks`` owned by ``shard``.

    Assignment is round-robin over canonical position — a pure function of
    the task's place in the canonical enumeration, never of runtime state —
    so every shard of a split agrees on ownership without coordination,
    shards are balanced to within one task, and a provider's owned tasks
    stay consecutive (the one-corpus ``runner.held`` slot still applies
    inside a shard).  ``count > len(tasks)`` simply leaves the
    surplus shards empty.
    """
    return [task for i, task in enumerate(tasks) if shard.owns(i)]


# ----------------------------------------------------------------------
# Experiment registry (task graphs + method sets + drivers)
# ----------------------------------------------------------------------
def field_task_key(result) -> TaskKey:
    """The default result→task projection: ``(provider, field)``."""
    return (result.provider, result.field)


def _no_extra_config() -> str:
    return ""


@dataclass(frozen=True)
class Experiment:
    """One schedulable experiment: canonical task graph plus driver.

    ``result_key`` projects one driver result back onto the canonical
    task that produced it — the scheduler groups, validates and reorders
    results purely through this projection, so experiments are free to
    shape their task keys however their axes demand.

    ``config`` names any extra environment the experiment's scores depend
    on beyond (graph, seed, scale, methods) — e.g. the forge's corpus-size
    knob, which changes scores without changing the task graph.  The
    string is folded into the split digest so partials generated under
    different configurations refuse to merge.
    """

    name: str
    settings: Callable[[], tuple[str, ...]]
    tasks: Callable[[], list[TaskKey]]
    methods: Callable[[], list]
    # run(methods, tasks, seed) -> list[FieldResult] in task order
    run: Callable[[list, list[TaskKey], int], list]
    result_key: Callable[[Any], TaskKey] = field_task_key
    config: Callable[[], str] = _no_extra_config


def _lazy(path: str) -> Callable:
    """The callable ``module:name``, imported on first call, so loading
    the registry imports no experiment code."""
    module_name, _, name = path.partition(":")

    def call(*args, **kwargs):
        module = importlib.import_module(module_name)
        return getattr(module, name)(*args, **kwargs)

    return call


def _constant(path: str) -> Callable[[], Any]:
    """A zero-argument getter for the constant ``module:name``."""
    module_name, _, name = path.partition(":")
    return lambda: getattr(importlib.import_module(module_name), name)


def _driver(path: str) -> Callable[[list, list[TaskKey], int], list]:
    """``run(methods, tasks, seed)`` for a driver ``module:function``."""
    driver = _lazy(path)
    return lambda methods, tasks, seed: driver(
        methods, seed=seed, tasks=tasks
    )


def _m2h_methods() -> list:
    from repro.harness.runner import (
        ForgivingXPathsMethod,
        LrsynHtmlMethod,
        NdsynMethod,
    )

    return [ForgivingXPathsMethod(), NdsynMethod(), LrsynHtmlMethod()]


def _image_methods() -> list:
    from repro.harness.images import AfrMethod, LrsynImageMethod

    return [AfrMethod(), LrsynImageMethod()]


def _robustness_methods() -> list:
    from repro.harness.runner import LrsynHtmlMethod

    return [LrsynHtmlMethod()]


def _robustness_result_key(result) -> TaskKey:
    # The seed label travels in the setting slot.
    return (result.provider, result.field, result.setting)


def _ablation_result_key(result) -> TaskKey:
    # The mechanism travels in the setting slot.
    return (result.setting, result.provider, result.field)


def _contemporary_only() -> tuple[str, ...]:
    from repro.datasets.base import CONTEMPORARY

    return (CONTEMPORARY,)


EXPERIMENTS: dict[str, Experiment] = {
    "m2h": Experiment(
        "m2h", _constant("repro.datasets.base:SETTINGS"),
        _lazy("repro.harness.runner:m2h_tasks"), _m2h_methods,
        _driver("repro.harness.runner:run_m2h_experiment"),
    ),
    "finance": Experiment(
        "finance", _contemporary_only,
        _lazy("repro.harness.images:finance_tasks"), _image_methods,
        _driver("repro.harness.images:run_finance_experiment"),
    ),
    "m2h_images": Experiment(
        "m2h_images", _contemporary_only,
        _lazy("repro.harness.images:m2h_images_tasks"), _image_methods,
        _driver("repro.harness.images:run_m2h_images_experiment"),
    ),
    "robustness": Experiment(
        "robustness",
        _constant("repro.harness.runner:ROBUSTNESS_SETTINGS"),
        _lazy("repro.harness.runner:robustness_tasks"),
        _robustness_methods,
        _driver("repro.harness.runner:run_m2h_robustness_experiment"),
        _robustness_result_key,
    ),
    "ablations": Experiment(
        "ablations",
        _constant("repro.harness.ablations:ABLATION_SETTINGS"),
        _lazy("repro.harness.ablations:ablation_tasks"),
        _lazy("repro.harness.ablations:ablation_methods"),
        _driver("repro.harness.ablations:run_ablations_experiment"),
        _ablation_result_key,
    ),
    # The synthetic document forge (repro.datasets.forge): as many
    # providers as REPRO_FORGE_PROVIDERS asks for, corpus sizes from
    # REPRO_FORGE_DOCS — the store/scheduler stress workloads.
    "forge_html": Experiment(
        "forge_html", _constant("repro.datasets.base:SETTINGS"),
        _lazy("repro.harness.forge:forge_html_tasks"),
        _lazy("repro.harness.forge:forge_html_methods"),
        _driver("repro.harness.forge:run_forge_html_experiment"),
        config=_lazy("repro.datasets.forge:config_fingerprint"),
    ),
    "forge_images": Experiment(
        "forge_images", _contemporary_only,
        _lazy("repro.harness.forge:forge_image_tasks"),
        _lazy("repro.harness.forge:forge_image_methods"),
        _driver("repro.harness.forge:run_forge_images_experiment"),
        config=_lazy("repro.datasets.forge:config_fingerprint"),
    ),
}


def get_experiment(name: str) -> Experiment:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {name!r} (known: {known})")


# ----------------------------------------------------------------------
# Partial results: run one shard, serialize, merge
# ----------------------------------------------------------------------
class IncompleteMergeError(ValueError):
    """Partials do not cover the task graph (a shard job died or is lost).

    Carries the exact residual: ``missing`` is the uncovered tasks in
    canonical order — precisely what ``repro-shard retry`` (or
    :func:`retry_partial`) will rerun.
    """

    def __init__(self, missing: list[TaskKey]):
        self.missing = missing
        super().__init__(
            f"incomplete merge: {len(missing)} tasks unowned"
            f" (first missing: {missing[0]})"
        )
def _graph_digest(
    experiment: str,
    graph: Sequence[TaskKey],
    seed: int,
    scale: float,
    method_names: Sequence[str],
    config: str = "",
) -> str:
    """Compatibility fingerprint for a shard split.

    Two partials merge only when they agree on experiment, the full
    canonical graph, the method set, the corpus seed, the dataset
    scale and any experiment-specific ``config`` string — everything that
    determines the task set and its scores.  (Shard geometry is
    deliberately *not* part of the digest: a 2-way and a 3-way split of
    the same run share it, which is what lets ``diff`` compare a merged
    run against an unsharded baseline.)
    """
    hasher = hashlib.sha256()
    hasher.update(f"schema={PARTIAL_SCHEMA}|{experiment}".encode())
    hasher.update(f"|seed={seed}|scale={scale!r}".encode())
    hasher.update(("|methods=" + ",".join(method_names)).encode())
    if config:
        # Only hashed when present, keeping every config-free experiment's
        # digests byte-compatible with partials from earlier versions.
        hasher.update(f"|config={config}".encode())
    for task in graph:
        # ":".join keeps 2-tuple digests byte-compatible with the
        # pre-generalization format.
        hasher.update(("|" + ":".join(task)).encode())
    return hasher.hexdigest()


def run_shard(
    experiment: str,
    shard: "ShardSpec | str | None" = None,
    seed: int = 0,
    *,
    methods: list | None = None,
    graph: Sequence[TaskKey] | None = None,
    owned: Sequence[TaskKey] | None = None,
    run: Callable[[list, list[TaskKey], int], list] | None = None,
) -> dict:
    """Run one shard of ``experiment`` and return its partial-result dict.

    The keyword overrides exist for the test suite (smaller graphs, custom
    method sets, arbitrary task partitions); the CLI always runs the
    registered full graph.  ``owned`` overrides the round-robin assignment
    with an explicit task set — ownership validation then happens at merge
    time, where the union over partials must cover the graph exactly once.

    The partial records observed per-task wall-clock (``task_seconds``).
    """
    from repro.core.caching import StageTimer, use_timer
    from repro.harness.runner import flush_corpus_store, scale

    spec = resolve_shard(shard)
    registered = get_experiment(experiment)
    graph = list(graph if graph is not None else registered.tasks())
    owned = list(owned if owned is not None else assign(graph, spec))
    methods = methods if methods is not None else registered.methods()
    run = run if run is not None else registered.run

    timer = StageTimer()
    start = time.perf_counter()
    with use_timer(timer):
        results = run(methods, owned, seed)
    wall = time.perf_counter() - start
    flush_corpus_store()

    grouped: dict[TaskKey, list] = {task: [] for task in owned}
    for result in results:
        key = registered.result_key(result)
        if key not in grouped:
            raise RuntimeError(
                f"driver returned result for unowned task {key}"
            )
        grouped[key].append(result)
    task_seconds = {
        task: seconds
        for task, seconds in timer.tasks.items()
        if task in grouped
    }
    method_names = [method.name for method in methods]
    return {
        "schema": PARTIAL_SCHEMA,
        "experiment": experiment,
        "shard": (spec.index, spec.count),
        "seed": seed,
        "scale": scale(),
        "graph": graph,
        "graph_digest": _graph_digest(
            experiment, graph, seed, scale(), method_names,
            registered.config(),
        ),
        "owned": owned,
        "methods": method_names,
        "results": grouped,
        "wall_seconds": wall,
        "task_seconds": task_seconds,
        "timer": timer.snapshot(),
    }


def save_partial(path: "str | os.PathLike", partial: dict) -> None:
    """Serialize a partial, dropping non-picklable extractors first.

    The write is atomic (tmp + ``os.replace``), so a *live* writer never
    exposes a torn file.  A torn partial on disk therefore always means a
    crashed writer; merge skips it, reports the exact residual, and
    ``retry`` reruns precisely the tasks it failed to carry.
    """
    from repro.harness.runner import _transportable

    payload = dict(partial)
    payload["results"] = {
        task: [_transportable(result) for result in results]
        for task, results in partial["results"].items()
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = pickle.dumps(payload)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(blob)
    os.replace(tmp, path)


def load_partial(path: "str | os.PathLike") -> dict:
    with open(path, "rb") as handle:
        partial = pickle.load(handle)
    if not isinstance(partial, dict) or partial.get("schema") != PARTIAL_SCHEMA:
        raise ValueError(f"{path}: not a repro-shard partial (schema mismatch)")
    return partial


def merge_partials(partials: Sequence[dict]) -> dict:
    """Merge shard partials into one full-coverage result set.

    Validates that every partial belongs to the same split (graph digest),
    that ownership tiles the graph — each canonical task claimed by
    exactly one partial, none missing, none duplicated — and reassembles
    results in canonical task order, which makes the merged list (and any
    table rendered from it) independent of how tasks were distributed or
    in which order the partials are supplied.
    """
    if not partials:
        raise ValueError("nothing to merge: no partials given")
    _check_same_split(partials)
    first = partials[0]
    graph = [tuple(task) for task in first["graph"]]
    owner_of: dict[TaskKey, int] = {}
    for position, partial in enumerate(partials):
        owned_set = set()
        for task in partial["owned"]:
            task = tuple(task)
            if task in owner_of:
                raise ValueError(
                    f"task {task} owned by two partials"
                    f" (#{owner_of[task]} and #{position})"
                )
            owner_of[task] = position
            owned_set.add(task)
        unowned_results = [
            task for task in partial["results"]
            if tuple(task) not in owned_set
        ]
        if unowned_results:
            # A results entry outside the owned list would otherwise
            # silently overwrite the rightful owner's rows.
            raise ValueError(
                f"partial #{position} carries results for tasks it does"
                f" not own: {sorted(map(tuple, unowned_results))[:3]}"
            )
    missing = [task for task in graph if task not in owner_of]
    if missing:
        raise IncompleteMergeError(missing)
    stray = sorted(set(owner_of) - set(graph))
    if stray:
        raise ValueError(f"partials own tasks outside the graph: {stray[:3]}")

    from repro.core.caching import StageTimer

    merged_results: dict[TaskKey, list] = {}
    task_seconds: dict[TaskKey, float] = {}
    timer = StageTimer()
    wall = 0.0
    for partial in partials:
        for task, results in partial["results"].items():
            merged_results[tuple(task)] = results
        for task, seconds in partial.get("task_seconds", {}).items():
            task_seconds[tuple(task)] = seconds
        timer.merge(partial.get("timer", {}))
        wall += partial.get("wall_seconds", 0.0)
    return {
        "schema": PARTIAL_SCHEMA,
        "experiment": first["experiment"],
        "shard": (0, 1),
        "seed": first["seed"],
        "scale": first["scale"],
        "graph": graph,
        "graph_digest": first["graph_digest"],
        "owned": graph,
        "methods": list(first.get("methods", [])),
        "results": merged_results,
        "wall_seconds": wall,
        "task_seconds": task_seconds,
        "timer": timer.snapshot(),
    }


def _check_same_split(partials: Sequence[dict]) -> None:
    """Every partial must share the first one's graph digest."""
    first = partials[0]
    for partial in partials[1:]:
        if partial["graph_digest"] != first["graph_digest"]:
            raise ValueError(
                "incompatible partials: "
                f"{partial['experiment']} seed={partial['seed']} "
                f"scale={partial['scale']} vs "
                f"{first['experiment']} seed={first['seed']} "
                f"scale={first['scale']}"
            )


def residual_tasks(partials: Sequence[dict]) -> list[TaskKey]:
    """The canonical tasks no surviving partial owns (empty = complete)."""
    if not partials:
        raise ValueError("no partials: cannot derive the task graph")
    _check_same_split(partials)
    owned = {
        tuple(task) for partial in partials for task in partial["owned"]
    }
    return [
        task
        for task in (tuple(t) for t in partials[0]["graph"])
        if task not in owned
    ]


def retry_partial(
    partials: Sequence[dict],
    *,
    methods: list | None = None,
    run: Callable[[list, list[TaskKey], int], list] | None = None,
) -> dict:
    """Rerun exactly the tasks missing from ``partials``.

    The requeue half of the retry story: surviving partials define the
    split (experiment, graph, seed, scale), the residual task set is
    everything they do not cover, and the returned partial owns precisely
    that set — so ``merge_partials([*partials, residual])`` completes to
    the byte-identical full table.  The keyword overrides mirror
    :func:`run_shard` (test-sized graphs).

    Raises :class:`ValueError` when there is nothing to retry, when the
    current ``REPRO_SCALE`` does not match the partials' recorded scale,
    or when the rerun's configuration no longer digests to the same split
    (e.g. the method set changed since the original run).
    """
    from repro.harness.runner import scale

    missing = residual_tasks(partials)
    if not missing:
        raise ValueError(
            "nothing to retry: partials already cover the task graph"
        )
    first = partials[0]
    if scale() != first["scale"]:
        raise ValueError(
            f"scale mismatch: partials ran at REPRO_SCALE={first['scale']}"
            f" but the current scale is {scale()};"
            " set REPRO_SCALE to match before retrying"
        )
    graph = [tuple(task) for task in first["graph"]]
    # Validate the digest *before* rerunning anything: the residual may
    # be hours of synthesis, and an incompatible configuration (changed
    # method set / task graph) is knowable up front.
    registered = get_experiment(first["experiment"])
    if methods is None:
        methods = registered.methods()
    expected = _graph_digest(
        first["experiment"],
        graph,
        first["seed"],
        scale(),
        [method.name for method in methods],
        registered.config(),
    )
    if expected != first["graph_digest"]:
        raise ValueError(
            "cannot retry: the experiment configuration (method set /"
            " task graph) changed since the original shards ran — the"
            " residual would not merge"
        )
    return run_shard(
        first["experiment"],
        FULL_RUN,
        seed=first["seed"],
        methods=methods,
        graph=graph,
        owned=missing,
        run=run,
    )


def flat_results(partial: dict) -> list:
    """The partial's results flattened in canonical task order."""
    owned = {tuple(task) for task in partial["owned"]}
    ordered = []
    for task in partial["graph"]:
        task = tuple(task)
        if task in owned:
            ordered.extend(partial["results"].get(task, []))
    return ordered


# ----------------------------------------------------------------------
# Rendering and comparison
# ----------------------------------------------------------------------
def canonical_scores(results: Sequence) -> str:
    """A byte-stable dump of every score, for equivalence comparison.

    Full ``repr`` precision on the float metrics: two runs compare equal
    here only if their scores are *bit*-identical, not merely rounded
    alike.
    """
    lines = []
    for r in results:
        metrics = " ".join(
            "NaN" if math.isnan(value) else repr(value)
            for value in (r.precision, r.recall, r.f1)
        )
        lines.append(
            f"{r.method}\t{r.provider}\t{r.field}\t{r.setting}\t{metrics}"
        )
    return "\n".join(lines) + "\n"


def render_tables(partial: dict) -> str:
    """Paper-style tables for a partial/merged result set."""
    from repro.harness.reporting import overall_scores_table, per_field_table

    experiment = get_experiment(partial["experiment"])
    settings = experiment.settings()
    # The partial records the method set it actually ran (the digest pins
    # it at merge time); fall back to the registry for older files.
    methods = partial.get("methods") or [
        method.name for method in experiment.methods()
    ]
    methods = list(dict.fromkeys(methods))
    results = flat_results(partial)
    shard = ShardSpec(*partial["shard"])
    label = "" if shard == FULL_RUN else f" [shard {shard}]"
    blocks = [
        overall_scores_table(
            results,
            methods,
            setting,
            f"{partial['experiment']}{label} overall ({setting})",
        )
        for setting in settings
    ]
    blocks.append(
        per_field_table(
            results,
            methods,
            settings,
            f"{partial['experiment']}{label} per field",
        )
    )
    return "\n\n".join(blocks)


def diff_partials(left: dict, right: dict) -> str | None:
    """``None`` when two result sets are byte-identical, else a summary."""
    if left["graph_digest"] != right["graph_digest"]:
        return (
            "different splits: "
            f"{left['experiment']}/seed={left['seed']}/scale={left['scale']}"
            " vs "
            f"{right['experiment']}/seed={right['seed']}/scale={right['scale']}"
        )
    left_scores = canonical_scores(flat_results(left))
    right_scores = canonical_scores(flat_results(right))
    if left_scores == right_scores:
        return None
    left_lines = left_scores.splitlines()
    right_lines = right_scores.splitlines()
    if len(left_lines) != len(right_lines):
        return (
            f"result counts differ: {len(left_lines)} vs {len(right_lines)}"
        )
    for a, b in zip(left_lines, right_lines):
        if a != b:
            return f"first differing row:\n  {a}\n  {b}"
    return "score dumps differ"


# ----------------------------------------------------------------------
# CLI (the ``repro-shard`` console script)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-shard",
        description=(
            "Partition an experiment's field tasks into shards, run them"
            " on separate jobs/machines, and merge the partial results"
            " into tables byte-identical to an unsharded run."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tasks_cmd = sub.add_parser(
        "tasks", help="list the canonical task graph and shard assignment"
    )
    tasks_cmd.add_argument(
        "--experiment",
        default=None,
        choices=sorted(EXPERIMENTS),
        help="experiment to list (default: summarize every experiment)",
    )
    tasks_cmd.add_argument("--shards", type=int, default=1)

    run_cmd = sub.add_parser(
        "run", help="run one shard and write its partial-result file"
    )
    run_cmd.add_argument(
        "--experiment", required=True, choices=sorted(EXPERIMENTS)
    )
    run_cmd.add_argument(
        "--shard",
        default=None,
        help="i/N (default: REPRO_SHARD, else the whole graph)",
    )
    run_cmd.add_argument("--seed", type=int, default=0)
    run_cmd.add_argument("--out", required=True)

    merge_cmd = sub.add_parser(
        "merge", help="merge shard partials into one result file"
    )
    merge_cmd.add_argument("partials", nargs="+")
    merge_cmd.add_argument("--out", required=True)
    merge_cmd.add_argument(
        "--table", default=None, help="also write rendered tables here"
    )
    merge_cmd.add_argument(
        "--timing-json",
        default=None,
        help="append the merged wall-clock/stage timings to this trajectory",
    )

    retry_cmd = sub.add_parser(
        "retry",
        help=(
            "rerun the tasks missing from the surviving partials and"
            " write a residual partial that completes the merge"
        ),
    )
    retry_cmd.add_argument("partials", nargs="+")
    retry_cmd.add_argument("--out", required=True)

    diff_cmd = sub.add_parser(
        "diff", help="compare two partial/merged files for score identity"
    )
    diff_cmd.add_argument("left")
    diff_cmd.add_argument("right")

    args = parser.parse_args(argv)

    if args.command == "tasks":
        if args.experiment is None:
            for name, experiment in EXPERIMENTS.items():
                graph = experiment.tasks()
                names = ", ".join(
                    dict.fromkeys(m.name for m in experiment.methods())
                )
                print(f"{name}: {len(graph)} tasks (methods: {names})")
            return 0
        experiment = get_experiment(args.experiment)
        graph = experiment.tasks()
        shards = ShardSpec(0, max(1, args.shards)).count
        print(f"{args.experiment}: {len(graph)} tasks, {shards} shard(s)")
        for position, task in enumerate(graph):
            print(
                f"  [{position:3d}] shard {position % shards}/{shards}"
                f"  {' / '.join(task)}"
            )
        return 0

    if args.command == "run":
        spec = resolve_shard(args.shard)
        partial = run_shard(args.experiment, spec, seed=args.seed)
        save_partial(args.out, partial)
        count = sum(len(r) for r in partial["results"].values())
        print(
            f"shard {spec} of {args.experiment}:"
            f" {len(partial['owned'])}/{len(partial['graph'])} tasks,"
            f" {count} results, {partial['wall_seconds']:.2f}s"
            f" -> {args.out}"
        )
        return 0

    if args.command == "merge":
        partials, skipped = _load_partials_tolerant(args.partials)
        if not partials:
            print("MERGE FAILED: no readable partials")
            return 1
        loaded_paths = [path for path, _ in partials]
        try:
            merged = merge_partials([partial for _, partial in partials])
        except IncompleteMergeError as err:
            print(
                f"MERGE INCOMPLETE: {len(err.missing)} task(s) have no"
                " surviving partial"
                + (f" ({len(skipped)} file(s) unreadable)" if skipped else "")
            )
            for task in err.missing:
                print(f"  missing: {' / '.join(task)}")
            survivors = " ".join(loaded_paths)
            # The recipe must be copy-pasteable: pin the recorded scale
            # (retry refuses a mismatch) and carry the merge options.
            scale_prefix = f"REPRO_SCALE={partials[0][1]['scale']} "
            merge_options = ""
            if args.table:
                merge_options += f" --table {args.table}"
            if args.timing_json:
                merge_options += f" --timing-json {args.timing_json}"
            print("rerun exactly the residual tasks with:")
            print(
                f"  {scale_prefix}repro-shard retry {survivors}"
                " --out residual.pkl"
            )
            print(
                f"  repro-shard merge {survivors} residual.pkl"
                f" --out {args.out}{merge_options}"
            )
            return 1
        save_partial(args.out, merged)
        if args.table:
            Path(args.table).write_text(render_tables(merged) + "\n")
        if args.timing_json:
            from repro.harness.reporting import record_synthesis_speed

            record_synthesis_speed(
                args.timing_json,
                f"{merged['experiment']}[merged x{len(partials)}]",
                merged["wall_seconds"],
                merged["timer"],
                scale=merged["scale"],
                shards=len(partials),
            )
        count = sum(len(r) for r in merged["results"].values())
        print(
            f"merged {len(partials)} partials of {merged['experiment']}:"
            f" {len(merged['graph'])} tasks, {count} results -> {args.out}"
        )
        return 0

    if args.command == "retry":
        partials, skipped = _load_partials_tolerant(args.partials)
        if not partials:
            print("RETRY FAILED: no readable partials to derive the split")
            return 1
        try:
            missing = residual_tasks([partial for _, partial in partials])
        except ValueError as err:
            print(f"RETRY FAILED: {err}")
            return 1
        if not missing:
            print(
                "nothing to retry: the given partials already cover the"
                " task graph"
            )
            return 0
        first = partials[0][1]
        print(
            f"retrying {len(missing)} task(s) of {first['experiment']}"
            f" (seed={first['seed']}, scale={first['scale']})"
            + (f"; {len(skipped)} partial file(s) unreadable" if skipped else "")
        )
        try:
            residual = retry_partial([partial for _, partial in partials])
        except ValueError as err:
            print(f"RETRY FAILED: {err}")
            return 1
        save_partial(args.out, residual)
        count = sum(len(r) for r in residual["results"].values())
        print(
            f"residual partial: {len(residual['owned'])} tasks,"
            f" {count} results, {residual['wall_seconds']:.2f}s"
            f" -> {args.out}"
        )
        return 0

    if args.command == "diff":
        left = load_partial(args.left)
        right = load_partial(args.right)
        verdict = diff_partials(left, right)
        if verdict is None:
            print(f"identical: {args.left} == {args.right}")
            return 0
        print(f"MISMATCH: {verdict}")
        return 1

    return 2  # pragma: no cover - argparse enforces the choices


def _load_partials_tolerant(
    paths: Sequence[str],
) -> tuple[list[tuple[str, dict]], list[str]]:
    """Load every readable partial; report the rest instead of dying.

    A crashed shard job leaves a missing or truncated file — exactly the
    situation ``merge``/``retry`` must diagnose, so unreadable inputs
    become warnings and the survivors carry on.
    """
    loaded: list[tuple[str, dict]] = []
    skipped: list[str] = []
    for path in paths:
        try:
            loaded.append((path, load_partial(path)))
        except (OSError, ValueError, pickle.UnpicklingError, EOFError) as err:
            print(f"WARNING: skipping unreadable partial {path}: {err}")
            skipped.append(path)
    return loaded, skipped


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

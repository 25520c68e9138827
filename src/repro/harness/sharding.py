"""Experiment registry and whole-experiment runs (the ``repro-shard`` CLI).

Every bench of the suite is one registered :class:`Experiment`: a
canonical task graph, a method set and a driver.  :func:`run_experiment`
runs the whole graph in one process — the ordinary ``REPRO_JOBS`` pool
still fans its tasks over local workers, in the same order — and returns
a partial-result dict that serializes to a file; :func:`diff_partials`
compares two such files for score identity.  A crashed run is recovered
by rerunning the experiment.

Task keys are string tuples whose shape belongs to the experiment: the
table experiments use ``(provider, field)``, the Section 7.4 robustness
experiment ``(provider, field, seed-label)``, the ablation experiment
``(mechanism, provider, field)``.  Each registered
:class:`Experiment` carries a ``result_key`` projecting one driver result
back onto its task — the runner itself never interprets key components.

Command line (installed as ``repro-shard``)::

    repro-shard tasks                                  # registry summary
    repro-shard tasks --experiment robustness          # one task graph
    REPRO_SCALE=0.15 repro-shard run --experiment m2h --out m2h.pkl
    repro-shard diff m2h.pkl baseline.pkl

Partial files embed a digest of (experiment, task graph, seed, scale,
methods, experiment config), so ``diff`` refuses to compare runs of
different configurations instead of reporting a quietly wrong verdict.
The file layout (``PARTIAL_SCHEMA`` 1) still carries the ``shard`` and
``owned`` fields of older, split-capable versions — always ``(0, 1)``
and the whole graph — so files from either version diff against each
other.
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
    task that produced it — :func:`run_experiment` groups results purely
    through this projection, so experiments are free to shape their task
    keys however their axes demand.

    ``config`` names any extra environment the experiment's scores depend
    on beyond (graph, seed, scale, methods) — e.g. the forge's corpus-size
    knob, which changes scores without changing the task graph.  The
    string is folded into the graph digest so ``diff`` refuses partials
    generated under different configurations.
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
    # REPRO_FORGE_DOCS — the store/harness stress workloads.
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
# Partial results: run an experiment, serialize, load
# ----------------------------------------------------------------------
def _graph_digest(
    experiment: str,
    graph: Sequence[TaskKey],
    seed: int,
    scale: float,
    method_names: Sequence[str],
    config: str = "",
) -> str:
    """Compatibility fingerprint of a run.

    Two partials compare only when they agree on experiment, the full
    canonical graph, the method set, the corpus seed, the dataset scale
    and any experiment-specific ``config`` string — everything that
    determines the task set and its scores.
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


def run_experiment(
    experiment: str,
    seed: int = 0,
    *,
    methods: list | None = None,
    graph: Sequence[TaskKey] | None = None,
    run: Callable[[list, list[TaskKey], int], list] | None = None,
) -> dict:
    """Run the whole task graph of ``experiment``; return its partial dict.

    The keyword overrides exist for the test suite (smaller graphs, custom
    method sets); the CLI always runs the registered graph.  The partial
    records observed per-task wall-clock (``task_seconds``).
    """
    from repro.core.caching import StageTimer, use_timer
    from repro.harness.runner import flush_corpus_store, scale

    registered = get_experiment(experiment)
    graph = list(graph if graph is not None else registered.tasks())
    methods = methods if methods is not None else registered.methods()
    run = run if run is not None else registered.run

    timer = StageTimer()
    start = time.perf_counter()
    with use_timer(timer):
        results = run(methods, graph, seed)
    wall = time.perf_counter() - start
    flush_corpus_store()

    grouped: dict[TaskKey, list] = {task: [] for task in graph}
    for result in results:
        key = registered.result_key(result)
        if key not in grouped:
            raise RuntimeError(
                f"driver returned result for task {key} outside the graph"
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
        "shard": (0, 1),
        "seed": seed,
        "scale": scale(),
        "graph": graph,
        "graph_digest": _graph_digest(
            experiment, graph, seed, scale(), method_names,
            registered.config(),
        ),
        "owned": graph,
        "methods": method_names,
        "results": grouped,
        "wall_seconds": wall,
        "task_seconds": task_seconds,
        "timer": timer.snapshot(),
    }


def save_partial(path: "str | os.PathLike", partial: dict) -> None:
    """Serialize a partial, dropping non-picklable extractors first.

    The write is atomic (tmp + ``os.replace``), so a reader never sees a
    torn file; a run that dies before the replace leaves no file at all.
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


def flat_results(partial: dict) -> list:
    """The partial's results flattened in canonical task order."""
    results = partial["results"]
    return [
        result
        for task in partial["graph"]
        for result in results.get(tuple(task), [])
    ]


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
    """Paper-style tables for a partial result set."""
    from repro.harness.reporting import overall_scores_table, per_field_table

    experiment = get_experiment(partial["experiment"])
    settings = experiment.settings()
    # The partial records the method set it actually ran (the digest pins
    # it); fall back to the registry for older files.
    methods = partial.get("methods") or [
        method.name for method in experiment.methods()
    ]
    methods = list(dict.fromkeys(methods))
    results = flat_results(partial)
    name = partial["experiment"]
    blocks = [
        overall_scores_table(
            results, methods, setting, f"{name} overall ({setting})"
        )
        for setting in settings
    ]
    blocks.append(
        per_field_table(results, methods, settings, f"{name} per field")
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
            "List an experiment's task graph, run the whole experiment"
            " into a partial-result file, or compare two such files for"
            " score identity."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tasks_cmd = sub.add_parser("tasks", help="list the canonical task graph")
    tasks_cmd.add_argument(
        "--experiment",
        default=None,
        choices=sorted(EXPERIMENTS),
        help="experiment to list (default: summarize every experiment)",
    )

    run_cmd = sub.add_parser(
        "run", help="run an experiment and write its partial-result file"
    )
    run_cmd.add_argument(
        "--experiment", required=True, choices=sorted(EXPERIMENTS)
    )
    run_cmd.add_argument("--seed", type=int, default=0)
    run_cmd.add_argument("--out", required=True)

    diff_cmd = sub.add_parser(
        "diff", help="compare two partial files for score identity"
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
        graph = get_experiment(args.experiment).tasks()
        print(f"{args.experiment}: {len(graph)} tasks")
        for position, task in enumerate(graph):
            print(f"  [{position:3d}]  {' / '.join(task)}")
        return 0

    if args.command == "run":
        partial = run_experiment(args.experiment, seed=args.seed)
        save_partial(args.out, partial)
        count = sum(len(r) for r in partial["results"].values())
        print(
            f"{args.experiment}: {len(partial['graph'])} tasks,"
            f" {count} results, {partial['wall_seconds']:.2f}s"
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


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

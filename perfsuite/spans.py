"""Span tracing of the program's layers, installed from outside ``src/``.

:func:`install` wraps the public entry points listed in :data:`TARGETS`
at every place they are bound: a function imported by name into another
module (``from repro.html.parser import parse_html``) is replaced in that
module too, and a method is replaced on its class.  Nothing inside the
program changes; time spent in code that no target covers stays with the
enclosing span, and time outside every target is reported as
``harness.unattributed_s``.

Every wrapped call adds its *self* time (its duration minus the time of
the wrapped calls nested inside it) to its op.  Self times therefore
never overlap, and for each process

    sum(op self times) + harness.unattributed_s == traced wall-clock.

Ops marked ``span`` are also kept as spans (name, start, end, parent) and
written as Chrome trace-event JSON; hot leaf ops (millions of calls) are
only aggregated.  Counters ride on observers at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = (
    "harness", "datasets", "html", "images", "core", "text", "baselines",
    "store", "serve",
)

# (op, "module:attribute" or "module:Class.method", keep spans)
TARGETS = (
    ("harness.train", "repro.harness.runner:train_method", True),
    ("harness.evaluate", "repro.harness.runner:evaluate_method", True),
    ("datasets.corpus", "repro.datasets.m2h:generate_corpus", True),
    ("datasets.corpus", "repro.datasets.finance:generate_corpus", True),
    ("datasets.corpus", "repro.datasets.forge:generate_corpus", True),
    ("html.parse", "repro.html.parser:parse_html", True),
    ("html.landmark", "repro.html.landmarks:landmark_candidates", True),
    ("html.region_synth", "repro.html.region_dsl:synthesize_region_program", True),
    ("html.value_synth", "repro.html.value_dsl:synthesize_value_program", True),
    ("core.lrsyn", "repro.core.synthesis:lrsyn", True),
    ("core.cluster", "repro.core.clustering:infer_landmarks_and_clusters", True),
    ("core.strategy", "repro.core.synthesis:synthesize_extraction_program", True),
    ("core.hierarchy", "repro.core.hierarchy:maybe_hierarchical", True),
    ("core.extract", "repro.core.dsl:ExtractionProgram.extract", False),
    ("images.landmark", "repro.images.landmarks:landmark_candidates", True),
    ("images.region_synth", "repro.images.region_dsl:synthesize_region_program", True),
    ("images.value_synth", "repro.images.value_dsl:synthesize_value_program", True),
    ("images.neighbor", "repro.images.boxes:ImageDocument.neighbor", False),
    ("text.value_synth", "repro.text.flashfill:synthesize_text_program", True),
    ("baselines.ndsyn_train", "repro.baselines.ndsyn:synthesize_ndsyn", True),
    ("baselines.fxp_train", "repro.baselines.forgiving_xpaths:synthesize_forgiving_xpaths", True),
    ("baselines.afr_train", "repro.baselines.afr:train_afr", True),
    ("store.get", "repro.store:BlueprintStore.get", False),
    ("store.put", "repro.store:BlueprintStore.put", False),
    ("store.flush", "repro.store:BlueprintStore.flush", True),
    ("store.flush", "repro.harness.runner:flush_corpus_store", True),
    ("store.read", "repro.store.sqlite:SqliteBackend.get_many", False),
    ("store.commit", "repro.store.sqlite:SqliteBackend.commit", True),
    ("serve.load_catalog", "repro.serve.router:load_catalog", True),
    ("serve.route", "repro.serve.router:Router.route", False),
    ("serve.route", "repro.serve.router:Router.lookup", False),
)

# Called hundreds of thousands of times per run: counted, never timed.
COUNTED = (("core.cache_enabled", "repro.core.caching:cache_enabled"),)


def _resolve(path: str):
    module_name, _, attribute = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = attribute.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class Tracer:
    """Per-thread span stacks folded into per-op self time and counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list = []
        self._lock = threading.Lock()
        self.counters: Counter = Counter()
        self.neighbor_keys: set = set()
        self.root_start: float | None = None
        self.root_end: float | None = None
        self._originals: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = {
                "stack": [], "self": defaultdict(float), "calls": Counter(),
                "spans": [], "tid": threading.get_ident(),
            }
            with self._lock:
                self._threads.append(state)
        return state

    def _wrap(self, op: str, fn, keep_span: bool, observe=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state["stack"]
            span_id = parent = None
            if keep_span:
                parent = next(
                    (f[1] for f in reversed(stack) if f[1] is not None), None
                )
                span_id = len(state["spans"])
                state["spans"].append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                state["self"][op] += duration - frame[0]
                state["calls"][op] += 1
                if stack:
                    stack[-1][0] += duration
                if keep_span:
                    state["spans"][span_id] = (op, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _count(self, op: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[op] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def root(self):
        """The traced wall-clock window."""
        self.root_start = time.perf_counter()
        try:
            yield
        finally:
            self.root_end = time.perf_counter()

    # -- observers (counts at the same boundaries) -----------------------
    def _observers(self) -> dict:
        from repro.store import BlueprintStore

        counters = self.counters
        neighbor_keys = self.neighbor_keys
        miss = BlueprintStore.MISS

        def parse(args, result):
            counters["html.parse_bytes"] += len(args[0])

        def neighbor(args, result):
            neighbor_keys.add((id(args[0]), id(args[1]), args[2]))

        def extract(args, result):
            if result is None:
                counters["core.abstain"] += 1

        def store_get(args, result):
            if result is not miss:
                counters["store.hit"] += 1

        def read(args, result):
            counters["store.bytes_read"] += sum(
                len(blob) for blob, _ in result.values()
            )

        def commit(args, result):
            counters["store.bytes_written"] += sum(row[5] for row in args[1])

        return {
            "html.parse": parse,
            "images.neighbor": neighbor,
            "core.extract": extract,
            "store.get": store_get,
            "store.read": read,
            "store.commit": commit,
        }

    # -- installation ----------------------------------------------------
    def install(self) -> "Tracer":
        """Patch every target at every binding among loaded modules."""
        observers = self._observers()
        replacements = {}
        for op, path, keep_span in TARGETS:
            owner, name = _resolve(path)
            original = getattr(owner, name)
            wrapped = self._wrap(op, original, keep_span, observers.get(op))
            replacements[id(original)] = (original, wrapped)
            self._originals.append((owner, name, original))
            setattr(owner, name, wrapped)
        for op, path in COUNTED:
            owner, name = _resolve(path)
            original = getattr(owner, name)
            wrapped = self._count(op, original)
            replacements[id(original)] = (original, wrapped)
            self._originals.append((owner, name, original))
            setattr(owner, name, wrapped)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._originals.append((module, attribute, value))
                    setattr(module, attribute, hit[1])
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    # -- reporting -------------------------------------------------------
    def op_self(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for state in self._threads:
            for op, seconds in state["self"].items():
                totals[op] += seconds
        return dict(totals)

    def op_calls(self) -> Counter:
        calls: Counter = Counter()
        for state in self._threads:
            calls.update(state["calls"])
        calls.update(self.counters)
        return calls

    def wall(self) -> float:
        return (self.root_end or time.perf_counter()) - self.root_start

    def layer_self(self) -> dict[str, float]:
        layers = {layer: 0.0 for layer in LAYERS}
        for op, seconds in self.op_self().items():
            layers[op.split(".", 1)[0]] += seconds
        return layers

    def unattributed(self) -> float:
        return self.wall() - sum(self.op_self().values())

    def write_chrome(self, path, pid: int) -> int:
        """Kept spans as Chrome trace-event JSON; returns the span count."""
        events = []
        origin = self.root_start
        for state in self._threads:
            for span_id, span in enumerate(state["spans"]):
                if span is None:
                    continue
                op, start, end, parent = span
                events.append({
                    "name": op,
                    "cat": op.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": pid,
                    "tid": state["tid"],
                    "args": {"id": span_id, "parent": parent},
                })
        events.append({
            "name": "harness.run", "cat": "harness", "ph": "X", "ts": 0.0,
            "dur": round(self.wall() * 1e6, 3), "pid": pid, "tid": 0,
            "args": {"id": "root", "parent": None},
        })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(events)

    def summary(self) -> dict:
        """JSON-ready raw figures; :func:`layer_metrics` names them."""
        return {
            "wall": self.wall(),
            "op_self": self.op_self(),
            "calls": dict(self.op_calls()),
            "layer_self": self.layer_self(),
            "unattributed": self.unattributed(),
            "neighbor_distinct": len(self.neighbor_keys),
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict, timer_counters: dict | None = None) -> dict:
    """The per-layer metrics of one traced process, by benchmark name."""
    op_self = summary["op_self"]
    calls = summary["calls"]
    counters = timer_counters or {}

    def seconds(*ops):
        return sum(op_self.get(op, 0.0) for op in ops)

    distance_hits = counters.get("cache.distance.hit", 0)
    distance_lookups = distance_hits + counters.get("cache.distance.miss", 0)
    metrics = {
        "datasets.corpus_s": seconds("datasets.corpus"),
        "html.parse_s": seconds("html.parse"),
        "html.parse_calls": calls.get("html.parse", 0),
        "html.parse_kb": calls.get("html.parse_bytes", 0) / 1024.0,
        "html.landmark_s": seconds("html.landmark"),
        "core.cluster_s": seconds("core.cluster"),
        "core.distance_pairs": distance_lookups,
        "core.distance_cache_hit_ratio": _ratio(distance_hits, distance_lookups),
        "core.cache_enabled_calls": calls.get("core.cache_enabled", 0),
        "images.region_synth_s": seconds("images.region_synth"),
        "images.neighbor_calls": calls.get("images.neighbor", 0),
        "images.neighbor_distinct_ratio": _ratio(
            summary["neighbor_distinct"], calls.get("images.neighbor", 0)
        ),
        "images.neighbor_s": seconds("images.neighbor"),
        "text.value_synth_s": seconds("text.value_synth"),
        "baselines.ndsyn_train_s": seconds("baselines.ndsyn_train"),
        "baselines.fxp_train_s": seconds("baselines.fxp_train"),
        "baselines.afr_train_s": seconds("baselines.afr_train"),
        "core.extract_s": seconds("core.extract"),
        "core.extract_calls": calls.get("core.extract", 0),
        "core.abstain_ratio": _ratio(
            calls.get("core.abstain", 0), calls.get("core.extract", 0)
        ),
        "store.flush_s": seconds("store.flush", "store.commit"),
        "store.bytes_written": calls.get("store.bytes_written", 0),
        "store.get_s": seconds("store.get", "store.read"),
        "store.hit_ratio": _ratio(
            calls.get("store.hit", 0), calls.get("store.get", 0)
        ),
        "store.bytes_read": calls.get("store.bytes_read", 0),
        "harness.unattributed_s": summary["unattributed"],
        "harness.traced_wall_s": summary["wall"],
    }
    for layer, value in summary["layer_self"].items():
        metrics[f"{layer}.self_s"] = value
    return metrics

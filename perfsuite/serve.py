"""The ``serve_open`` workload: open-loop load on a ``repro-serve`` process.

Set-up exports an ``m2h`` catalog (LRSyn programs for every M2H
provider and field, trained on the seeded corpus) into a fresh store,
builds the
request pool and computes every request's expected answer offline: the
same program, run in this process on the same document.  The pool mixes

* contemporary and drifted (longitudinal) documents of the catalog's
  providers, for every field;
* routed requests (no ``provider``: the server picks the program by
  blueprint distance) and explicit-``provider`` requests;
* foreign forge documents asking for forge fields, which must answer 404.

The load is open-loop: request ``i`` of a level is due at
``start + i / rate`` whatever happened to earlier requests, and is sent
on connection ``i % CONNECTIONS`` (HTTP/1.1 pipelining; responses are
matched in order).  Latency runs from the due time to the last byte of
the response, so a stall is charged to every request it delays.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import time
from collections import deque

from calib import at_reference, pin, quiet_cpu, spin_on

HERE = os.path.dirname(os.path.abspath(__file__))

# Pinned load levels, requests/second (also stated in BENCHMARK.json),
# and each level's share of the run.  The high level gets the larger
# share: its p99 needs the samples.
RATES = {"low": 60.0, "high": 150.0}
SHARE = {"low": 0.3, "high": 0.7}
# A level meets the service objective when its p90 stays within this
# (the p99 of one seed swings by 5x between runs on a shared host).
P90_LIMIT_MS = 25.0
# One client process, at most nproc (2) connections.
CONNECTIONS = 2
# Catalog: LRSyn programs for every M2H field, trained on TRAIN pages.
TRAIN, TEST = 8, 8
SETUP_SPAWNS = 8
WARMUP_SECONDS = 1.0


class ServeError(RuntimeError):
    pass


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


# ---------------------------------------------------------------------
# Catalog and request pool
# ---------------------------------------------------------------------
def build_pool(store_dir: str, seed: int) -> dict:
    """Export the catalog and return the request pool with expectations."""
    from repro.datasets import forge, m2h
    from repro.datasets.base import CONTEMPORARY, LONGITUDINAL
    from repro.harness.export import export_experiment
    from repro.harness.runner import (
        LrsynHtmlMethod, flush_corpus_store, m2h_corpora,
    )
    from repro.html.domain import HtmlDomain
    from repro.html.parser import parse_html
    from repro.serve.router import Router, load_catalog
    from repro.store import shared_store

    # The program store and the catalog are one store: export_field
    # trains through the process-wide store of REPRO_STORE_DIR.
    os.environ["REPRO_STORE_DIR"] = store_dir
    store = shared_store()
    export = export_experiment(
        "m2h", methods=[LrsynHtmlMethod()], train_size=TRAIN,
        test_size=TEST, seed=seed, store=store,
    )
    router = Router(load_catalog(store))
    domain = HtmlDomain()
    rng = random.Random(seed)

    documents = []  # (setting, provider, labeled document, fields)
    for provider in m2h.PROVIDERS:
        corpora = m2h_corpora(provider, TRAIN, TEST, seed)
        fields = m2h.fields_for(provider)
        for labeled in corpora[CONTEMPORARY].train + corpora[CONTEMPORARY].test:
            documents.append((CONTEMPORARY, provider, labeled, fields))
        for labeled in corpora[LONGITUDINAL].test:
            documents.append((LONGITUDINAL, provider, labeled, fields))
    foreign = forge.generate_corpus("forge000", train_size=1, test_size=4, seed=seed)
    for labeled in foreign.test:
        documents.append(
            ("foreign", "forge000", labeled, forge.fields_for("forge000")[:2])
        )

    pool = []
    for setting, provider, labeled, fields in documents:
        source = labeled.doc.source
        doc = parse_html(source)
        blueprint = domain.document_blueprint(doc)
        for field in fields:
            explicit = rng.random() < 0.5
            request = {"html": source, "field": field}
            if explicit:
                request["provider"] = provider
                entry, diagnostic = router.lookup(provider, field, None)
                distance = None
            else:
                entry, distance, diagnostic = router.route(field, blueprint, None)
            if entry is None:
                status, answer = 404, {"error": "no program", **diagnostic}
            else:
                status, answer = 200, {
                    "provider": entry.provider, "field": entry.field,
                    "method": entry.method,
                    "values": entry.extractor.extract(doc),
                }
                if distance is not None:
                    answer["distance"] = distance
            if (setting == "foreign") != (status == 404):
                raise ServeError(
                    f"pool: {setting} request for {provider}/{field}"
                    f" expects status {status}"
                )
            body = json.dumps(request).encode()
            pool.append({
                "setting": setting, "provider": provider, "field": field,
                "gold": labeled.gold(field) if status == 200 else None,
                "status": status,
                "answer": json.loads(json.dumps(answer)),
                "request": (
                    b"POST /extract HTTP/1.1\r\nHost: bench\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(body)
                ) + body,
            })
    order = list(range(len(pool)))
    rng.shuffle(order)
    flush_corpus_store()
    store.close()
    return {"pool": pool, "order": order, "exported": export["counts"]}


# ---------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------
class Server:
    """One ``serve_proc.py`` subprocess; :meth:`stop` drains and reaps it.

    A ``calibrated`` server is pinned to the quiet CPU and also states
    its set-up time at the reference speed (see ``calib.py``).
    """

    def __init__(self, env: dict, store_dir: str, workdir: str, name: str,
                 trace_path: str | None = None,
                 calibrated: bool = False) -> None:
        self.addr_file = os.path.join(workdir, f"{name}.addr")
        self.report_file = os.path.join(workdir, f"{name}.report.json")
        cpu, before = quiet_cpu() if calibrated else (None, 0.0)
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [
                sys.executable, os.path.join(HERE, "serve_proc.py"),
                self.report_file, trace_path or "-", "--",
                "--store-dir", store_dir, "run", "--port", "0",
                "--watch", "0", "--addr-file", self.addr_file,
            ],
            env=env, stdout=subprocess.DEVNULL, preexec_fn=pin(cpu),
        )
        try:
            self.host, self.port = self._address()
            self.setup_s = asyncio.run(self._healthy()) - self.spawned
            if calibrated:
                self.setup_cal_s = at_reference(
                    self.setup_s, before, spin_on(cpu)
                )
        except BaseException:
            self.kill()
            raise

    def _address(self) -> tuple[str, int]:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if os.path.exists(self.addr_file):
                text = open(self.addr_file).read().strip()
                if text:
                    host, port = text.removeprefix("http://").split(":")
                    return host, int(port)
            if self.proc.poll() is not None:
                raise ServeError(f"server exited at start ({self.proc.returncode})")
            time.sleep(0.002)
        raise ServeError("server never published its address")

    async def _healthy(self) -> float:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                status, _ = await self.get("/healthz")
            except OSError:
                status = None
            if status == 200:
                return time.monotonic()
            await asyncio.sleep(0.002)
        raise ServeError("server never answered /healthz")

    async def get(self, path: str, streams=None):
        reader, writer = streams or await asyncio.open_connection(
            self.host, self.port
        )
        try:
            writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
            await writer.drain()
            return await _read_response(reader)
        finally:
            if streams is None:
                writer.close()

    def stop(self) -> dict:
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServeError("server did not drain within 60 s")
        with open(self.report_file, encoding="utf-8") as handle:
            report = json.load(handle)
        if self.proc.returncode != 0 or report["exit"] != 0:
            raise ServeError(f"server exited {self.proc.returncode}")
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


async def _read_response(reader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length)


# ---------------------------------------------------------------------
# Open-loop generator
# ---------------------------------------------------------------------
async def _level(streams, requests: list[bytes], rate: float,
                 seconds: float) -> dict:
    """Send ``rate * seconds`` requests on schedule; collect every answer."""
    count = max(1, round(rate * seconds))
    answers: list = [None] * count
    sent = [0.0] * count
    backlog = [0] * count
    inflight = [deque() for _ in streams]
    done = {"n": 0}

    async def read(index):
        reader = streams[index][0]
        while True:
            status, raw = await _read_response(reader)
            i = inflight[index].popleft()
            answers[i] = (status, raw, time.monotonic())
            done["n"] += 1

    readers = [asyncio.ensure_future(read(i)) for i in range(len(streams))]
    start = time.monotonic() + 0.01
    for i in range(count):
        delay = start + i / rate - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        connection = i % len(streams)
        inflight[connection].append(i)
        streams[connection][1].write(requests[i % len(requests)])
        sent[i] = time.monotonic()
        backlog[i] = i + 1 - done["n"]
    deadline = time.monotonic() + 30
    while done["n"] < count and time.monotonic() < deadline:
        await asyncio.sleep(0.002)
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    due = [start + i / rate for i in range(count)]
    half = count // 2
    return {
        "rate": rate, "count": count, "start": start,
        "end": max((a[2] for a in answers if a), default=start),
        "answers": answers,
        "latency_ms": [(a[2] - d) * 1000 for a, d in zip(answers, due) if a],
        "second": [int(i / rate) for i, a in enumerate(answers) if a],
        "lag_ms": [(s - d) * 1000 for s, d in zip(sent, due)],
        "backlog_growth": (
            sum(backlog[half:]) / max(1, count - half)
            - sum(backlog[:half]) / max(1, half)
        ),
        "backlog_max": max(backlog),
    }


async def _session(server: Server, pool: dict, seconds: float) -> dict:
    """Warm-up, then every pinned level in order, on one set of streams."""
    order = pool["order"]
    requests = [pool["pool"][i]["request"] for i in order]
    streams = [
        await asyncio.open_connection(server.host, server.port)
        for _ in range(CONNECTIONS)
    ]
    try:
        await _level(streams, requests, RATES["low"], WARMUP_SECONDS)
        levels = {}
        for name, rate in RATES.items():
            status, raw = await server.get("/metrics", streams[0])
            before = json.loads(raw)["counters"]
            level = await _level(
                streams, requests, rate, seconds * SHARE[name]
            )
            status, raw = await server.get("/metrics", streams[0])
            after = json.loads(raw)["counters"]
            level["counters"] = {
                key: after.get(key, 0) - before.get(key, 0) for key in after
            }
            levels[name] = level
        return levels
    finally:
        for _, writer in streams:
            writer.close()


def _check(pool: dict, levels: dict) -> dict:
    """Compare every answer with the offline one; score served values."""
    entries, order = pool["pool"], pool["order"]
    failed = attempted = 0
    first: dict[int, list] = {}
    for level in levels.values():
        for i, answer in enumerate(level["answers"]):
            attempted += 1
            index = order[i % len(order)]
            expected = entries[index]
            if answer is None or answer[0] != expected["status"]:
                failed += 1
                continue
            values = json.loads(answer[1])
            if values != expected["answer"]:
                failed += 1
                continue
            first.setdefault(index, values.get("values"))
    from repro.core.metrics import Score, score_document

    per_task: dict = {}
    for index, served in first.items():
        entry = entries[index]
        if entry["gold"] is None:
            continue
        key = (entry["setting"], entry["provider"], entry["field"])
        per_task[key] = per_task.get(key, Score()) + score_document(
            served, entry["gold"]
        )
    f1: dict[str, list[float]] = {}
    for (setting, _, _), score in per_task.items():
        f1.setdefault(setting, []).append(score.f1)
    return {
        "attempted": attempted, "failed": failed,
        "lrsyn_f1": {s: sum(v) / len(v) for s, v in f1.items()},
        "distinct_answered": len(first),
    }


def _p90_by_second(level: dict) -> float:
    """Median over the level's one-second windows of each window's p90.

    A burst from another tenant of a shared host moves the p90 of the
    seconds it hits, not the median across seconds.
    """
    windows: dict[int, list[float]] = {}
    for second, ms in zip(level["second"], level["latency_ms"]):
        windows.setdefault(second, []).append(ms)
    return percentile([percentile(w, 0.9) for w in windows.values()], 0.5)


def _level_summary(level: dict) -> dict:
    counters = level["counters"]
    answered = [a for a in level["answers"] if a]
    refused = sum(1 for a in answered if a[0] == 429 or a[0] >= 500)
    return {
        "rate": level["rate"], "requests": level["count"],
        "answered": len(answered), "refused": refused,
        "p50_ms": percentile(level["latency_ms"], 0.50),
        "p90_ms": percentile(level["latency_ms"], 0.90),
        "p90_ms_by_second": _p90_by_second(level),
        "p99_ms": percentile(level["latency_ms"], 0.99),
        "gen_lag_p99_ms": percentile(level["lag_ms"], 0.99),
        "backlog_growth": level["backlog_growth"],
        "backlog_max": level["backlog_max"],
        "batch_size_mean": (
            counters.get("batched_requests", 0) / counters["batches"]
            if counters.get("batches") else 0.0
        ),
        "shed_ratio": counters.get("shed", 0) / level["count"],
        "route_404_ratio": counters.get("http.404", 0) / level["count"],
    }


def _goodput(summaries: dict) -> float:
    best = 0.0
    for summary in summaries.values():
        if (
            summary["p90_ms"] <= P90_LIMIT_MS
            and summary["answered"] == summary["requests"]
            and summary["refused"] == 0
            and summary["backlog_growth"] <= 1.0
        ):
            best = max(best, summary["rate"])
    return best


def run(seed: int, seconds: float, trace: bool, workdir: str, env: dict,
        trace_path: str) -> dict:
    """The whole workload; returns metrics plus a details record."""
    store_dir = os.path.join(workdir, "store")
    os.makedirs(store_dir)
    pool = build_pool(store_dir, seed)
    if trace:
        return _run_traced(seconds, workdir, env, trace_path, pool)
    setups, calibrated = [], []
    for spawn in range(SETUP_SPAWNS):
        server = Server(
            env, store_dir, workdir, f"setup{spawn}", calibrated=True
        )
        setups.append(server.setup_s)
        calibrated.append(server.setup_cal_s)
        server.stop()
    server = Server(env, store_dir, workdir, "main")
    setups.append(server.setup_s)
    try:
        levels = asyncio.run(_session(server, pool, seconds))
        report = server.stop()
    finally:
        server.kill()
    check = _check(pool, levels)
    summaries = {name: _level_summary(level) for name, level in levels.items()}
    wall = sum(level["end"] - level["start"] for level in levels.values())
    metrics = {
        "setup_s": percentile(calibrated, 0.5),
        "wall_s": wall,
        "peak_rss_mb": report["rss_mb"],
        "lrsyn_f1.contemporary": check["lrsyn_f1"]["contemporary"],
        "lrsyn_f1.longitudinal": check["lrsyn_f1"]["longitudinal"],
        "p50_ms": summaries["low"]["p50_ms"],
        "p90_ms": summaries["high"]["p90_ms_by_second"],
    }
    details = {
        "levels": summaries, "goodput_rps": _goodput(summaries),
        "p90_limit_ms": P90_LIMIT_MS, "setup_spawns_s": setups,
        "setup_spawns_calibrated_s": calibrated,
        "pool": len(pool["pool"]), "exported": pool["exported"],
        "server_cpu_s": report["cpu_s"],
    }
    return {
        "metrics": metrics, "details": details,
        "attempted": check["attempted"], "failed": check["failed"],
        "correct": check["failed"] == 0,
    }


def _run_traced(seconds, workdir, env, trace_path, pool) -> dict:
    """Untraced then traced server on the same schedule (half length)."""
    store_dir = os.path.join(workdir, "store")
    runs = {}
    for name, path in (("untraced", None), ("traced", trace_path)):
        server = Server(env, store_dir, workdir, name, trace_path=path)
        try:
            levels = asyncio.run(_session(server, pool, seconds / 2))
            report = server.stop()
        finally:
            server.kill()
        runs[name] = (levels, report, _check(pool, levels))
    levels, report, check = runs["traced"]
    summary = report["trace"]
    metrics = {}
    for name, level in levels.items():
        window = (level["start"], level["end"])
        samples = [
            timings for stamp, timings in report["stage_samples"]
            if window[0] <= stamp <= window[1]
        ]
        for stage in ("queue", "decode", "route", "extract", "encode"):
            metrics[f"serve.{stage}_ms.p50.{name}"] = 1000 * percentile(
                [t[stage] for t in samples if stage in t], 0.5
            )
        level_summary = _level_summary(level)
        server_p50 = 1000 * percentile(
            [t["total"] for t in samples if "total" in t], 0.5
        )
        metrics[f"serve.client_gap_ms.p50.{name}"] = (
            level_summary["p50_ms"] - server_p50
        )
        metrics[f"serve.batch_size.mean.{name}"] = level_summary["batch_size_mean"]
        metrics[f"serve.shed_ratio.{name}"] = level_summary["shed_ratio"]
        metrics[f"serve.route_404_ratio.{name}"] = level_summary["route_404_ratio"]
        metrics[f"serve.gen_lag_ms.p99.{name}"] = level_summary["gen_lag_p99_ms"]
        metrics[f"serve.backlog_growth.{name}"] = level_summary["backlog_growth"]
        metrics[f"serve.p50_ms.{name}"] = level_summary["p50_ms"]
        metrics[f"serve.p99_ms.{name}"] = level_summary["p99_ms"]
    summaries = {name: _level_summary(level) for name, level in levels.items()}
    metrics["serve.goodput_rps"] = _goodput(summaries)
    metrics["harness.tracing_overhead"] = (
        report["cpu_s"] / runs["untraced"][1]["cpu_s"]
    )
    failed = sum(run[2]["failed"] for run in runs.values())
    return {
        "metrics": metrics, "trace_summary": summary,
        "details": {"levels": summaries, "spans": report["spans"]},
        "attempted": sum(run[2]["attempted"] for run in runs.values()),
        "failed": failed, "correct": failed == 0,
    }

"""In-process server behavior: admission, batching, reload, metrics."""

from __future__ import annotations

import asyncio
import json

import pytest

import repro.store as store_mod
from tests.serve.conftest import http_request


def test_healthz_and_programs(run_app, serve_setup):
    async def scenario(app):
        status, health, _ = await http_request(app.port, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["programs"] == sum(
            1
            for entry in serve_setup.report["entries"]
            if entry["status"] == "ready"
        )
        status, listing, _ = await http_request(app.port, "GET", "/programs")
        assert status == 200
        assert len(listing["programs"]) == len(serve_setup.report["entries"])
        status, body, _ = await http_request(app.port, "GET", "/nope")
        assert status == 404 and "no such endpoint" in body["error"]

    run_app(scenario)


def test_extract_matches_offline_harness(run_app, serve_setup, sample_docs):
    """Served values equal running the stored program directly."""
    from repro.serve.router import Router, load_catalog

    router = Router(load_catalog(serve_setup.store))

    async def scenario(app):
        for provider, docs in sample_docs.items():
            entry, _ = router.lookup(provider, docs.field, "LRSyn")
            for doc in (*docs.training, *docs.test):
                status, body, _ = await http_request(
                    app.port,
                    "POST",
                    "/extract",
                    {"html": doc.source, "field": docs.field},
                )
                assert status == 200
                assert body["provider"] == provider
                assert body["values"] == entry.extractor.extract(doc)

    run_app(scenario)


def test_bad_requests_get_400(run_app):
    async def scenario(app):
        status, body, _ = await http_request(
            app.port, "POST", "/extract", {"field": "F"}
        )
        assert status == 400 and "bad request" in body["error"]
        status, body, _ = await http_request(
            app.port, "POST", "/extract", {"html": 3, "field": "F"}
        )
        assert status == 400
        status, body, _ = await http_request(app.port, "GET", "/extract")
        assert status == 405

    run_app(scenario)


def _valid_extract(sample_docs) -> dict:
    docs = sample_docs["forge000"]
    return {"html": docs.training[0].source, "field": docs.field}


def test_non_string_provider_gets_400_and_server_keeps_serving(
    run_app, sample_docs
):
    async def scenario(app):
        for bad in ({"provider": ["x"]}, {"method": {"m": 1}}):
            status, body, _ = await http_request(
                app.port, "POST", "/extract",
                {"html": "<p>x</p>", "field": "F", **bad},
            )
            assert status == 400 and "must be strings" in body["error"]
        status, _, _ = await asyncio.wait_for(
            http_request(
                app.port, "POST", "/extract", _valid_extract(sample_docs)
            ),
            timeout=10,
        )
        assert status == 200

    run_app(scenario)


def test_batch_that_raises_gets_500_and_server_keeps_serving(
    run_app, sample_docs, monkeypatch
):
    from repro.serve.router import Router

    real_route = Router.route

    def route(self, field, blueprint, method):
        if field == "boom":
            raise RuntimeError("routing exploded")
        return real_route(self, field, blueprint, method)

    monkeypatch.setattr(Router, "route", route)

    async def scenario(app):
        status, body, _ = await http_request(
            app.port, "POST", "/extract", {"html": "<p>x</p>", "field": "boom"}
        )
        assert status == 500 and "routing exploded" in body["error"]
        status, _, _ = await asyncio.wait_for(
            http_request(
                app.port, "POST", "/extract", _valid_extract(sample_docs)
            ),
            timeout=10,
        )
        assert status == 200
        status, metrics, _ = await http_request(app.port, "GET", "/metrics")
        assert metrics["counters"]["failed_requests"] == 1

    run_app(scenario)


def test_batch_vs_single_byte_identical(run_app, sample_docs):
    """The same request returns the same *bytes* alone or in a burst."""
    requests = [
        {"html": doc.source, "field": docs.field}
        for docs in sample_docs.values()
        for doc in (*docs.training, *docs.test)
    ]

    async def scenario(app):
        single = []
        for payload in requests:  # sequential: every batch has size 1
            status, _, raw = await http_request(
                app.port, "POST", "/extract", payload
            )
            assert status == 200
            single.append(raw)
        burst = await asyncio.gather(
            *(
                http_request(app.port, "POST", "/extract", payload)
                for payload in requests
            )
        )
        assert [raw for _, _, raw in burst] == single
        status, metrics, _ = await http_request(app.port, "GET", "/metrics")
        counters = metrics["counters"]
        # The burst actually exercised multi-request batches.
        assert counters["batches"] < counters["batched_requests"]

    run_app(scenario, batch_size=4, batch_wait=0.05)


def test_admission_queue_overflow_sheds_429(run_app, sample_docs):
    docs = sample_docs["forge000"]
    payload = {"html": docs.training[0].source, "field": docs.field}

    async def scenario(app):
        app.delay = 0.05  # slow extraction so the burst piles up
        results = await asyncio.gather(
            *(
                http_request(app.port, "POST", "/extract", payload)
                for _ in range(20)
            )
        )
        statuses = [status for status, _, _ in results]
        shed = statuses.count(429)
        served = statuses.count(200)
        assert shed > 0, "burst never overflowed the queue"
        assert served > 0, "nothing was served"
        assert shed + served == len(statuses)
        for status, body, _ in results:
            if status == 429:
                assert "overloaded" in body["error"]
                assert body["queue"] == app.queue.bound
        status, metrics, _ = await http_request(app.port, "GET", "/metrics")
        assert metrics["queue"]["shed"] == shed
        assert metrics["counters"]["http.429"] == shed

    run_app(scenario, queue_size=2, batch_size=1, batch_wait=0.0)


def test_forced_reload_picks_up_new_export(run_app, serve_setup):
    from repro.harness.export import catalog_payload, serving_entry_key
    from tests.serve.test_router import FixedExtractor

    key = serving_entry_key("synthetic", "pX", "FX", "LRSyn")

    async def scenario(app):
        before = app.router.catalog.ready
        serve_setup.store.put("program", "pX-prog", "html", FixedExtractor(["v"]))
        serve_setup.store.put(
            "serving",
            key,
            "html",
            catalog_payload(
                "synthetic",
                "pX",
                "FX",
                "LRSyn",
                "pX-prog",
                (frozenset({"q"}),),
                "ready",
            ),
            overwrite=True,
        )
        serve_setup.store.flush()
        status, body, _ = await http_request(app.port, "POST", "/reload")
        assert status == 200 and body["reloaded"] is True
        assert app.router.catalog.ready == before + 1
        entry, diagnostic = app.router.lookup("pX", "FX")
        assert diagnostic is None and entry.ready
        # Unchanged store: reload reports no change via the watcher path.
        assert app._reload_sync(force=False) is False

    try:
        run_app(scenario)
    finally:
        serve_setup.store.backend.delete_many([key])


def test_hot_reload_on_generation_bump(run_app, serve_setup, sample_docs, monkeypatch):
    """An algo bump stales the whole catalog; the watcher notices."""
    docs = sample_docs["forge000"]
    payload = {"html": docs.training[0].source, "field": docs.field}

    async def scenario(app):
        status, _, _ = await http_request(app.port, "POST", "/extract", payload)
        assert status == 200
        monkeypatch.setattr(
            store_mod,
            "BLUEPRINT_ALGO_VERSION",
            store_mod.BLUEPRINT_ALGO_VERSION + 1,
        )
        for _ in range(100):  # the watcher polls every 20 ms
            await asyncio.sleep(0.02)
            if app.router.catalog.ready == 0:
                break
        assert app.router.catalog.ready == 0
        status, body, _ = await http_request(app.port, "POST", "/extract", payload)
        assert status == 404
        assert body["reason"] == "stale-generation"
        # Reverting the bump restores service the same way.
        monkeypatch.setattr(
            store_mod,
            "BLUEPRINT_ALGO_VERSION",
            store_mod.BLUEPRINT_ALGO_VERSION - 1,
        )
        for _ in range(100):
            await asyncio.sleep(0.02)
            if app.router.catalog.ready:
                break
        status, _, _ = await http_request(app.port, "POST", "/extract", payload)
        assert status == 200

    run_app(scenario, watch=0.02)


def test_metrics_report_all_stages(run_app, sample_docs):
    docs = sample_docs["forge001"]

    async def scenario(app):
        for doc in docs.training:
            await http_request(
                app.port,
                "POST",
                "/extract",
                {"html": doc.source, "field": docs.field},
            )
        status, metrics, raw = await http_request(app.port, "GET", "/metrics")
        assert status == 200
        stages = metrics["stages_ms"]
        for stage in ("queue", "decode", "route", "extract", "encode", "total"):
            assert stages[stage]["count"] == len(docs.training)
            assert stages[stage]["p50"] <= stages[stage]["p99"]
        assert metrics["counters"]["http.200"] >= len(docs.training)
        # Canonical JSON: the payload is deterministic (sorted keys).
        assert raw == json.dumps(metrics, sort_keys=True).encode()

    run_app(scenario)


def test_keep_alive_connection_reuse(run_app, sample_docs):
    docs = sample_docs["forge000"]

    async def scenario(app):
        reader, writer = await asyncio.open_connection("127.0.0.1", app.port)
        try:
            for doc in docs.training:
                status, body, _ = await http_request(
                    app.port,
                    "POST",
                    "/extract",
                    {"html": doc.source, "field": docs.field},
                    reader=reader,
                    writer=writer,
                )
                assert status == 200
        finally:
            writer.close()

    run_app(scenario)


async def _raw_status_line(port: int, head: bytes) -> bytes:
    """Send raw request bytes; return the status line, then expect EOF."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(head)
        await writer.drain()
        response = await asyncio.wait_for(reader.read(), timeout=5.0)
    finally:
        writer.close()
    return response.partition(b"\r\n")[0]


def _assert_answered_then_healthy(run_app, head, status_line):
    async def scenario(app):
        assert await _raw_status_line(app.port, head) == status_line
        status, health, _ = await http_request(app.port, "GET", "/healthz")
        assert status == 200 and health["status"] == "ok"
        _, metrics, _ = await http_request(app.port, "GET", "/metrics")
        code = status_line.split(b" ")[1].decode()
        assert metrics["counters"][f"http.{code}"] == 1

    run_app(scenario)


def test_negative_content_length_gets_400(run_app):
    _assert_answered_then_healthy(
        run_app,
        b"POST /extract HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"HTTP/1.1 400 Bad Request",
    )


def test_non_numeric_content_length_gets_400(run_app):
    _assert_answered_then_healthy(
        run_app,
        b"POST /extract HTTP/1.1\r\nContent-Length: lots\r\n\r\n",
        b"HTTP/1.1 400 Bad Request",
    )


def test_oversized_head_gets_431(run_app):
    # Far past asyncio.StreamReader's 64 KiB limit, so bytes are still
    # unread when the server answers.
    padding = b"X-Pad: " + b"a" * (2 << 20) + b"\r\n"
    _assert_answered_then_healthy(
        run_app,
        b"GET /healthz HTTP/1.1\r\n" + padding + b"\r\n",
        b"HTTP/1.1 431 Request Header Fields Too Large",
    )


def test_oversized_body_gets_413(run_app):
    # A terabyte body: the server must refuse on the head alone instead
    # of waiting to buffer it.
    _assert_answered_then_healthy(
        run_app,
        b"POST /extract HTTP/1.1\r\nContent-Length: 1000000000000\r\n\r\n",
        b"HTTP/1.1 413 Payload Too Large",
    )


@pytest.mark.parametrize(
    "request_line", [b"GET", b"GET /healthz"], ids=["one-token", "no-version"]
)
def test_malformed_request_line_gets_400(run_app, request_line):
    _assert_answered_then_healthy(
        run_app,
        request_line + b"\r\n\r\n",
        b"HTTP/1.1 400 Bad Request",
    )


def test_unknown_explicit_provider_gets_404_without_parsing(
    run_app, sample_docs, monkeypatch
):
    # An explicit provider is routed before the HTML is decoded: a miss
    # must not pay for parsing a large document.
    import repro.html.parser as parser_mod

    calls = []
    real_parse = parser_mod.parse_html

    def counting_parse(*args, **kwargs):
        calls.append(1)
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(parser_mod, "parse_html", counting_parse)
    html = "<html><body>" + "<p>filler</p>" * (512 * 1024 // 13) + "</body></html>"
    assert 500 * 1024 < len(html) < 1 << 20

    async def scenario(app):
        status, body, _ = await http_request(
            app.port,
            "POST",
            "/extract",
            {
                "html": html,
                "field": sample_docs["forge000"].field,
                "provider": "no-such-provider",
            },
        )
        assert status == 404
        assert body["reason"] == "unknown-provider-field"

    run_app(scenario)
    assert calls == []


def test_too_deep_document_gets_400_with_depth_message(run_app, sample_docs):
    # The parser's explicit depth limit, not a RecursionError or a
    # quadratic ancestor walk, is what rejects absurd nesting.
    from repro.html.parser import MAX_DEPTH

    async def scenario(app):
        started = asyncio.get_running_loop().time()
        status, body, _ = await http_request(
            app.port,
            "POST",
            "/extract",
            {"html": "<div>" * 20_000, "field": sample_docs["forge000"].field},
        )
        elapsed = asyncio.get_running_loop().time() - started
        assert status == 400
        assert body["error"] == (
            "unparseable document: document nests deeper than"
            f" {MAX_DEPTH} elements"
        )
        assert elapsed < 1.0

    run_app(scenario)


def test_too_deep_document_on_the_fallback_gets_the_same_400(
    run_app, sample_docs
):
    # A comment sends the document to the stdlib tokenizer instead of the
    # parser's regex fast path; the depth limit answers the same there,
    # and the server goes on answering.
    from repro.html.parser import MAX_DEPTH, _fast_tree

    deep = "<div>" * (MAX_DEPTH + 1)
    forced = "<!-- forced onto the fallback -->" + deep
    assert _fast_tree(forced) is None
    docs = sample_docs["forge000"]

    async def scenario(app):
        answers = []
        for html in (deep, forced):
            status, body, _ = await http_request(
                app.port, "POST", "/extract",
                {"html": html, "field": docs.field},
            )
            answers.append((status, body))
        assert answers[0] == answers[1] == (
            400,
            {
                "error": "unparseable document: document nests deeper"
                f" than {MAX_DEPTH} elements"
            },
        )
        status, body, _ = await http_request(
            app.port, "POST", "/extract",
            {"html": docs.test[0].source, "field": docs.field},
        )
        assert status == 200
        assert body["provider"] == "forge000"

    run_app(scenario)


@pytest.mark.parametrize("depth", [992, "max"])
def test_deep_document_within_limit_parses_and_blueprints(depth):
    from repro.html.domain import HtmlDomain
    from repro.html.parser import MAX_DEPTH, parse_html

    depth = MAX_DEPTH if depth == "max" else depth
    doc = parse_html("<div>" * depth + "deep")
    blueprint = HtmlDomain().document_blueprint(doc)
    assert len(blueprint) == depth + 1
    deepest = doc.elements()[-1]
    assert deepest.depth == depth
    assert deepest.xpath().count("/") == depth
    assert doc.root.text_content() == "deep"
    assert doc.find_by_text("deep") == [deepest]


def test_deepest_accepted_document_is_answered(run_app, sample_docs):
    from repro.html.parser import MAX_DEPTH

    async def scenario(app):
        status, body, _ = await http_request(
            app.port,
            "POST",
            "/extract",
            {
                "html": "<div>" * MAX_DEPTH + "deep",
                "field": sample_docs["forge000"].field,
            },
        )
        assert status in (200, 404), body

    run_app(scenario)

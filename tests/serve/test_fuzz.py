"""Seeded fuzz of the HTTP boundary: every input is answered, never dropped.

Each case opens a fresh connection to an in-process server, sends its
bytes and half-closes.  Whatever the bytes — random noise, a head or
body cut short, JSON with oversized or wrong-typed fields — the server
must answer with a status line and then close, and ``/healthz`` on a
new connection must still be 200 afterwards.
"""

from __future__ import annotations

import asyncio
import json
import random

from tests.serve.conftest import http_request

SEED = 20261017


def _request(body: bytes, path: str = "/extract") -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: fuzz\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def _cases(sample_docs) -> list[tuple[str, bytes]]:
    rng = random.Random(SEED)
    docs = sample_docs["forge000"]
    valid = json.dumps(
        {"html": docs.training[0].source, "field": docs.field}
    ).encode()
    cases: list[tuple[str, bytes]] = []

    for index in range(12):
        size = rng.choice([1, 7, 64, 512, 4096])
        noise = bytes(rng.randrange(256) for _ in range(size))
        cases.append((f"noise-{index}", noise))
        cases.append((f"noise-head-{index}", noise + b"\r\n\r\n"))
    cases.append(("noise-past-head-limit", bytes(70 * 1024)))

    full = _request(valid)
    head_end = full.index(b"\r\n\r\n") + 4
    for index in range(10):
        cut = rng.randrange(1, head_end - 1)
        cases.append((f"truncated-head-{index}", full[:cut]))
        cut = rng.randrange(head_end, len(full) - 1)
        cases.append((f"truncated-body-{index}", full[:cut]))

    wrong_typed = [
        {"html": 5, "field": docs.field},
        {"html": ["<p>x</p>"], "field": docs.field},
        {"html": "<p>x</p>", "field": {"f": 1}},
        {"html": "<p>x</p>", "field": docs.field, "provider": 3},
        {"html": "<p>x</p>", "field": docs.field, "method": []},
        {"html": None, "field": None},
        {"field": docs.field},
        [1, 2, 3],
        "just a string",
        None,
    ]
    for index, payload in enumerate(wrong_typed):
        cases.append((f"wrong-type-{index}", _request(json.dumps(payload).encode())))

    oversized = [
        {"html": "<p>x</p>", "field": "F" * 200_000},
        {"html": "<p>x</p>", "field": docs.field, "provider": "P" * 200_000},
        {"html": "<div>" * 20_000, "field": docs.field},
        {"html": "<p>" + "y" * 900_000 + "</p>", "field": docs.field},
    ]
    for index, payload in enumerate(oversized):
        cases.append((f"oversized-{index}", _request(json.dumps(payload).encode())))
    cases.append(("deep-json", _request(b"[" * 100_000 + b"]" * 100_000)))
    cases.append(("bad-utf8-json", _request(b'{"html": "\xff\xfe", "field": "F"}')))
    cases.append(("unknown-path", _request(valid, path="/" + "z" * 300)))
    cases.append(("valid", full))
    return cases


async def _exchange(port: int, data: bytes) -> bytes:
    """Send ``data``, half-close, and read until the server closes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(data)
        await writer.drain()
        writer.write_eof()
        return await asyncio.wait_for(reader.read(), timeout=5.0)
    finally:
        writer.close()


def test_every_fuzzed_input_is_answered_then_healthz_ok(run_app, sample_docs):
    cases = _cases(sample_docs)

    async def scenario(app):
        for name, data in cases:
            response = await _exchange(app.port, data)
            status_line = response.partition(b"\r\n")[0]
            parts = status_line.split(b" ", 2)
            assert parts[0] == b"HTTP/1.1", (name, response[:80])
            assert parts[1].isdigit() and len(parts[1]) == 3, name
        status, health, _ = await http_request(app.port, "GET", "/healthz")
        assert status == 200 and health["status"] == "ok"

    run_app(scenario)

"""The asyncio HTTP server behind ``repro-serve run``.

Stdlib only (``asyncio`` streams + hand-parsed HTTP/1.1), matching the
repo's no-deps stance.  The life of a ``POST /extract`` request:

1. the connection handler reads the request and offers it to the
   bounded :class:`repro.serve.queue.AdmissionQueue` — full queue means
   an immediate 429, no waiting (load shedding by construction);
2. the worker takes the oldest admitted request as soon as the
   extraction thread is free and runs it there: **decode** (JSON + HTML
   parse + blueprint), **route** (:class:`repro.serve.router.Router` —
   one big-int popcount pass over the catalog's routing rows),
   **extract** (the synthesized program), **encode** (canonical JSON
   bytes).  A request naming its ``provider`` is routed by exact lookup
   *before* the HTML is parsed, and skips the blueprint, so an unknown
   provider/field costs no document decoding;
3. the handler awaits the request's future and writes the prepared
   bytes.

One extraction thread is a feature, not a limitation: extraction is
pure-python CPU work, so a second thread would fight the GIL, and a
single thread makes output identity under load trivial to guarantee —
requests are processed one at a time in admission order, each against
the router snapshot current when it starts, and serialized with
``sort_keys=True``.  Extraction stays off the event loop so a slow
parse never stalls ``/healthz``, admission or 429 shedding.

Hot reload: a watcher polls the store every ``REPRO_SERVE_WATCH``
seconds with :func:`repro.serve.router.peek_digest` (raw rows only) and
rebuilds the router when the serving rows — or the live
``BLUEPRINT_ALGO_VERSION`` generation — changed.  The swap is one
attribute assignment; an in-flight request keeps the router it started
with.  ``POST /reload`` forces the same path synchronously.

Graceful drain, so that stopping the server loses no request it already
accepted: SIGTERM/SIGINT stops the listener, every *admitted* request
is still extracted and answered, idle keep-alive connections notice the
drain within a poll slice and close, and only connections still open
past the drain deadline are severed.  New ``/extract`` requests
arriving mid-drain get 503.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

from repro.serve import serve_delay, serve_queue, serve_watch
from repro.serve.metrics import StageMetrics
from repro.serve.queue import AdmissionQueue
from repro.serve.router import Router, load_catalog, peek_digest

# Drain-poll slice for idle keep-alive connections (short, so an idle
# connection notices a drain within a fraction of a second), and how long
# the shutdown path waits for stragglers before severing them (bounded,
# so one stuck client cannot keep a stopping server alive).
_POLL_SECONDS = 0.2
_DRAIN_SECONDS = 10.0
# How long a connection answered for a bad head keeps discarding what
# the client still sends: closing a socket with unread bytes makes the
# kernel send RST, which can destroy the answer before the client reads
# it.
_LINGER_SECONDS = 1.0
# Largest request body the server buffers; a larger Content-Length gets
# 413 before any body byte is read.  The largest /extract body any
# dataset's document makes at REPRO_SCALE=1.0 is ~2.9 KB (an m2h email
# wrapped in its JSON envelope; forge pages are smaller), so 1 MiB is
# over 300x headroom.
_MAX_BODY_BYTES = 1 << 20

_JSON_HEADERS = "Content-Type: application/json\r\n"


class _BadHead(Exception):
    """A request head the server answers with ``status`` and then closes."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class _Pending:
    """One admitted ``/extract`` request awaiting the worker."""

    body: bytes
    enqueued: float
    future: asyncio.Future = dc_field(repr=False, default=None)  # type: ignore[assignment]


class ServeApp:
    """The serving process: listener + admission queue + worker."""

    def __init__(
        self,
        store,
        host: str = "127.0.0.1",
        port: int | None = None,
        queue_size: int | None = None,
        watch: float | None = None,
    ) -> None:
        self.store = store
        self.host = host
        self.port = serve_port_default(port)
        self.queue_size = queue_size if queue_size is not None else serve_queue()
        self.watch = watch if watch is not None else serve_watch()
        self.delay = serve_delay()
        self.metrics = StageMetrics()
        self.router: Router | None = None
        self.queue: AdmissionQueue | None = None
        self.draining = False
        self._server: asyncio.Server | None = None
        self._worker_task: asyncio.Task | None = None
        self._watch_task: asyncio.Task | None = None
        self._inflight = 0
        self._writers: set[asyncio.StreamWriter] = set()
        self._drain_requested: asyncio.Event | None = None
        # One thread: extraction is GIL-bound CPU work, and a single
        # consumer is what makes processing order deterministic.  The
        # same thread runs catalog (re)loads, serializing every store
        # read with extraction.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        from repro.html.domain import HtmlDomain

        self._domain = HtmlDomain()

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Load the catalog and start listening (no signal handlers)."""
        loop = asyncio.get_running_loop()
        self.queue = AdmissionQueue(self.queue_size)
        self._drain_requested = asyncio.Event()
        self.router = await loop.run_in_executor(
            self._executor, lambda: Router(load_catalog(self.store))
        )
        self._server = await asyncio.start_server(
            self._serve_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._worker_task = loop.create_task(self._worker_loop())
        if self.watch > 0:
            self._watch_task = loop.create_task(self._watch_loop())

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def request_drain(self) -> None:
        """Signal-safe shutdown trigger (idempotent)."""
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def serve_until_drained(self, install_signals: bool = True) -> None:
        """Run until SIGTERM/SIGINT (or :meth:`request_drain`), then drain."""
        loop = asyncio.get_running_loop()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(signum, self.request_drain)
        await self._drain_requested.wait()
        await self.drain()

    async def drain(self, deadline: float = _DRAIN_SECONDS) -> None:
        """Stop accepting, answer everything admitted, then tear down."""
        self.draining = True
        self._server.close()
        await self._server.wait_closed()
        # Every admitted request is a promise: wait for the queue to
        # empty and the in-flight request to finish.
        limit = time.monotonic() + deadline
        while (not self.queue.empty() or self._inflight) and (
            time.monotonic() < limit
        ):
            await asyncio.sleep(0.01)
        for task in (self._worker_task, self._watch_task):
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        # Handlers close themselves after their response once draining
        # is set; sever only the stragglers.
        limit = time.monotonic() + deadline
        while self._writers and time.monotonic() < limit:
            await asyncio.sleep(0.02)
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                writer.close()
        self._executor.shutdown(wait=True)

    # -- connection handling ---------------------------------------------
    async def _serve_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadHead as bad:
                    # The stream position is unknown after a bad head, so
                    # answer and close instead of reading the next one.
                    await self._respond(
                        writer, bad.status, _error(str(bad)), close=True
                    )
                    writer.write_eof()
                    with contextlib.suppress(asyncio.TimeoutError):
                        await asyncio.wait_for(
                            _discard_until_eof(reader), _LINGER_SECONDS
                        )
                    return
                if request is None:
                    return
                method, path, body = request
                status, payload = await self._dispatch(method, path, body)
                await self._respond(writer, status, payload)
                if self.draining:
                    return
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            return
        finally:
            self._writers.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes] | None:
        """One parsed request, or ``None`` on EOF / idle-while-draining.

        Header reads poll in short slices so an idle keep-alive
        connection notices a drain promptly; a request whose bytes have
        started arriving is always read to the end and answered.  A head
        longer than the reader's limit, a request line that is not
        ``METHOD PATH VERSION``, a ``Content-Length`` that is not an
        integer in ``[0, _MAX_BODY_BYTES]``, or a head or body cut short
        by the client's EOF raises :class:`_BadHead`.
        """
        while True:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=_POLL_SECONDS
                )
                break
            except asyncio.TimeoutError:
                if self.draining:
                    return None
                continue
            except asyncio.LimitOverrunError:
                raise _BadHead(431, "request head too large") from None
            except asyncio.IncompleteReadError as eof:
                if eof.partial:
                    raise _BadHead(400, "truncated request head") from None
                return None
            except (ConnectionError, OSError):
                return None
        request_line, _, header_block = head.partition(b"\r\n")
        try:
            method, path, _version = (
                request_line.decode("latin-1").split(" ", 2)
            )
        except ValueError:
            raise _BadHead(400, "malformed request line") from None
        length = 0
        for line in header_block.split(b"\r\n"):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    length = -1
                if length < 0:
                    raise _BadHead(400, "bad Content-Length")
                if length > _MAX_BODY_BYTES:
                    raise _BadHead(413, "request body too large")
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            raise _BadHead(400, "truncated request body") from None
        return method, path.split("?", 1)[0], body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        close: bool = False,
    ) -> None:
        phrase = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            413: "Payload Too Large",
            429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error",
            503: "Service Unavailable",
        }.get(status, "OK")
        connection = "close" if close or self.draining else "keep-alive"
        retry = "Retry-After: 1\r\n" if status in (429, 503) else ""
        writer.write(
            (
                f"HTTP/1.1 {status} {phrase}\r\n"
                f"{_JSON_HEADERS}"
                f"Content-Length: {len(payload)}\r\n"
                f"{retry}"
                f"Connection: {connection}\r\n\r\n"
            ).encode("latin-1")
            + payload
        )
        await writer.drain()
        self.metrics.count(f"http.{status}")

    # -- endpoint dispatch -----------------------------------------------
    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, bytes]:
        if path == "/extract":
            if method != "POST":
                return 405, _error("use POST")
            return await self._extract(body)
        if path == "/healthz":
            return 200, _json(
                {
                    "status": "draining" if self.draining else "ok",
                    "programs": self.router.catalog.ready,
                    "entries": len(self.router.catalog.entries),
                    "generation": self.router.catalog.generation,
                }
            )
        if path == "/metrics":
            snapshot = self.metrics.snapshot()
            snapshot["queue"] = {
                "bound": self.queue.bound,
                "depth": len(self.queue),
                "admitted": self.queue.admitted,
                "shed": self.queue.shed,
            }
            return 200, _json(snapshot)
        if path == "/programs":
            return 200, _json(
                {
                    "digest": self.router.catalog.digest,
                    "generation": self.router.catalog.generation,
                    "unreadable_rows": self.router.catalog.unreadable_rows,
                    "programs": self.router.programs(),
                }
            )
        if path == "/reload":
            if method != "POST":
                return 405, _error("use POST")
            loop = asyncio.get_running_loop()
            reloaded = await loop.run_in_executor(
                self._executor, self._reload_sync, True
            )
            return 200, _json(
                {
                    "reloaded": reloaded,
                    "digest": self.router.catalog.digest,
                    "programs": self.router.catalog.ready,
                }
            )
        return 404, _error(f"no such endpoint: {path}")

    async def _extract(self, body: bytes) -> tuple[int, bytes]:
        if self.draining:
            return 503, _error("draining")
        pending = _Pending(body=body, enqueued=time.monotonic())
        pending.future = asyncio.get_running_loop().create_future()
        if not self.queue.try_put(pending):
            # The admission queue is the latency contract: past the
            # bound we shed immediately instead of queueing unboundedly.
            self.metrics.count("shed")
            return 429, _error(
                "overloaded: admission queue full", queue=self.queue.bound
            )
        return await pending.future

    # -- the worker ------------------------------------------------------
    async def _worker_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            pending = await self.queue.get()
            self._inflight += 1
            try:
                outcome = await loop.run_in_executor(
                    self._executor, self._process, pending, time.monotonic()
                )
            except Exception as exc:  # noqa: BLE001 - answer, keep serving
                self.metrics.count("failed_requests")
                outcome = (
                    500,
                    _error(f"internal error: {type(exc).__name__}: {exc}"),
                )
            finally:
                self._inflight -= 1
            if not pending.future.done():
                pending.future.set_result(outcome)

    def _process(self, pending: _Pending, claimed: float) -> tuple[int, bytes]:
        """Runs on the extraction thread: one request's timed stages."""
        timings = {"queue": claimed - pending.enqueued}
        outcome = self._process_one(self.router, pending, timings)
        timings["total"] = time.monotonic() - pending.enqueued
        self.metrics.observe_many(timings)
        return outcome

    def _process_one(
        self, router: Router, pending: _Pending, timings: dict
    ) -> tuple[int, bytes]:
        # decode: JSON envelope, HTML parse and, for routed requests, the
        # document blueprint.
        started = time.monotonic()
        try:
            request = json.loads(pending.body)
            if not isinstance(request, dict):
                raise ValueError("request body must be a JSON object")
            html = request["html"]
            field = request["field"]
            provider = request.get("provider")
            method = request.get("method")
            if not isinstance(html, str) or not isinstance(field, str):
                raise ValueError("'html' and 'field' must be strings")
            if not all(
                value is None or isinstance(value, str)
                for value in (provider, method)
            ):
                raise ValueError("'provider' and 'method' must be strings")
        except (ValueError, KeyError, RecursionError) as exc:
            return 400, _error(f"bad request: {exc}")
        decoded = time.monotonic() - started

        # route, explicit provider: a lookup that needs no document, so
        # it runs before the parse and a miss costs no HTML decoding.
        distance = None
        if provider is not None:
            started = time.monotonic()
            entry, diagnostic = router.lookup(provider, field, method)
            timings["route"] = time.monotonic() - started
            if entry is None:
                return 404, _json({"error": "no program", **diagnostic})

        started = time.monotonic()
        try:
            from repro.html.parser import parse_html

            doc = parse_html(html)
            if provider is None:
                blueprint = self._domain.document_blueprint(doc)
        except Exception as exc:  # noqa: BLE001 - answer, don't die
            return 400, _error(f"unparseable document: {exc}")
        timings["decode"] = decoded + time.monotonic() - started

        # route, no provider: best provider by bitset blueprint distance.
        if provider is None:
            started = time.monotonic()
            entry, distance, diagnostic = router.route(
                field, blueprint, method
            )
            timings["route"] = time.monotonic() - started
            if entry is None:
                return 404, _json({"error": "no program", **diagnostic})

        # extract: the synthesized program.
        started = time.monotonic()
        if self.delay:
            time.sleep(self.delay)
        try:
            values = entry.extractor.extract(doc)
        except Exception as exc:  # noqa: BLE001 - answer, don't die
            return 500, _error(
                f"extraction failed: {type(exc).__name__}: {exc}",
                provider=entry.provider,
                field=entry.field,
                method=entry.method,
            )
        timings["extract"] = time.monotonic() - started

        # encode: canonical JSON, so the same request gives the same bytes.
        started = time.monotonic()
        response = {
            "provider": entry.provider,
            "field": entry.field,
            "method": entry.method,
            "values": values,
        }
        if distance is not None:
            response["distance"] = distance
        payload = _json(response)
        timings["encode"] = time.monotonic() - started
        return 200, payload

    # -- hot reload ------------------------------------------------------
    async def _watch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.watch)
            with contextlib.suppress(Exception):
                reloaded = await loop.run_in_executor(
                    self._executor, self._reload_sync, False
                )
                if reloaded:
                    self.metrics.count("reloads")

    def _reload_sync(self, force: bool) -> bool:
        """Rebuild the router when the store's serving rows changed.

        Runs on the extraction thread, so reloads serialize with
        extraction and the router swap is a plain attribute write that
        each request observes atomically.
        """
        if not force and peek_digest(self.store) == self.router.catalog.digest:
            return False
        self.router = Router(load_catalog(self.store))
        return True


def serve_port_default(port: int | None) -> int:
    from repro.serve import serve_port

    return serve_port() if port is None else port


async def _discard_until_eof(reader: asyncio.StreamReader) -> None:
    while await reader.read(1 << 16):
        pass


def _json(value: dict) -> bytes:
    return json.dumps(value, sort_keys=True).encode("utf-8")


def _error(message: str, **extra) -> bytes:
    return _json({"error": message, **extra})


def run_server(
    store,
    host: str = "127.0.0.1",
    port: int | None = None,
    queue_size: int | None = None,
    watch: float | None = None,
    addr_file: str | None = None,
) -> int:
    """Foreground entry for ``repro-serve run``."""

    async def _main() -> int:
        app = ServeApp(
            store,
            host=host,
            port=port,
            queue_size=queue_size,
            watch=watch,
        )
        await app.start()
        catalog = app.router.catalog
        if addr_file:
            from pathlib import Path

            Path(addr_file).write_text(f"{app.address}\n")
        print(
            f"repro-serve listening on {app.address}"
            f" ({catalog.ready} ready programs,"
            f" {len(catalog.entries)} catalog entries,"
            f" generation {catalog.generation})",
            flush=True,
        )
        await app.serve_until_drained()
        return 0

    return asyncio.run(_main())

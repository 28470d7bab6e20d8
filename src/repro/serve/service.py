"""The HTTP service skeleton both front ends of the tier share.

:class:`~repro.serve.server.Server` (one prediction process) and
:class:`~repro.serve.shard.ShardRouter` (the sharded tier's front)
speak the same protocol over the same plumbing, written once here:

* the listener and its keep-alive connection loop: parse with
  :func:`~repro.serve.http.read_request`, answer a malformed request
  with a 400 and a closed connection, dispatch, encode, drain, observe;
* the admission counter behind the prediction routes and the graceful
  drain that waits for it to reach zero;
* the JSON-body decode and the mapping of protocol and backend errors
  onto statuses;
* :class:`ServiceThread`, which runs a service on a background thread,
  and :func:`stop_on_signals` for the foreground entry points.

A subclass supplies its route table, its three prediction handlers and
its instruments; the server adds its chaos and tracing through the
remaining hooks.  Hooks are plain method calls: the loop starts no
task or timer per request and suspends only to read, to write and
inside the route itself.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from typing import Awaitable, Callable

from ..obs import tracing
from . import protocol
from .batcher import BackendRunError
from .http import (
    MAX_HEADER_BYTES,
    BadRequest,
    HttpRequest,
    encode_response,
    read_request,
)

#: ``(route label, status, payload, extra headers)``: one answer.
Answer = tuple[str, int, "dict | str", tuple[tuple[str, str], ...]]
#: A route handler: the decoded JSON body in, ``(status, payload)`` out.
Handler = Callable[[object], Awaitable[tuple[int, "dict | str"]]]

#: The POST-only prediction routes every front end serves, by path.
PREDICTION_ROUTES = {
    "/v1/predict": "predict", "/v1/study": "study", "/v1/batch": "batch",
}


class HttpService:
    """Listener, connection loop, admission counter and drain.

    A subclass defines :meth:`_dispatch`, :meth:`_observe` and the
    prediction handlers ``_predict``, ``_study`` and ``_batch`` (each a
    :data:`Handler`).
    """

    #: Names the process in start-up failures and the 503 of a drain.
    role = "service"

    def __init__(self, host: str, port: int, drain_timeout_s: float) -> None:
        self._bind = (host, port)
        self._drain_timeout_s = drain_timeout_s
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._handlers: set[asyncio.Task] = set()
        #: Admitted prediction requests in flight; ``_idle`` is set at zero.
        self._active = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self.started_at: float | None = None
        self._predictors: dict[str, Handler] = {
            "predict": self._predict, "study": self._study, "batch": self._batch,
        }

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        assert self._server is not None, f"{self.role} not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self._bind[0]}:{self.port}"

    async def start(self) -> None:
        host, port = self._bind
        self._server = await asyncio.start_server(
            self._handle_connection, host=host, port=port, limit=MAX_HEADER_BYTES,
        )
        self.started_at = time.time()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, close."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=self._drain_timeout_s)
        except asyncio.TimeoutError:
            pass
        await self._drained()
        # Idle keep-alive connections never see another request: close
        # them and wait for their handlers, so nothing dies cancelled
        # when the loop shuts down.
        for writer in list(self._connections):
            writer.close()
        if self._handlers:
            await asyncio.wait(set(self._handlers), timeout=1.0)

    async def _drained(self) -> None:
        """Hook: runs once admitted requests finished (or the drain
        timed out), before idle connections are closed."""

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except BadRequest as exc:
                    started = time.perf_counter()
                    writer.write(encode_response(
                        400, protocol.error_response(400, str(exc)), keep_alive=False
                    ))
                    await writer.drain()
                    self._observe("other", 400, started, started, None)
                    break
                if request is None:
                    break
                keep_alive = request.keep_alive and not self._draining
                started = time.perf_counter()
                detour = self._intercept(request, writer)
                if detour is not None and not await detour:
                    break
                trace = self._open_trace(request)
                route, status, payload, extra = await self._dispatch(request, trace)
                written = time.perf_counter()
                writer.write(encode_response(status, payload, keep_alive, extra))
                await writer.drain()
                self._observe(route, status, started, written, trace)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            if task is not None:
                self._handlers.discard(task)
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- hooks ---------------------------------------------------------

    def _intercept(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> Awaitable[bool] | None:
        """Hook: ``None`` lets the request through; an awaitable is
        awaited first, and ``False`` from it ends the connection with no
        answer."""
        return None

    def _open_trace(self, request: HttpRequest) -> tracing.TraceSpan | None:
        """Hook: the request's root span, handed to :meth:`_dispatch`
        and :meth:`_observe` (``None``: untraced)."""
        return None

    async def _dispatch(
        self, request: HttpRequest, trace: tracing.TraceSpan | None
    ) -> Answer:
        """The route table."""
        raise NotImplementedError

    def _observe(
        self, route: str, status: int, started: float, written: float,
        trace: tracing.TraceSpan | None,
    ) -> None:
        """Record one answered request: it arrived at ``started`` and its
        response was encoded from ``written`` until just now."""
        raise NotImplementedError

    # -- routes --------------------------------------------------------

    async def _prediction(self, path: str, request: HttpRequest) -> Answer:
        """One of :data:`PREDICTION_ROUTES`, admitted."""
        route = PREDICTION_ROUTES[path]
        if request.method != "POST":
            return route, 405, protocol.error_response(
                405, f"{path} only accepts POST"
            ), ()
        return await self._admitted(route, request, self._predictors[route])

    async def _admitted(
        self, route: str, request: HttpRequest, handler: Handler
    ) -> Answer:
        """:meth:`_answer` inside the admission counter a drain waits on."""
        if self._draining:
            return route, 503, protocol.error_response(
                503, f"{self.role} is draining"
            ), ()
        self._active += 1
        self._idle.clear()
        try:
            return await self._answer(route, request, handler)
        finally:
            self._active -= 1
            if self._active == 0:
                self._idle.set()

    async def _answer(
        self, route: str, request: HttpRequest, handler: Handler
    ) -> Answer:
        """Decode the JSON body (empty is ``None``), run ``handler`` on
        it, and answer the protocol's and the backend's errors."""
        try:
            doc = json.loads(request.body.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return route, 400, protocol.error_response(
                400, f"request body is not valid JSON: {exc}"
            ), ()
        try:
            status, payload = await handler(doc)
        except protocol.LimitExceeded as exc:
            return route, 413, protocol.error_response(413, str(exc)), ()
        except protocol.ProtocolError as exc:
            return route, 400, protocol.error_response(400, str(exc)), ()
        except BackendRunError as exc:
            return route, 500, protocol.error_response(500, str(exc)), ()
        return route, status, payload, ()


def stop_on_signals() -> asyncio.Event:
    """An event that SIGINT or SIGTERM sets; call on the running loop."""
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            signal.signal(sig, lambda *_: stop.set())
    return stop


class ServiceThread:
    """Run an :class:`HttpService` on a background thread with its own
    loop: start, bound-port discovery and graceful stop behind a
    context manager."""

    def __init__(self, service: HttpService) -> None:
        self.service = service
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def start(self, timeout: float = 60.0):
        role = self.service.role
        self._thread = threading.Thread(
            target=self._main, name=f"repro-{role}", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=timeout):
            raise RuntimeError(f"{role} thread failed to start in time")
        if self._failure is not None:
            raise RuntimeError(f"{role} thread failed to start") from self._failure
        return self

    def _main(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await self.service.start()
            except BaseException as exc:
                self._failure = exc
                self._ready.set()
                raise
            self._ready.set()
            await self._stop.wait()
            await self.service.shutdown()

        try:
            asyncio.run(main())
        except BaseException as exc:  # pragma: no cover - surfaced via start()
            if not self._ready.is_set():
                self._failure = exc
                self._ready.set()

    @property
    def url(self) -> str:
        return self.service.url

    def stop(self, timeout: float = 15.0) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=timeout)

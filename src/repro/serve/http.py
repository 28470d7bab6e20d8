"""HTTP/1.1 framing for the serve tier, written once.

A deliberately small HTTP/1.1 over ``asyncio`` streams (stdlib only):
request line + headers + ``Content-Length`` body, keep-alive by
default.  Every process in the tier frames its traffic here:

* the service skeleton (:mod:`repro.serve.service`) that the server
  and the router run on parses with :func:`read_request` and answers
  with :func:`encode_response`;
* the router calls its shards through one pooled :class:`HttpClient`
  per shard URL;
* the load generator keeps one raw connection per worker and frames
  with :func:`encode_request` / :func:`read_response` only, so every
  transport error is counted rather than retried away;
* the CLI and the chaos drill use the one-shot :func:`post_json`,
  :func:`fetch_text` and :func:`fetch_json`, which never retry either.

A reply that cannot be framed raises :class:`MalformedResponse`, a
:class:`ConnectionError`, so callers treat it like any other transport
failure.  (The supervisor's blocking ``/healthz`` probe uses stdlib
``http.client`` from its own thread; that is not framing by hand.)
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from urllib.parse import urlsplit

from ..exec.faults import _hash01

MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 1024 * 1024

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    413: "Payload Too Large", 429: "Too Many Requests", 500: "Internal Server Error",
    502: "Bad Gateway", 503: "Service Unavailable", 504: "Gateway Timeout",
}

#: Backstop pause when a 429 carries no (or an unparsable) Retry-After.
DEFAULT_RETRY_AFTER_S = 0.05
#: Longest a client will honor a single Retry-After for.
MAX_RETRY_AFTER_S = 5.0


# -- server side ---------------------------------------------------------


@dataclass
class HttpRequest:
    method: str
    path: str
    headers: dict[str, str]
    body: bytes
    keep_alive: bool = True


class BadRequest(Exception):
    """Malformed HTTP; answered with a 400 and a closed connection."""


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one HTTP/1.1 request; ``None`` on clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise BadRequest("truncated request head")
    except asyncio.LimitOverrunError:
        raise BadRequest("request head too large")
    if len(head) > MAX_HEADER_BYTES:
        raise BadRequest("request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise BadRequest(f"malformed request line {lines[0]!r}")
    method, target, version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise BadRequest(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise BadRequest(f"bad Content-Length {length_text!r}")
    if length < 0 or length > _MAX_BODY_BYTES:
        raise BadRequest(f"Content-Length {length} out of range")
    body = await reader.readexactly(length) if length else b""
    connection = headers.get("connection", "").lower()
    keep_alive = connection != "close" and version != "HTTP/1.0"
    return HttpRequest(
        method=method, path=target, headers=headers, body=body, keep_alive=keep_alive
    )


def encode_response(
    status: int,
    payload: dict | str,
    keep_alive: bool,
    extra_headers: tuple[tuple[str, str], ...] = (),
) -> bytes:
    if isinstance(payload, str):
        body = payload.encode()
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = (json.dumps(payload) + "\n").encode()
        content_type = "application/json"
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


# -- client side ---------------------------------------------------------


class MalformedResponse(ConnectionError):
    """A reply that is not framed HTTP/1.1: the connection is unusable,
    which callers count as a transport failure."""


def encode_request(method: str, path: str, host: str, body: bytes = b"") -> bytes:
    """One keep-alive request with a JSON (or empty) body; ``host`` is
    ``host:port``."""
    return (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    ).encode() + body


async def read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str], bytes]:
    """Read one ``Content-Length``-framed response.

    Returns ``(status, headers, body)`` with header names lowercased.
    A peer that closes before sending a byte raises
    :class:`ConnectionResetError`; a head that does not parse raises
    :class:`MalformedResponse`.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise ConnectionResetError("peer closed the connection") from None
        raise MalformedResponse("truncated response head") from None
    except asyncio.LimitOverrunError:
        raise MalformedResponse("response head too large") from None
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    try:
        status = int(parts[1])
    except (IndexError, ValueError):
        status = 0
    if not parts[0].startswith("HTTP/1.") or not 100 <= status <= 999:
        raise MalformedResponse(f"malformed status line {lines[0]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise MalformedResponse(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise MalformedResponse(f"bad Content-Length {length_text!r}") from None
    if length < 0:
        raise MalformedResponse(f"Content-Length {length} out of range")
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


class HttpClient:
    """A pooled keep-alive client for one base URL (one event loop).

    Connections wait on a free list between requests.  A request that
    fails on a *pooled* connection (its peer restarted, an idle reap)
    is retried once on a fresh one; a fresh connection's failure, a
    malformed reply or the deadline is raised.  Whatever the exception,
    cancellation included, the connection it was using is closed, never
    pooled half-read.
    """

    def __init__(self, url: str) -> None:
        split = urlsplit(url)
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self._free: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def request(
        self, method: str, path: str, body: bytes = b"",
        timeout: float | None = None,
    ) -> tuple[int, bytes]:
        """One exchange, bounded as a whole by ``timeout`` seconds
        (:class:`asyncio.TimeoutError` past it); ``(status, body)``."""
        data = encode_request(method, path, f"{self.host}:{self.port}", body)
        if timeout is None:
            return await self._request(data)
        return await asyncio.wait_for(self._request(data), timeout)

    async def _request(self, data: bytes) -> tuple[int, bytes]:
        while self._free:
            reader, writer = self._free.pop()
            if writer.is_closing():
                continue
            try:
                return await self._exchange(reader, writer, data)
            except MalformedResponse:
                raise
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                break  # a stale pooled connection: retry once, fresh
        reader, writer = await asyncio.open_connection(self.host, self.port)
        return await self._exchange(reader, writer, data)

    async def _exchange(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
        data: bytes,
    ) -> tuple[int, bytes]:
        try:
            writer.write(data)
            await writer.drain()
            status, headers, body = await read_response(reader)
        except BaseException:
            writer.close()
            raise
        if "close" in headers.get("connection", "").lower():
            writer.close()
        else:
            self._free.append((reader, writer))
        return status, body

    def close(self) -> None:
        for _reader, writer in self._free:
            writer.close()
        self._free.clear()


async def _one_shot(
    url: str, method: str, path: str, body: bytes = b""
) -> tuple[int, bytes]:
    """One exchange on a fresh connection: a fresh client has no pooled
    connection to retry, so every failure reaches the caller."""
    client = HttpClient(url)
    try:
        return await client.request(method, path, body)
    finally:
        client.close()


async def post_json(url: str, path: str, doc: dict) -> tuple[int, dict]:
    """POST one JSON document over a one-shot connection."""
    status, body = await _one_shot(url, "POST", path, json.dumps(doc).encode())
    return status, json.loads(body.decode() or "null")


async def fetch_text(url: str, path: str = "/metrics") -> str:
    """GET a text endpoint over a one-shot connection; raises
    :class:`RuntimeError` on a non-200 answer."""
    status, body = await _one_shot(url, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} returned {status}")
    return body.decode()


async def fetch_json(url: str, path: str) -> dict:
    """GET a JSON endpoint (e.g. ``/v1/shards``) over a one-shot
    connection; raises on non-200 like :func:`fetch_text`."""
    return json.loads(await fetch_text(url, path))


def retry_after_delay(
    headers: dict[str, str], token: str, fallback: float = DEFAULT_RETRY_AFTER_S
) -> float:
    """How long to back off after a 429, from its ``Retry-After``.

    The server's hint is taken as a *minimum*, stretched by a
    deterministic 0-50% jitter keyed on ``token`` so a fleet of
    rejected workers does not re-dogpile the server on the same tick
    (the retry ladder's jitter trick, anchored at 1.0x instead of
    0.5x so no worker returns earlier than asked).  Capped at
    :data:`MAX_RETRY_AFTER_S`; an absent or unparsable header (e.g.
    an HTTP-date, which this module does not speak) falls back to a
    short fixed pause.
    """
    value = headers.get("retry-after")
    try:
        hint = float(value) if value is not None else fallback
    except ValueError:
        hint = fallback
    hint = max(0.0, hint)
    return min(MAX_RETRY_AFTER_S, hint * (1.0 + 0.5 * _hash01(token)))

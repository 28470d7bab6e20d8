"""A minimal HTTP/1.1 keep-alive client over asyncio streams.

The benchmark frames its own requests rather than importing the
program's client code, so the instrument stays fixed while the code it
measures changes.
"""

from __future__ import annotations

import asyncio


class Connection:
    """One keep-alive connection; reopened lazily after a drop."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.reconnects = 0

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int | None, bytes]:
        """``(status, body)``; status ``None`` when the server dropped the
        connection without an answer."""
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
            self.reconnects += 1
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        try:
            self.writer.write(head.encode() + body)
            await self.writer.drain()
            raw = await self.reader.readuntil(b"\r\n\r\n")
            lines = raw.decode("latin-1").split("\r\n")
            status = int(lines[0].split(" ", 2)[1])
            length, close = 0, False
            for line in lines[1:]:
                name, _, value = line.partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "connection":
                    close = value.strip().lower() == "close"
            payload = await self.reader.readexactly(length) if length else b""
        except (asyncio.IncompleteReadError, ConnectionError):
            self.close()
            return None, b""
        if close:
            self.close()
        return status, payload

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None

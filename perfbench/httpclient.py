"""Minimal keep-alive HTTP/1.1 client over asyncio streams (stdlib only)."""

from __future__ import annotations

import asyncio


class Connection:
    """One persistent connection issuing sequential GET requests."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int, host: str = "127.0.0.1") -> "Connection":
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 20)
        return cls(reader, writer)

    async def get(self, path: str, headers: dict[str, str] | None = None):
        """``(status, headers, body)`` of one ``GET`` with a Content-Length body."""
        extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
        self.writer.write(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n{extra}\r\n".encode()
        )
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        head: dict[str, str] = {}
        while True:
            line = await self.reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            head[name.strip().lower()] = value.strip()
        body = await self.reader.readexactly(int(head.get("content-length", "0")))
        return status, head, body

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

"""A blocking client for the wire protocol.

:class:`ServeClient` is the synchronous counterpart of the asyncio
server: one TCP connection, one request at a time, the full response
dict back (``status``, ``result``, ``reason``, ...).  It deliberately
does **not** raise on non-200 statuses -- 429/206/503 are normal
vocabulary of an admission-controlled server and callers (the CLI,
the examples, the tests) branch on them; only transport-level failures
raise :class:`ServeConnectionError`::

    with ServeClient("127.0.0.1", 8723) as c:
        fp = c.datasets()["result"][0]["fingerprint"]
        resp = c.window(fp, [100, 100, 400, 300])
        if resp["status"] == 200:
            ids = resp["result"]
"""

from __future__ import annotations

import socket
import time
from typing import List, Optional

from .protocol import ProtocolError, recv_frame_sock, send_frame_sock

__all__ = ["ServeConnectionError", "ServeClient", "connect_with_retry"]


class ServeConnectionError(ConnectionError):
    """The server is unreachable or hung up mid-exchange."""


def connect_with_retry(host: str, port: int, timeout: float = 5.0,
                       interval: float = 0.05) -> socket.socket:
    """Dial until the listener is up (races server startup in CI)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise ServeConnectionError(
                    f"no server at {host}:{port} within {timeout}s") from exc
            time.sleep(interval)


class ServeClient:
    """One blocking protocol connection with sequential request/response.

    A shed or restarting server closes connections; rather than raising
    on the first closed socket, :meth:`request` redials up to
    ``reconnect_attempts`` times with exponential backoff and resends
    the request.  Requests are safe to resend: probes are read-only and
    mutations are admission-refused or acked as a whole, so a retry
    after a mid-exchange hangup can at worst re-apply an *acked* batch
    -- which the server's MVCC chain answers idempotently for the
    common localized workloads, and which callers needing exactly-once
    semantics disable with ``reconnect_attempts=0`` (the raw
    :meth:`send_only`/:meth:`recv` pair never reconnects).
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 connect_timeout: float = 5.0, reconnect_attempts: int = 3,
                 reconnect_backoff: float = 0.05):
        if reconnect_attempts < 0:
            raise ValueError("reconnect_attempts must be >= 0")
        if reconnect_backoff < 0:
            raise ValueError("reconnect_backoff must be >= 0")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_backoff = reconnect_backoff
        self.reconnects = 0
        self._sock = connect_with_retry(host, port, timeout=connect_timeout)
        self._sock.settimeout(timeout)
        self._next_id = 0
        self._closed = False

    # -- plumbing --------------------------------------------------------

    def _reconnect(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
        self._sock = connect_with_retry(self.host, self.port,
                                        timeout=self.connect_timeout)
        self._sock.settimeout(self.timeout)
        self.reconnects += 1

    def request(self, kind: str, **fields) -> dict:
        """Send one request and block for its response.

        Transparently redials and resends on a closed/failed connection
        (up to ``reconnect_attempts`` times, exponential backoff);
        transport failure past the budget raises
        :class:`ServeConnectionError`.
        """
        self._next_id += 1
        req = {"id": self._next_id, "kind": kind, **{
            k: v for k, v in fields.items() if v is not None}}
        attempt = 0
        while True:
            try:
                return self._exchange(req)
            except ServeConnectionError:
                if self._closed or attempt >= self.reconnect_attempts:
                    raise
                attempt += 1
                if self.reconnect_backoff:
                    time.sleep(min(
                        self.reconnect_backoff * 2 ** (attempt - 1), 1.0))
                self._reconnect()

    def _exchange(self, req: dict) -> dict:
        try:
            send_frame_sock(self._sock, req)
            while True:
                resp = recv_frame_sock(self._sock)
                if resp is None:
                    raise ServeConnectionError(
                        "server closed the connection (shed or shutdown)")
                if resp.get("id") in (req["id"], None):
                    return resp
                # a stale response from an earlier abandoned exchange
        except (OSError, ProtocolError) as exc:
            raise ServeConnectionError(str(exc)) from exc

    def send_only(self, obj: dict) -> None:
        """Fire one raw frame without reading (pipelining in tests)."""
        try:
            send_frame_sock(self._sock, obj)
        except OSError as exc:
            raise ServeConnectionError(str(exc)) from exc

    def recv(self) -> Optional[dict]:
        """Read one raw frame (pairs with :meth:`send_only`)."""
        try:
            return recv_frame_sock(self._sock)
        except (OSError, ProtocolError) as exc:
            raise ServeConnectionError(str(exc)) from exc

    # -- request kinds ---------------------------------------------------

    def window(self, fingerprint: str, rect: List[float],
               structure: Optional[str] = None, exact: Optional[bool] = None,
               deadline_ms: Optional[float] = None) -> dict:
        return self.request("window", fingerprint=fingerprint,
                            rect=list(rect), structure=structure,
                            exact=exact, deadline_ms=deadline_ms)

    def point(self, fingerprint: str, point: List[float],
              structure: Optional[str] = None, exact: Optional[bool] = None,
              deadline_ms: Optional[float] = None) -> dict:
        return self.request("point", fingerprint=fingerprint,
                            point=list(point), structure=structure,
                            exact=exact, deadline_ms=deadline_ms)

    def nearest(self, fingerprint: str, point: List[float],
                structure: Optional[str] = None,
                deadline_ms: Optional[float] = None) -> dict:
        return self.request("nearest", fingerprint=fingerprint,
                            point=list(point), structure=structure,
                            deadline_ms=deadline_ms)

    def join(self, fingerprint: str, fingerprint_b: str,
             structure: Optional[str] = None) -> dict:
        return self.request("join", fingerprint=fingerprint,
                            fingerprint_b=fingerprint_b, structure=structure)

    def insert(self, fingerprint: str, lines) -> dict:
        """Append segments; ``lines`` is rows of ``[x0, y0, x1, y1]``."""
        rows = [[float(v) for v in row] for row in lines]
        return self.request("insert", fingerprint=fingerprint, lines=rows)

    def delete(self, fingerprint: str, ids) -> dict:
        """Delete segments by current-version row ids."""
        return self.request("delete", fingerprint=fingerprint,
                            ids=[int(v) for v in ids])

    def health(self) -> dict:
        return self.request("health")

    def datasets(self) -> dict:
        return self.request("datasets")

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

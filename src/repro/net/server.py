"""The asyncio serving front-end over :class:`SpatialQueryEngine`.

:class:`SpatialServer` binds a TCP port, speaks the length-prefixed
JSON protocol of :mod:`repro.net.protocol`, and feeds every admitted
probe into the engine's request coalescer -- so concurrent network
clients share the same vectorized engine batches that in-process
callers do.  The bridge from the asyncio world to the engine's
thread-side futures is :func:`_bridge`: the engine keeps returning
``concurrent.futures.Future`` and the connection handler awaits it
without blocking the loop -- resolved in place when a kicked batch
runs on the loop thread, woken through the loop's self-pipe only when
a pool thread answers; cancelling the awaiting task
(client gone, server timeout) cancels the probe future, which the
coalescer's batch delivery already tolerates -- a dropped client never
stalls or poisons the batch its probe rode in.

What the wire adds on top of the engine:

* **admission control** (:mod:`repro.net.admission`) -- brownout
  shedding, per-client in-flight fairness, optional per-client rate
  limits -- answered as structured 503/429 frames *before* the request
  costs engine resources;
* **status mapping** -- the engine's overload and failure vocabulary
  becomes protocol statuses: executor backpressure and open breakers
  are 429 ``RETRY_AFTER`` (with a ``retry_after_ms`` hint), an expired
  deadline's :class:`~repro.resilience.PartialResult` is a 206 carrying
  ``shards_dropped``, unknown fingerprints are 404, schema errors 400,
  engine faults 500;
* **dynamic updates** -- ``insert``/``delete`` request kinds route
  into the engine's MVCC mutation path; they are admission-controlled
  like probes, and every probe/mutation response echoes the dataset
  ``version`` it was computed against (joins echo ``versions``), so a
  client can correlate answers with snapshots;
* **observability** -- :class:`ServerStats` counts connections,
  requests per kind, responses per status, bytes both ways, and
  mid-flight disconnects; the ``health`` request kind (never
  admission-controlled) returns it next to the engine's own
  :meth:`~repro.engine.SpatialQueryEngine.health` snapshot.

:class:`ServerThread` runs a server on a background event loop for
tests, benchmarks, and embedding into synchronous programs.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, Optional, Set, Tuple

import numpy as np

from ..resilience import CircuitOpenError, PartialResult
from ..errors import EngineError
from ..counters import Counter, Counters
from ..engine.executor import RejectedError
from .admission import AdmissionController
from .protocol import (BAD_REQUEST, INTERNAL, MUTATION_KINDS, NOT_FOUND,
                       OK, PARTIAL, RETRY_AFTER, SHED, ProtocolError,
                       jsonable, parse_request, read_frame, write_frame)

__all__ = ["ServerStats", "SpatialServer", "ServerThread"]


def _bridge(engine_fut) -> "asyncio.Future":
    """An awaitable of the running loop mirroring ``engine_fut``.

    A future that completes on the loop thread (a kicked batch runs
    there) is copied in place; one that completes on another thread is
    copied through ``call_soon_threadsafe``, the only path that writes
    to the loop's self-pipe.  :func:`asyncio.wrap_future` always takes
    that path.  Cancelling the awaitable cancels ``engine_fut``.
    """
    loop = asyncio.get_running_loop()
    fut = loop.create_future()
    home = threading.get_ident()

    def copy(src) -> None:
        if fut.cancelled():
            return
        if src.cancelled():
            fut.cancel()
        elif src.exception() is not None:
            fut.set_exception(src.exception())
        else:
            fut.set_result(src.result())

    def done(src) -> None:
        if threading.get_ident() == home:
            copy(src)
        elif not loop.is_closed():
            loop.call_soon_threadsafe(copy, src)

    def cancelled(f) -> None:
        if f.cancelled():
            engine_fut.cancel()

    fut.add_done_callback(cancelled)
    engine_fut.add_done_callback(done)
    return fut


class ServerStats(Counters):
    """Socket-edge counters, one declared row each (loop-thread only, so
    the handlers bump the attributes directly; read via :meth:`snapshot`)."""

    ROWS = (
        Counter("connections_total"),
        Counter("connections_open"),
        Counter("connections_shed"),
        Counter("disconnects_inflight"),   # dropped with work pending
        Counter("requests_total"),
        Counter("per_kind", labels={}),    # request kind -> requests
        Counter("per_status", labels={}),  # response status -> responses
        Counter("cancelled_inflight"),   # futures cancelled on disconnect
        Counter("request_timeouts"),       # server-side wall cap expirations
        Counter("requests_drained"),       # refused with 503 shutting_down
        Counter("bad_frames"),
        Counter("bytes_in"),
        Counter("bytes_out"),
    )

    def record_request(self, kind: str) -> None:
        self.inc(requests_total=1, per_kind={kind: 1})

    def snapshot(self) -> Dict[str, object]:
        out = self.walk()
        out["per_status"] = {str(k): v
                             for k, v in sorted(out["per_status"].items())}
        return out


class SpatialServer:
    """One engine behind one TCP listen address.

    The server borrows the engine (it never closes it); several servers
    could front one engine, though one is the normal shape.
    """

    def __init__(self, engine, host: str = "127.0.0.1", port: int = 0, *,
                 max_connections: int = 256, max_inflight: int = 1024,
                 client_inflight: int = 64,
                 client_rate: Optional[float] = None,
                 client_burst: Optional[float] = None,
                 request_timeout: Optional[float] = 30.0,
                 retry_hint: float = 0.05):
        self.engine = engine
        self.host = host
        self.port = port
        self.stats = ServerStats()
        self.admission = AdmissionController(
            max_connections=max_connections, max_inflight=max_inflight,
            client_inflight=client_inflight, client_rate=client_rate,
            client_burst=client_burst, retry_hint=retry_hint)
        self.request_timeout = request_timeout
        self._server: Optional[asyncio.base_events.Server] = None
        self._next_conn_id = 0
        self._conn_tasks: Set[asyncio.Task] = set()
        self._probe_tasks: Set[asyncio.Task] = set()
        self._draining = False
        self._kick_scheduled = False

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(self._handle_conn,
                                                  self.host, self.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop listening and end every connection task.

        Handlers before ``wait_closed()`` (from 3.12 on it waits for
        every connection to drop), and re-collected until none is left:
        a connection accepted just before the listener closed registers
        its task while the first ones are being awaited.
        """
        if self._server is not None:
            self._server.close()
        while self._conn_tasks:
            tasks = list(self._conn_tasks)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    # -- graceful drain ---------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Refuse new work (structured 503 ``shutting_down``) from now on.

        Connections stay open and introspection (``health``,
        ``datasets``) keeps answering, so clients and load balancers can
        observe the shutdown instead of hitting a closed port.
        """
        self._draining = True

    async def drain(self, timeout: float = 30.0) -> bool:
        """Graceful shutdown: refuse new work, finish in-flight work.

        Stops accepting connections, lets every already-admitted probe
        or mutation run to completion (bounded by ``timeout``; leftovers
        are cancelled), then flushes the engine so pending mutation
        commits -- and their journal records -- settle before the caller
        exits.  Returns ``True`` when everything drained in time.
        """
        self.begin_drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = {t for t in self._probe_tasks if not t.done()}
        clean = True
        if pending:
            done, left = await asyncio.wait(pending, timeout=timeout)
            for task in left:
                clean = False
                task.cancel()
            if left:
                await asyncio.gather(*left, return_exceptions=True)
        # settle mutation commits (journal appends included) off-loop
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.engine.flush)
        return clean

    # -- health ----------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """The ``health`` request body: server edge + engine internals."""
        engine_health = self.engine.health()
        return {
            "status": ("draining" if self._draining
                       else engine_health["status"]),
            "draining": self._draining,
            "listen": {"host": self.host, "port": self.port},
            "server": {**self.stats.snapshot(),
                       "admission": self.admission.snapshot()},
            "engine": engine_health,
        }

    # -- connection handling ---------------------------------------------

    def _handle_conn(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """``start_server`` callback: one tracked task per connection.

        A plain function, so the task is in ``_conn_tasks`` from the
        moment the connection exists -- :meth:`close` can never miss a
        handler that was created but had not run its first step yet.
        """
        task = asyncio.ensure_future(self._serve_conn(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        # the transport closes when the task ends, however it ends: a
        # task cancelled before its first step (close() right after the
        # accept) never runs _serve_conn's finally, and its socket would
        # stay open -- the client hanging on it -- until the loop is gone
        task.add_done_callback(lambda _task: writer.close())

    async def _serve_conn(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        conn_id = self._next_conn_id
        self._next_conn_id += 1
        self.stats.connections_total += 1
        write_lock = asyncio.Lock()
        if not self.admission.connect(conn_id):
            self.stats.connections_shed += 1
            await self._respond(writer, write_lock, {
                "id": None, "status": SHED, "reason": "max_connections",
                "error": "server connection limit reached",
                "retry_after_ms": int(self.admission.retry_hint * 1e3)})
            writer.close()
            return
        self.stats.connections_open += 1
        tasks: Set[asyncio.Task] = set()
        try:
            await self._read_loop(reader, writer, write_lock, conn_id, tasks)
        except asyncio.CancelledError:
            pass   # server shutdown: fall through to the same teardown
        except (ConnectionError, TimeoutError, OSError):
            pass   # peer vanished: the finally block settles the books
        finally:
            if tasks:
                # the cancelled-future path: in-flight probes of a dead
                # connection are cancelled, never awaited to completion
                self.stats.disconnects_inflight += 1
                for t in tasks:
                    t.cancel()
                try:
                    await asyncio.gather(*tasks, return_exceptions=True)
                except asyncio.CancelledError:
                    pass
            self.admission.disconnect(conn_id)
            self.stats.connections_open -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    async def _read_loop(self, reader, writer, write_lock,
                         conn_id: int, tasks: Set[asyncio.Task]) -> None:
        while True:
            try:
                frame = await read_frame(reader, count=self._count_in)
            except ProtocolError as exc:
                self.stats.bad_frames += 1
                await self._respond(writer, write_lock, {
                    "id": None, "status": BAD_REQUEST,
                    "reason": exc.reason, "error": str(exc)})
                return   # framing broken: the stream cannot be trusted
            if frame is None:
                return   # clean EOF
            try:
                req = parse_request(frame)
            except ProtocolError as exc:
                self.stats.record_request("invalid")
                await self._respond(writer, write_lock, {
                    "id": frame.get("id"), "status": BAD_REQUEST,
                    "reason": exc.reason, "error": str(exc)})
                continue
            self.stats.record_request(req["kind"])
            if req["kind"] in ("health", "datasets"):
                # introspection stays answerable during brownout & drain
                await self._respond(writer, write_lock,
                                    self._introspect(req))
                continue
            if self._draining:
                self.stats.requests_drained += 1
                await self._respond(writer, write_lock, {
                    "id": req["id"], "status": SHED,
                    "reason": "shutting_down",
                    "error": "server is draining for shutdown",
                    "retry_after_ms": int(self.admission.retry_hint * 1e3)})
                continue
            verdict = self.admission.admit(conn_id)
            if not verdict.ok:
                await self._respond(writer, write_lock, {
                    "id": req["id"], "status": verdict.status,
                    "reason": verdict.reason,
                    "error": f"admission refused: {verdict.reason}",
                    "retry_after_ms": int(verdict.retry_after * 1e3) or 1})
                continue
            task = asyncio.ensure_future(
                self._run_probe(req, conn_id, writer, write_lock))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
            self._probe_tasks.add(task)
            task.add_done_callback(self._probe_tasks.discard)

    def _count_in(self, n: int) -> None:
        self.stats.bytes_in += n

    def _introspect(self, req: dict) -> dict:
        if req["kind"] == "health":
            return {"id": req["id"], "status": OK, "result": self.health()}
        return {"id": req["id"], "status": OK,
                "result": self.engine.datasets_info()}

    # -- probes ----------------------------------------------------------

    def _submit(self, req: dict):
        """Route one parsed request into the engine (may raise)."""
        kind = req["kind"]
        if kind == "window":
            return self.engine.submit_window(
                req["fingerprint"], req["rect"], structure=req["structure"],
                exact=req["exact"], deadline=req["deadline"])
        if kind == "point":
            return self.engine.submit_point(
                req["fingerprint"], req["point"], structure=req["structure"],
                exact=req["exact"], deadline=req["deadline"])
        if kind == "nearest":
            return self.engine.submit_nearest(
                req["fingerprint"], req["point"], structure=req["structure"],
                deadline=req["deadline"])
        if kind == "insert":
            return self.engine.submit_insert(
                req["fingerprint"],
                np.asarray(req["lines"], dtype=np.float64).reshape(-1, 4))
        if kind == "delete":
            return self.engine.submit_delete(
                req["fingerprint"], np.asarray(req["ids"], dtype=np.int64))
        return self.engine.submit_join(req["fingerprint"],
                                       req["fingerprint_b"],
                                       structure=req["structure"])

    async def _run_probe(self, req: dict, conn_id: int, writer,
                         write_lock) -> None:
        engine_fut = None
        try:
            try:
                engine_fut = self._submit(req)
                self._schedule_kick()
                fut = _bridge(engine_fut)
                if self.request_timeout is not None:
                    result = await asyncio.wait_for(fut, self.request_timeout)
                else:
                    result = await fut
            except asyncio.CancelledError:
                # disconnect mid-flight: the wrapped engine future was
                # cancelled with us; the batch it rode in is unharmed
                self.stats.cancelled_inflight += 1
                raise
            except asyncio.TimeoutError:
                self.stats.request_timeouts += 1
                resp = {"id": req["id"], "status": INTERNAL,
                        "reason": "server_timeout",
                        "error": f"no engine answer within "
                                 f"{self.request_timeout}s"}
            except BaseException as exc:  # noqa: BLE001 - mapped to statuses
                resp = self._error_response(req, exc)
            else:
                resp = self._ok_response(req, result, engine_fut)
            await self._respond(writer, write_lock, resp)
        finally:
            self.admission.release(conn_id)

    def _schedule_kick(self) -> None:
        """Kick the engine once after this loop pass: every request the
        pass read is submitted by then, so a burst read in one pass
        becomes one group per index, and a lone request on an idle
        engine is dispatched without waiting out ``max_wait``."""
        if not self._kick_scheduled:
            self._kick_scheduled = True
            asyncio.get_running_loop().call_soon(self._kick)

    def _kick(self) -> None:
        self._kick_scheduled = False
        self.engine.kick()

    def _ok_response(self, req: dict, result, engine_fut=None) -> dict:
        resp = {"id": req["id"], "status": OK}
        if isinstance(result, PartialResult):
            resp["status"] = PARTIAL
            resp["shards_dropped"] = result.shards_dropped
            resp["shards_completed"] = result.shards_completed
            result = result.value
        resp["result"] = _encode_result(req["kind"], result)
        # snapshot provenance: which dataset version answered (MVCC)
        version = getattr(engine_fut, "version", None)
        if version is not None:
            resp["version"] = int(version)
        versions = getattr(engine_fut, "versions", None)
        if versions is not None:
            resp["versions"] = [int(v) for v in versions]
        return resp

    def _error_response(self, req: dict, exc: BaseException) -> dict:
        resp = {"id": req["id"], "error": str(exc)}
        if isinstance(exc, CircuitOpenError):
            resp["status"] = RETRY_AFTER
            resp["reason"] = "circuit_open"
            retry = exc.retry_after if exc.retry_after is not None else 1.0
            resp["retry_after_ms"] = max(int(retry * 1e3), 1)
        elif isinstance(exc, RejectedError):
            # executor backpressure (queue_full) or engine shutdown
            resp["status"] = RETRY_AFTER
            resp["reason"] = exc.reason
            resp["retry_after_ms"] = int(self.admission.retry_hint * 1e3)
        elif isinstance(exc, KeyError):
            resp["status"] = NOT_FOUND
            resp["reason"] = "unknown_fingerprint"
        elif isinstance(exc, (ValueError, TypeError, IndexError)):
            # IndexError: a mutation naming delete ids out of range
            resp["status"] = BAD_REQUEST
            resp["reason"] = "invalid_argument"
        else:
            resp["status"] = INTERNAL
            resp["reason"] = getattr(exc, "reason", "internal")
        return resp

    async def _respond(self, writer, write_lock, resp: dict) -> None:
        self.stats.inc(per_status={resp["status"]: 1})
        try:
            async with write_lock:
                self.stats.bytes_out += await write_frame(writer, resp)
        except (ConnectionError, RuntimeError, OSError):
            pass   # peer gone; the read loop notices and tears down


def _encode_result(kind: str, result):
    """Engine result -> the kind's documented JSON shape."""
    if kind in ("window", "point"):
        return np.asarray(result, dtype=np.int64).tolist()
    if kind == "nearest":
        gid, dist = result
        return [int(gid), float(dist)]
    if kind in MUTATION_KINDS:
        # MutationResult: the committed snapshot's identity and size
        return {"fingerprint": result.fingerprint,
                "root": result.root,
                "num_lines": int(result.num_lines),
                "inserted": int(result.inserted),
                "deleted": int(result.deleted)}
    # join: (N, 2) id pairs
    return np.asarray(result, dtype=np.int64).reshape(-1, 2).tolist()


class ServerThread:
    """A :class:`SpatialServer` on a background event loop.

    The synchronous embedding tests and benchmarks want: construct,
    read ``.host``/``.port``, drive it with blocking clients, then
    :meth:`stop`.  The engine's lifetime stays the caller's problem.
    """

    def __init__(self, engine, **server_kw):
        self.server = SpatialServer(engine, **server_kw)
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-net-server")
        self._thread.start()
        self._started.wait(timeout=10)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._started.is_set():
            raise RuntimeError("server failed to start within 10s")

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            # as asyncio.run does: no task may outlive its loop.  A
            # connection the listener accepted as it closed can still be
            # on its way to a handler task; left pending it would run
            # its cleanup from the garbage collector, on a closed loop
            while pending := asyncio.all_tasks(self._loop):
                for task in pending:
                    task.cancel()
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            self._loop.close()

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:  # bind failure -> the constructor
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        serve = asyncio.ensure_future(self.server.serve_forever())
        await self._stop.wait()
        serve.cancel()
        try:
            await serve
        except (asyncio.CancelledError, Exception):
            pass
        await self.server.close()

    def drain(self, timeout: float = 30.0) -> bool:
        """Run the server's graceful drain from the calling thread."""
        if not self._thread.is_alive():
            return True
        fut = asyncio.run_coroutine_threadsafe(
            self.server.drain(timeout), self._loop)
        return fut.result(timeout + 10)

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(timeout=10)

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

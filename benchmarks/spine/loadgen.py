"""Single-threaded ``select`` load generator: one connection, one loop.

With the server subprocess that makes two busy processes on a two-core
host.  A round is a fixed number of ops: closed-loop rounds keep a fixed
number of requests outstanding (free-running or in waves); paced rounds
send on a schedule and time every request from its scheduled departure.
"""

from __future__ import annotations

import json
import select
import socket
import struct
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.net import encode_frame

from . import probes
from .spec import MAP, SERVE_MIXED

STALL_S = 60.0       # no response for this long fails the run
WRITE_ID = 1 << 20   # request ids at or above this are writes

Issue = Callable[[], Optional[Tuple[int, bytes]]]
Settle = Callable[[int, dict, int], bool]


class Wire:
    """Non-blocking length-prefixed JSON frames on one socket."""

    def __init__(self, sock: socket.socket):
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self._in = bytearray()
        self._out = bytearray()

    def queue(self, frame: bytes) -> None:
        self._out += frame

    def pump(self, timeout: float) -> List[Tuple[dict, int]]:
        """Flush what is queued; returns the ``(response, wire bytes)``
        pairs that arrive within ``timeout``."""
        if self._out:
            try:
                sent = self.sock.send(self._out)
                del self._out[:sent]
            except BlockingIOError:
                pass
        readable, _, _ = select.select(
            [self.sock], [self.sock] if self._out else [], [], timeout)
        got = []
        if readable:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise RuntimeError("server closed the connection")
            self._in += chunk
            while len(self._in) >= 4:
                (n,) = struct.unpack_from(">I", self._in)
                if len(self._in) < 4 + n:
                    break
                got.append((json.loads(bytes(self._in[4:4 + n])), 4 + n))
                del self._in[:4 + n]
        return got

    def ask(self, request: dict) -> dict:
        """One blocking exchange (introspection, outside timed rounds)."""
        self.queue(encode_frame({"id": "ask", **request}))
        deadline = perf_counter() + STALL_S
        while perf_counter() < deadline:
            for resp, _ in self.pump(1.0):
                if resp.get("id") == "ask":
                    return resp
        raise RuntimeError(f"no answer to {request['kind']} in {STALL_S}s")

    def close(self) -> None:
        self.sock.close()


def closed_round(wire: Wire, n_ops: int, inflight: int, issue: Issue,
                 settle: Settle, waves: bool = False) -> dict:
    """One closed-loop round of ``n_ops`` ops, drained before it returns.

    Free-running (``waves=False``): ``inflight`` requests are kept
    outstanding, each answer releasing the next request.  In waves:
    ``inflight`` requests leave together, and the next ``inflight`` once
    all of them are answered.  ``issue()`` yields the next ``(id,
    frame)`` in stream order, or None while the stream must wait for an
    answer; ``settle(id, response, bytes)`` says whether the op
    succeeded.
    """
    pending: Dict[int, float] = {}
    lat: List[float] = []
    failed = issued = 0
    start = last = perf_counter()
    while True:
        now = perf_counter()
        if not pending or not waves:
            while len(pending) < inflight and issued < n_ops:
                nxt = issue()
                if nxt is None:
                    break
                pending[nxt[0]] = now
                wire.queue(nxt[1])
                issued += 1
        if not pending:
            break
        for resp, nbytes in wire.pump(1.0):
            last = perf_counter()
            sent = pending.pop(resp["id"])
            if settle(resp["id"], resp, nbytes):
                lat.append(last - sent)
            else:
                failed += 1
        if perf_counter() - last > STALL_S:
            raise RuntimeError(f"{len(pending)} requests stalled")
    return {"lat": lat, "elapsed": last - start, "failed": failed}


def paced_round(wire: Wire, n: int, rate: float, issue: Issue,
                settle: Settle, max_inflight: int) -> dict:
    """One open-loop round of ``n`` requests at ``rate``: each is timed
    from its scheduled departure; ``late`` is how far behind its own
    schedule the generator sent it.

    A request that is due while ``max_inflight`` are unanswered waits for
    an answer (and its wait counts, being timed from when it was due):
    past its per-connection cap the server answers 429, and a stall of
    the host long enough to get there must slow the run, not fail it.
    """
    due = perf_counter() + 0.01 + np.arange(n) / rate
    pending: Dict[int, float] = {}
    lat: List[float] = []
    late: List[float] = []
    failed = 0
    sent = 0
    last = perf_counter()
    while sent < n or pending:
        now = perf_counter()
        while sent < n and due[sent] <= now and len(pending) < max_inflight:
            rid, frame = issue()
            pending[rid] = due[sent]
            late.append(now - due[sent])
            wire.queue(frame)
            sent += 1
        wait = 1.0
        if sent < n and len(pending) < max_inflight:
            wait = max(due[sent] - perf_counter(), 0.0)
        for resp, nbytes in wire.pump(wait):
            last = perf_counter()
            t_due = pending.pop(resp["id"])
            if settle(resp["id"], resp, nbytes):
                lat.append(last - t_due)
            else:
                failed += 1
        if perf_counter() - last > STALL_S:
            raise RuntimeError(f"{len(pending)} requests stalled")
    return {"lat": lat, "elapsed": last - due[0], "failed": failed,
            "late": late}


class ReadStream:
    """The probe pool as wire requests, cycled; keeps the oracle's sample
    (the latest answer to each of the first ``sample`` pool requests)."""

    def __init__(self, lines: np.ndarray, fingerprint: str, n: int,
                 seed: int, sample: int):
        self.pool = probes.make_pool(lines, n, seed)
        self.frames = [encode_frame(self._request(i, fingerprint))
                       for i in range(n)]
        self.sample = sample
        self.answers: Dict[int, dict] = {}
        self.out_bytes = np.zeros(n, dtype=np.int64)
        self.non200 = 0
        self._next = 0

    def _request(self, i: int, fingerprint: str) -> dict:
        kind = self.pool.kind[i]
        req = {"id": i, "kind": probes.KIND_NAMES[kind],
               "fingerprint": fingerprint}
        if kind == probes.WINDOW:
            req["rect"] = self.pool.rect[i].tolist()
        else:
            req["point"] = self.pool.pt[i].tolist()
        return req

    def issue(self) -> Tuple[int, bytes]:
        i = self._next % len(self.frames)
        self._next += 1
        return i, self.frames[i]

    def settle(self, rid: int, resp: dict, nbytes: int) -> bool:
        if resp["status"] != 200:
            self.non200 += 1
            return False
        self.out_bytes[rid] = nbytes
        if rid < self.sample:
            self.answers[rid] = resp
        return True

    def check(self, lines_at: Callable[[int], np.ndarray],
              corrupt: bool) -> Tuple[int, int]:
        """Sampled answers against brute force on the version they name."""
        checked = bad = 0
        for rid, resp in sorted(self.answers.items()):
            answer = resp["result"]
            if corrupt and checked == 0:
                answer = list(answer)[1:]                  # self-test
            bad += not probes.answer_ok(
                lines_at(resp["version"]), self.pool.kind[rid],
                self.pool.rect[rid], self.pool.pt[rid], answer)
            checked += 1
        return checked, bad


class MixedStream:
    """Reads with every ``write_every``-th op a commit, in strict order.

    Writes go insert, insert, delete, insert, delete, ...: an insert puts
    ``write_rows`` segments into one random cell, a delete removes the
    older of the two batches then present (always the rows right after
    the original map), so the size is stationary and a commit touches one
    shard.  The content never returns to an earlier version's: the
    registry is content-addressed and acks such a commit without applying
    it (found while building this; see README).  A write is not issued
    while another is unanswered: the engine would coalesce them into one
    commit and the delete's row ids would name rows of a version that
    never existed.  ``versions`` is the benchmark-side copy of every
    committed version, the first being version ``base``.
    """

    def __init__(self, reads: ReadStream, head: np.ndarray,
                 fingerprint: str, seed: int, base: int = 0):
        self.reads = reads
        self.fingerprint = fingerprint
        self.versions = [head]
        self.base = base
        # keyed by ``base`` too: a second stream on the same server must
        # not replay the first one's rows back into an earlier content
        self.rng = np.random.default_rng([seed, 0xC0117, base])
        self.ops = 0
        self.writes = 0
        self.write_pending = False
        self.user_bytes = 0
        self._next_version = head

    def lines_at(self, version: int) -> np.ndarray:
        return self.versions[version - self.base]

    def _write_frame(self) -> bytes:
        p = SERVE_MIXED
        head = self.versions[-1]
        req = {"id": WRITE_ID + self.writes, "fingerprint": self.fingerprint}
        if self.writes == 0 or self.writes % 2:
            corner = self.rng.integers(0, MAP["domain"] - p["cell"], 2)
            a = corner + self.rng.integers(0, p["cell"], (p["write_rows"], 2))
            b = corner + self.rng.integers(0, p["cell"], (p["write_rows"], 2))
            b[:, 0] += (a == b).all(axis=1)          # no zero-length rows
            rows = np.column_stack([a, b]).astype(float)
            req.update(kind="insert", lines=rows.tolist())
            self._next_version = np.vstack([head, rows])
            self.user_bytes += rows.nbytes
        else:
            ids = np.arange(MAP["n"], MAP["n"] + p["write_rows"])
            req.update(kind="delete", ids=ids.tolist())
            self._next_version = np.delete(head, ids, axis=0)
            self.user_bytes += ids.nbytes
        return encode_frame(req)

    def issue(self) -> Optional[Tuple[int, bytes]]:
        if (self.ops + 1) % SERVE_MIXED["write_every"]:
            self.ops += 1
            return self.reads.issue()
        if self.write_pending:
            return None
        self.ops += 1
        self.write_pending = True
        frame = self._write_frame()
        self.writes += 1
        return WRITE_ID + self.writes - 1, frame

    def settle(self, rid: int, resp: dict, nbytes: int) -> bool:
        if rid < WRITE_ID:
            return self.reads.settle(rid, resp, nbytes)
        self.write_pending = False
        if resp["status"] != 200:
            self.reads.non200 += 1
            return False
        self.versions.append(self._next_version)
        return (resp["version"] == self.base + len(self.versions) - 1
                and resp["result"]["num_lines"]
                == self._next_version.shape[0])

"""End-to-end server behaviour over real sockets on localhost.

The acceptance story: networked answers are bit-identical to direct
engine calls, the engine's overload vocabulary arrives as structured
statuses (429/206/503), and a client that disconnects mid-flight never
stalls or poisons the shared batch its probe rode in.
"""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.engine import SpatialQueryEngine
from repro.engine.executor import RejectedError
from repro.engine.registry import IndexRegistry, dataset_fingerprint
from repro.geometry import random_segments
from repro.net import ServeClient, ServerThread
from repro.net.client import ServeConnectionError
from repro.net.protocol import encode_frame, recv_frame_sock
from repro.resilience import FaultPlan, FaultSpec

from ..engine.test_pin_balance import held_busy

DOMAIN = 512


def segments(n=250, seed=3):
    return np.unique(random_segments(n, DOMAIN, 48, seed=seed), axis=0)


def poll(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture()
def engine():
    with SpatialQueryEngine(workers=2, max_batch=16, max_wait=0.002) as eng:
        yield eng


@pytest.fixture()
def served(engine):
    lines = segments()
    fp = engine.register(lines, domain=DOMAIN)
    with ServerThread(engine) as st:
        yield st, engine, fp, lines


class TestDifferential:
    def test_all_kinds_bit_identical_to_direct_calls(self, served):
        st, eng, fp, lines = served
        rng = np.random.default_rng(11)
        with ServeClient(st.host, st.port) as c:
            for _ in range(12):
                x, y = rng.uniform(0, DOMAIN * 0.8, 2)
                rect = [x, y, x + DOMAIN * 0.15, y + DOMAIN * 0.15]
                assert (c.window(fp, rect)["result"]
                        == eng.window(fp, rect).tolist())
                pt = rng.uniform(0, DOMAIN, 2).tolist()
                assert (c.point(fp, pt)["result"]
                        == eng.point(fp, pt).tolist())
                gid, dist = eng.nearest(fp, pt)
                net_gid, net_dist = c.nearest(fp, pt)["result"]
                assert net_gid == gid and net_dist == pytest.approx(dist)
            assert (c.join(fp, fp)["result"]
                    == eng.join(fp, fp).tolist())

    def test_concurrent_clients_share_batches_and_stay_exact(self, served):
        st, eng, fp, lines = served
        rng = np.random.default_rng(7)
        rects = [[x, y, x + 60, y + 60]
                 for x, y in rng.uniform(0, DOMAIN - 60, (24, 2))]
        want = [eng.window(fp, r).tolist() for r in rects]
        results = [None] * len(rects)
        errors = []

        def client(lo, hi):
            try:
                with ServeClient(st.host, st.port) as c:
                    for i in range(lo, hi):
                        resp = c.window(fp, rects[i])
                        assert resp["status"] == 200
                        results[i] = resp["result"]
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i * 6, (i + 1) * 6))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert results == want
        # the network edge fed the same coalescer: batches formed
        assert eng.snapshot()["batches"] >= 1

    def test_structure_override_matches_engine(self, served):
        st, eng, fp, lines = served
        rect = [10.0, 10.0, 200.0, 200.0]
        with ServeClient(st.host, st.port) as c:
            resp = c.window(fp, rect, structure="rtree")
            assert resp["result"] == eng.window(fp, rect,
                                                structure="rtree").tolist()


def burst(seed, n=16):
    """``n`` requests cycling window / point / nearest."""
    rng = np.random.default_rng(seed)
    reqs = []
    for i in range(n):
        kind = ("window", "point", "nearest")[i % 3]
        x, y = rng.uniform(0, DOMAIN - 80, 2)
        req = {"id": i, "kind": kind, "fingerprint": None}
        if kind == "window":
            req["rect"] = [x, y, x + 80, y + 80]
        else:
            req["point"] = [x, y]
        reqs.append(req)
    return reqs


def send_burst(st, fp, reqs):
    """Write ``reqs`` in one ``sendall``; returns ``{id: result}``."""
    sock = socket.create_connection((st.host, st.port), timeout=30)
    try:
        sock.sendall(b"".join(encode_frame({**r, "fingerprint": fp})
                              for r in reqs))
        got = {}
        for _ in reqs:
            resp = recv_frame_sock(sock)
            assert resp["status"] == 200
            got[resp["id"]] = resp["result"]
        return got
    finally:
        sock.close()


def direct(eng, fp, req):
    """The engine's own answer to one wire request."""
    if req["kind"] == "window":
        return eng.window(fp, req["rect"]).tolist()
    if req["kind"] == "point":
        return eng.point(fp, req["point"]).tolist()
    gid, dist = eng.nearest(fp, req["point"])
    return [int(gid), float(dist)]


class TestKickedBurst:
    def test_a_burst_runs_on_the_loop_thread_one_group_per_kind(self):
        """16 requests in one write: the server reads them in one loop
        pass and kicks once, so the idle engine runs the burst -- every
        kind on the one index -- as one job on the loop thread, and the
        answers are the engine's own."""
        lines = segments(seed=13)
        reqs = burst(13)
        with SpatialQueryEngine(workers=2, max_batch=64,
                                max_wait=30.0) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            eng.warm(fp)
            with ServerThread(eng) as st:
                got = send_burst(st, fp, reqs)
            snap = eng.snapshot()
            assert snap["flushes"] == {"kick": 1}
            assert snap["ran"] == {"caller": 1}
            for r in reqs:
                assert got[r["id"]] == direct(eng, fp, r)

    def test_a_burst_on_the_loop_never_writes_to_the_self_pipe(
            self, monkeypatch):
        """Answers resolved on the loop thread reach their handlers in
        place: no ``call_soon_threadsafe``, so no self-pipe write and
        no extra loop wake-up per request."""
        lines = segments(seed=15)
        reqs = burst(15)
        with SpatialQueryEngine(workers=2, max_batch=64,
                                max_wait=30.0) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            eng.warm(fp)
            with ServerThread(eng) as st:
                writes = []
                write = st._loop._write_to_self
                monkeypatch.setattr(st._loop, "_write_to_self",
                                    lambda: (writes.append(1), write()))
                got = send_burst(st, fp, reqs)
                assert writes == []
            assert eng.snapshot()["ran"] == {"caller": 1}   # one mixed job
            for r in reqs:
                assert got[r["id"]] == direct(eng, fp, r)

    def test_a_cold_build_keeps_the_pool_and_the_loop_serving(
            self, monkeypatch):
        """A request for a structure that is not built yet leaves its
        group (and so its build) to a pool thread: while that build is
        held open, a ``health`` request on another connection is
        answered.  Were the build run on the loop thread, health would
        wait for it."""
        building, release, built = (threading.Event(), threading.Event(),
                                    threading.Event())
        build = IndexRegistry.BUILDERS["rtree"]

        def held(*args, **kw):
            building.set()
            release.wait(10)
            built.set()
            return build(*args, **kw)

        monkeypatch.setattr(IndexRegistry, "BUILDERS",
                            {**IndexRegistry.BUILDERS, "rtree": held})
        lines = segments(seed=14)
        rect = [20.0, 20.0, 300.0, 300.0]
        with SpatialQueryEngine(workers=2, max_batch=64,
                                max_wait=30.0) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            eng.warm(fp)                      # pmr only: rtree is cold
            with ServerThread(eng) as st:
                sock = socket.create_connection((st.host, st.port),
                                                timeout=30)
                try:
                    sock.sendall(encode_frame(
                        {"id": 1, "kind": "window", "fingerprint": fp,
                         "rect": rect, "structure": "rtree"}))
                    assert building.wait(10)
                    try:
                        with ServeClient(st.host, st.port,
                                         timeout=5) as c:
                            assert c.health()["status"] == 200
                        assert not built.is_set()
                    finally:
                        release.set()
                    resp = recv_frame_sock(sock)
                finally:
                    sock.close()
            snap = eng.snapshot()
            assert snap["flushes"] == {"kick": 1}
            assert snap["ran"] == {"pool": 1}
            assert resp["status"] == 200
            assert resp["result"] == eng.window(
                fp, rect, structure="rtree").tolist()


class TestMutationsOverWire:
    def test_fractional_insert_is_stored_bit_for_bit(self, served):
        """The wire keeps floats: the server must not truncate them."""
        st, eng, fp, lines = served
        rows = np.array([[1.5, 2.5, 3.75, 4.25], [10.125, 0.5, 11.0, 7.875]])
        shadow = np.vstack([lines, rows])
        with ServeClient(st.host, st.port) as c:
            ack = c.insert(fp, rows.tolist())
        assert ack["status"] == 200 and ack["version"] == 1
        assert ack["result"]["fingerprint"] == dataset_fingerprint(shadow)
        head = eng.registry.dataset(eng.registry.resolve(fp).fingerprint)
        assert head[-2:].tobytes() == rows.tobytes()

    def test_insert_then_delete_advances_two_versions(self, served):
        st, eng, fp, lines = served
        n = lines.shape[0]
        with ServeClient(st.host, st.port) as c:
            a = c.insert(fp, [[5.0, 5.0, 9.0, 9.0]])
            b = c.delete(fp, [n])
            (row,) = [r for r in c.datasets()["result"] if r["latest"]]
            assert c.window(fp, [4, 4, 10, 10])["result"] == []
        assert (a["version"], b["version"]) == (1, 2)
        assert b["result"]["num_lines"] == n
        assert (row["fingerprint"], row["version"], row["num_lines"]) \
            == (fp, 2, n)


class TestIntrospection:
    def test_datasets_lists_registrations(self, served):
        st, eng, fp, lines = served
        with ServeClient(st.host, st.port) as c:
            rows = c.datasets()["result"]
        assert rows == [{"fingerprint": fp, "num_lines": len(lines),
                         "domain": DOMAIN, "root": fp, "version": 0,
                         "latest": True}]

    def test_health_carries_server_and_engine_sections(self, served):
        st, eng, fp, lines = served
        with ServeClient(st.host, st.port) as c:
            c.window(fp, [0, 0, 50, 50])
            doc = c.health()["result"]
        assert doc["status"] == "ok"
        assert doc["listen"]["port"] == st.port
        assert doc["server"]["requests_total"] >= 2
        assert doc["server"]["per_status"].get("200", 0) >= 1
        assert doc["server"]["admission"]["connections"] == 1
        assert doc["engine"]["executor"]["backend"] == "thread"
        assert doc["server"]["bytes_in"] > 0
        assert doc["server"]["bytes_out"] > 0


class TestWorkConservingDispatch:
    def test_a_burst_is_one_batch_per_kind_and_a_lone_request_is_prompt(
            self):
        """The server kicks once per loop pass that submitted: on an
        idle engine neither waits out the 30 s batch window."""
        lines = segments()
        rng = np.random.default_rng(16)
        with SpatialQueryEngine(workers=2, max_batch=64,
                                max_wait=30.0) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            eng.warm(fp)
            reqs = []
            for i, (x, y) in enumerate(rng.uniform(0, DOMAIN - 64, (16, 2))):
                kind = ("window", "point", "nearest")[i % 3]
                req = {"id": i, "kind": kind, "fingerprint": fp}
                if kind == "window":
                    req["rect"] = [x, y, x + 64, y + 64]
                else:
                    req["point"] = [x, y]
                reqs.append(req)
            with ServerThread(eng) as st:
                # 16 requests in one write: one read pass submits them
                # all, and its one kick makes one mixed batch
                with socket.create_connection((st.host, st.port),
                                              timeout=30) as sock:
                    t0 = time.monotonic()
                    sock.sendall(b"".join(encode_frame(r) for r in reqs))
                    resps = {r["id"]: r for r in
                             (recv_frame_sock(sock) for _ in reqs)}
                    assert time.monotonic() - t0 < 1.0
                # a group settles just after its answers are sent: wait
                # for it, or the lone request's kick finds the engine
                # busy and its group leaves on the drain instead
                eng.flush()
                snap = eng.snapshot()
                assert snap["batches"] == 1
                assert snap["flushes"] == {"kick": 1}
                with ServeClient(st.host, st.port) as c:
                    t0 = time.monotonic()
                    lone = c.window(fp, [0, 0, 50, 50])
                    assert time.monotonic() - t0 < 1.0
                assert eng.snapshot()["flushes"] == {"kick": 2}
            assert lone["status"] == 200
            assert lone["result"] == eng.window(fp, [0, 0, 50, 50]).tolist()
            for req in reqs:
                resp = resps[req["id"]]
                assert resp["status"] == 200
                if req["kind"] == "window":
                    want = eng.window(fp, req["rect"]).tolist()
                elif req["kind"] == "point":
                    want = eng.point(fp, req["point"]).tolist()
                else:
                    gid, dist = eng.nearest(fp, req["point"])
                    want = [int(gid), float(dist)]
                assert resp["result"] == want


class TestStatusMapping:
    def test_unknown_fingerprint_is_404(self, served):
        st, *_ = served
        with ServeClient(st.host, st.port) as c:
            resp = c.window("deadbeef", [0, 0, 10, 10])
        assert resp["status"] == 404
        assert resp["reason"] == "unknown_fingerprint"

    def test_schema_violation_is_400(self, served):
        st, *_ = served
        with ServeClient(st.host, st.port) as c:
            resp = c.request("window", fingerprint="f")     # no rect
            assert resp["status"] == 400
            resp = c.request("mystery")
            assert resp["status"] == 400
            # the connection survives request-level 400s
            assert c.health()["status"] == 200

    def test_point_outside_quadtree_domain_is_400(self, served):
        st, eng, fp, lines = served
        with ServeClient(st.host, st.port) as c:
            resp = c.point(fp, [DOMAIN * 4.0, 10.0])
        assert resp["status"] == 400
        assert resp["reason"] == "invalid_argument"

    def test_malformed_frame_gets_400_then_close(self, served):
        st, *_ = served
        sock = socket.create_connection((st.host, st.port), timeout=5)
        try:
            sock.sendall(struct.pack(">I", 5) + b"not-j")
            header = sock.recv(4)
            (n,) = struct.unpack(">I", header)
            resp = sock.recv(n)
            assert b'"status":400' in resp
            assert sock.recv(1) == b""   # server closed the stream
        finally:
            sock.close()

    def test_oversized_header_closes_connection(self, served):
        st, *_ = served
        sock = socket.create_connection((st.host, st.port), timeout=5)
        try:
            sock.sendall(struct.pack(">I", 1 << 31))
            header = sock.recv(4)
            if header:   # one 400 frame, then EOF
                (n,) = struct.unpack(">I", header)
                sock.recv(n)
                assert sock.recv(1) == b""
        finally:
            sock.close()

    def test_backpressure_rejection_maps_to_429(self, served):
        st, *_ = served
        resp = st.server._error_response(
            {"id": 9, "kind": "window"},
            RejectedError("queue is full", reason="queue_full"))
        assert resp["status"] == 429
        assert resp["reason"] == "queue_full"
        assert resp["retry_after_ms"] > 0

    def test_open_breaker_maps_to_429_circuit_open(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="registry.get", kind="error", times=4),), seed=1)
        with SpatialQueryEngine(workers=2, max_batch=1, max_wait=0.001,
                                breaker_threshold=1, breaker_reset=60.0,
                                fault_plan=plan) as eng:
            fp = eng.register(segments(), domain=DOMAIN)
            with ServerThread(eng) as st:
                with ServeClient(st.host, st.port) as c:
                    first = c.window(fp, [0, 0, 50, 50])
                    assert first["status"] == 500   # injected engine fault
                    second = c.window(fp, [0, 0, 50, 50])
                    assert second["status"] == 429
                    assert second["reason"] == "circuit_open"
                    assert second["retry_after_ms"] > 0
                    health = c.health()["result"]
                    assert health["status"] == "degraded"

    def test_expired_deadline_maps_to_206_with_shards_dropped(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="shard.query", kind="stall", delay=0.5,
                      match=(("shard", 0),)),), seed=1)
        lines = segments(seed=5)
        with SpatialQueryEngine(shards=4, workers=4, max_batch=8,
                                max_wait=0.002, fault_plan=plan) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            eng.warm(fp)
            full = [0.0, 0.0, float(DOMAIN), float(DOMAIN)]
            want = eng.window(fp, full)
            with ServerThread(eng) as st:
                with ServeClient(st.host, st.port) as c:
                    resp = c.window(fp, full, deadline_ms=80)
            assert resp["status"] == 206
            assert resp["shards_dropped"] >= 1
            assert resp["shards_completed"] >= 1
            # the partial answer is a subset of the full one
            assert set(resp["result"]) <= set(want.tolist())


class TestAdmissionOverWire:
    def test_per_client_inflight_cap_429(self):
        # a busy engine and a huge batch window park the first probe in
        # the coalescer, keeping it in flight while the second arrives
        with SpatialQueryEngine(workers=2, max_batch=1024,
                                max_wait=30.0) as eng:
            fp = eng.register(segments(), domain=DOMAIN)
            with ServerThread(eng, client_inflight=1) as st, \
                    held_busy(eng, fp):
                with ServeClient(st.host, st.port) as c:
                    c.send_only({"id": 1, "kind": "window",
                                 "fingerprint": fp, "rect": [0, 0, 9, 9]})
                    assert poll(lambda: eng.snapshot()["pending_probes"] >= 1)
                    c.send_only({"id": 2, "kind": "window",
                                 "fingerprint": fp, "rect": [0, 0, 9, 9]})
                    resp = c.recv()
                    assert resp["id"] == 2
                    assert resp["status"] == 429
                    assert resp["reason"] == "client_inflight"
                    assert resp["retry_after_ms"] >= 1
                    # introspection bypasses admission even while capped
                    c.send_only({"id": 3, "kind": "health"})
                    health = c.recv()
                    assert health["status"] == 200
                    inflight = health["result"]["server"]["admission"]
                    assert inflight["inflight"] == 1

    def test_global_inflight_brownout_503(self):
        with SpatialQueryEngine(workers=2, max_batch=1024,
                                max_wait=30.0) as eng:
            fp = eng.register(segments(), domain=DOMAIN)
            with ServerThread(eng, max_inflight=1) as st, \
                    held_busy(eng, fp):
                hog = ServeClient(st.host, st.port)
                polite = ServeClient(st.host, st.port)
                try:
                    hog.send_only({"id": 1, "kind": "window",
                                   "fingerprint": fp, "rect": [0, 0, 9, 9]})
                    assert poll(lambda: eng.snapshot()["pending_probes"] >= 1)
                    resp = polite.window(fp, [0, 0, 9, 9])
                    assert resp["status"] == 503
                    assert resp["reason"] == "brownout"
                finally:
                    hog.close()
                    polite.close()

    def test_rate_limited_429(self, engine):
        fp = engine.register(segments(), domain=DOMAIN)
        with ServerThread(engine, client_rate=0.5, client_burst=1.0) as st:
            with ServeClient(st.host, st.port) as c:
                assert c.window(fp, [0, 0, 9, 9])["status"] == 200
                resp = c.window(fp, [0, 0, 9, 9])
                assert resp["status"] == 429
                assert resp["reason"] == "rate_limited"
                assert resp["retry_after_ms"] >= 1

    def test_connection_cap_sheds_with_503_frame(self, engine):
        engine.register(segments(), domain=DOMAIN)
        with ServerThread(engine, max_connections=1) as st:
            with ServeClient(st.host, st.port) as first:
                first.health()   # the slot is definitely taken
                shed = socket.create_connection((st.host, st.port), timeout=5)
                try:
                    header = shed.recv(4)
                    (n,) = struct.unpack(">I", header)
                    body = shed.recv(n)
                    assert b'"status":503' in body
                    assert b"max_connections" in body
                    assert shed.recv(1) == b""
                finally:
                    shed.close()
                # the admitted connection still serves
                assert first.health()["status"] == 200


class TestClientDisconnect:
    def test_dropped_client_never_stalls_or_poisons_the_batch(self):
        """The cancelled-future path: probe of a dead connection is
        cancelled; the batch it rode in still answers everyone else."""
        lines = segments(seed=9)
        rect = [10.0, 10.0, 300.0, 300.0]
        with SpatialQueryEngine(workers=2, max_batch=8,
                                max_wait=0.002) as ref:
            truth = ref.window(ref.register(lines, domain=DOMAIN),
                               rect).tolist()
        with SpatialQueryEngine(workers=2, max_batch=2,
                                max_wait=30.0) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            want = None
            with ServerThread(eng) as st, held_busy(eng, fp) as release:
                doomed = ServeClient(st.host, st.port)
                doomed.send_only({"id": 1, "kind": "window",
                                  "fingerprint": fp, "rect": rect})
                # the engine is busy: the server's kick only marks the
                # probe's group, which stays parked in the coalescer
                assert poll(lambda: eng.snapshot()["pending_probes"] >= 1)
                doomed.close()   # vanish with the probe in flight
                with ServeClient(st.host, st.port) as survivor:
                    # wait until the server noticed the disconnect
                    assert poll(lambda: survivor.health()["result"]["server"]
                                ["disconnects_inflight"] >= 1)
                    # this probe joins the parked group, which drains
                    # to the pool once the parked workers are back
                    survivor.send_only({"id": 2, "kind": "window",
                                        "fingerprint": fp, "rect": rect})
                    assert poll(
                        lambda: eng.snapshot()["pending_probes"] == 2)
                    release.set()
                    resp = survivor.recv()
                    assert resp["status"] == 200
                    want = resp["result"]
                    health = survivor.health()["result"]
                    assert health["server"]["cancelled_inflight"] >= 1
                    assert health["server"]["admission"]["inflight"] == 0
            # the shared batch produced the exact answer
            assert want == truth

    def test_disconnect_storm_leaves_server_serving(self, served):
        st, eng, fp, lines = served
        for _ in range(8):
            c = ServeClient(st.host, st.port)
            c.send_only({"id": 1, "kind": "window", "fingerprint": fp,
                         "rect": [0, 0, 50, 50]})
            c.close()
        with ServeClient(st.host, st.port) as c:
            assert poll(lambda: c.health()["result"]["server"]
                        ["connections_open"] == 1)
            resp = c.window(fp, [0, 0, 50, 50])
            assert resp["status"] == 200
            assert resp["result"] == eng.window(fp, [0, 0, 50, 50]).tolist()

    def test_server_shutdown_rejects_then_closes_cleanly(self, engine):
        fp = engine.register(segments(), domain=DOMAIN)
        st = ServerThread(engine)
        # reconnect_attempts=0: this test wants the raw fail-fast
        # behaviour, not the redial-and-resend loop
        client = ServeClient(st.host, st.port, reconnect_attempts=0)
        assert client.window(fp, [0, 0, 50, 50])["status"] == 200
        st.stop()
        with pytest.raises(ServeConnectionError):
            for _ in range(3):   # racing the in-flight close
                client.window(fp, [0, 0, 50, 50])
        client.close()

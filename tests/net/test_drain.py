"""Graceful drain and client reconnect-with-backoff.

The drain contract: after ``begin_drain`` new work gets a structured
503 ``shutting_down`` (never a slammed socket), introspection keeps
answering, already-admitted requests finish, and ``drain()`` returns
once in-flight work and pending mutation commits have settled.

The client contract: a connection closed by a shedding or restarting
server is redialed with bounded exponential backoff and the request is
resent -- ``reconnect_attempts=0`` restores the old fail-fast shape.
"""

import socket
import threading
import time

import pytest

from repro.engine import SpatialQueryEngine
from repro.geometry import random_segments
from repro.net import ServerThread
from repro.net.client import ServeClient, ServeConnectionError

DOMAIN = 512


def segments(n=60, seed=5):
    return random_segments(n, domain=DOMAIN, max_len=40, seed=seed)


@pytest.fixture
def engine():
    eng = SpatialQueryEngine(workers=2, max_batch=16, max_wait=0.002)
    yield eng
    eng.close()


class TestDrain:
    def test_drain_refuses_new_work_with_structured_503(self, engine):
        fp = engine.register(segments(), domain=DOMAIN)
        with ServerThread(engine) as st:
            with ServeClient(st.host, st.port,
                             reconnect_attempts=0) as client:
                assert client.window(fp, [0, 0, 50, 50])["status"] == 200
                st.server.begin_drain()
                resp = client.window(fp, [0, 0, 50, 50])
                assert resp["status"] == 503
                assert resp["reason"] == "shutting_down"
                # introspection stays answerable while draining
                health = client.health()
                assert health["status"] == 200
                assert health["result"]["status"] == "draining"
                assert health["result"]["draining"] is True
                assert client.datasets()["status"] == 200
                stats = health["result"]["server"]
                assert stats["requests_drained"] >= 1

    def test_drain_finishes_inflight_and_settles_mutations(self, engine):
        fp = engine.register(segments(), domain=DOMAIN)
        with ServerThread(engine) as st:
            with ServeClient(st.host, st.port,
                             reconnect_attempts=0) as client:
                # a pipelined mutation is in flight when the drain starts
                client.send_only({"id": 7, "kind": "insert",
                                  "fingerprint": fp,
                                  "lines": [[1.0, 2.0, 3.0, 4.0]]})
                # wait until the server has *admitted* it -- drain only
                # promises to finish admitted work, and a frame still in
                # the TCP backlog is not admitted
                deadline = time.monotonic() + 5.0
                while (st.server.stats.snapshot()["per_kind"]
                       .get("insert", 0) < 1):
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                assert st.drain(timeout=10.0) is True
                # the admitted mutation was answered, not dropped
                resp = client.recv()
                assert resp is not None and resp["status"] == 200
                committed = resp["result"]["fingerprint"]
                # and its commit settled inside drain(): the engine's
                # head already carries it
                assert engine.registry.resolve(fp).fingerprint == committed
                # new connections find a closed listener after drain
                with pytest.raises(OSError):
                    socket.create_connection((st.host, st.port),
                                             timeout=0.5).close()

    def test_drain_with_nothing_inflight_is_immediate(self, engine):
        engine.register(segments(), domain=DOMAIN)
        with ServerThread(engine) as st:
            t0 = time.monotonic()
            assert st.drain(timeout=5.0) is True
            assert time.monotonic() - t0 < 2.0


class TestClientReconnect:
    def test_reconnects_after_server_restart_on_same_port(self, engine):
        fp = engine.register(segments(), domain=DOMAIN)
        st = ServerThread(engine)
        client = ServeClient(st.host, st.port, reconnect_attempts=5,
                             reconnect_backoff=0.01)
        assert client.window(fp, [0, 0, 50, 50])["status"] == 200
        host, port = st.host, st.port
        st.stop()

        # restart a server on the same port shortly after
        restarted = {}

        def bring_back():
            time.sleep(0.15)
            restarted["st"] = ServerThread(engine, host=host, port=port)

        t = threading.Thread(target=bring_back)
        t.start()
        try:
            # the old socket is dead: request() must redial and resend
            resp = client.window(fp, [0, 0, 50, 50])
            assert resp["status"] == 200
            assert client.reconnects >= 1
        finally:
            t.join()
            client.close()
            if "st" in restarted:
                restarted["st"].stop()

    def test_zero_attempts_fails_fast(self, engine):
        fp = engine.register(segments(), domain=DOMAIN)
        st = ServerThread(engine)
        client = ServeClient(st.host, st.port, reconnect_attempts=0,
                             connect_timeout=0.3)
        st.stop()
        with pytest.raises(ServeConnectionError):
            for _ in range(3):
                client.window(fp, [0, 0, 50, 50])
        assert client.reconnects == 0
        client.close()

    def test_budget_spent_raises(self, engine):
        fp = engine.register(segments(), domain=DOMAIN)
        st = ServerThread(engine)
        client = ServeClient(st.host, st.port, reconnect_attempts=2,
                             reconnect_backoff=0.01, connect_timeout=0.3)
        st.stop()
        t0 = time.monotonic()
        with pytest.raises(ServeConnectionError):
            client.window(fp, [0, 0, 50, 50])
        # it really retried (with backoff), then gave up
        assert time.monotonic() - t0 >= 0.01
        client.close()

    def test_stop_closes_accepted_connections(self, engine):
        # connections the listener accepted but never served are closed
        # by stop(): each client fails at once instead of waiting out
        # its read timeout
        fp = engine.register(segments(), domain=DOMAIN)
        st = ServerThread(engine)
        clients = [ServeClient(st.host, st.port, timeout=2,
                               reconnect_attempts=0) for _ in range(8)]
        st.stop()
        t0 = time.monotonic()
        for client in clients:
            with pytest.raises(ServeConnectionError):
                client.window(fp, [0, 0, 50, 50])
            client.close()
        assert time.monotonic() - t0 < 1.0

    def test_request_after_server_side_close_reconnects(self, engine):
        fp = engine.register(segments(), domain=DOMAIN)
        with ServerThread(engine, max_connections=1) as st:
            # hog the single connection slot...
            hog = ServeClient(st.host, st.port, reconnect_attempts=0)
            assert hog.window(fp, [0, 0, 50, 50])["status"] == 200
            # ...so the second client is shed: the 503 is an in-band
            # *response* (not a transport failure), returned as-is
            client = ServeClient(st.host, st.port, reconnect_attempts=5,
                                 reconnect_backoff=0.01)
            resp = client.window(fp, [0, 0, 50, 50])
            assert resp["status"] == 503
            assert client.reconnects == 0
            # the server closed the shed connection; once the slot is
            # free the next request finds a dead socket, redials, and
            # resends transparently
            hog.close()
            deadline = time.monotonic() + 5.0
            while st.server.stats.snapshot()["connections_open"] != 0:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            resp = client.window(fp, [0, 0, 50, 50])
            assert resp["status"] == 200
            assert client.reconnects >= 1
            client.close()

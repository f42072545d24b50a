"""Framing and schema validation of the wire protocol."""

import json
import struct
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import SpatialQueryEngine
from repro.engine.engine import MutationResult
from repro.engine.executor import RejectedError
from repro.geometry import random_segments
from repro.net import protocol
from repro.net.protocol import (MAX_FRAME, ProtocolError, encode_frame,
                                jsonable, parse_request)
from repro.net.server import SpatialServer
from repro.resilience import CircuitOpenError, PartialResult


class TestFraming:
    def test_round_trip(self):
        frame = encode_frame({"id": 1, "kind": "health"})
        (n,) = struct.unpack(">I", frame[:4])
        assert n == len(frame) - 4
        assert json.loads(frame[4:]) == {"id": 1, "kind": "health"}

    def test_numpy_payloads_encode(self):
        frame = encode_frame({"result": np.arange(3),
                              "dist": np.float64(1.5),
                              "n": np.int64(7)})
        assert json.loads(frame[4:]) == {"result": [0, 1, 2], "dist": 1.5,
                                         "n": 7}

    def test_oversized_frame_refused(self):
        with pytest.raises(ProtocolError) as ei:
            encode_frame({"blob": "x" * (MAX_FRAME + 1)})
        assert ei.value.fatal

    def test_jsonable_handles_nested_and_nonfinite(self):
        out = jsonable({"a": (np.int32(1), [np.float32(2.0)]),
                        "inf": float("inf")})
        assert out == {"a": [1, [2.0]], "inf": "inf"}
        json.dumps(out)   # must be serializable


class TestParseRequest:
    def test_window_normalizes(self):
        req = parse_request({"id": 3, "kind": "window", "fingerprint": "f",
                             "rect": [1, 2, 3, 4], "deadline_ms": 50})
        assert req["rect"] == [1.0, 2.0, 3.0, 4.0]
        assert req["deadline"] == pytest.approx(0.05)
        assert req["exact"] is True

    def test_point_and_nearest(self):
        for kind in ("point", "nearest"):
            req = parse_request({"kind": kind, "fingerprint": "f",
                                 "point": [1, 2]})
            assert req["point"] == [1.0, 2.0]
            assert req["deadline"] is None

    def test_join_requires_second_fingerprint(self):
        req = parse_request({"kind": "join", "fingerprint": "a",
                             "fingerprint_b": "b"})
        assert req["fingerprint_b"] == "b"
        with pytest.raises(ProtocolError):
            parse_request({"kind": "join", "fingerprint": "a"})

    def test_introspection_kinds_need_no_fields(self):
        assert parse_request({"kind": "health"})["kind"] == "health"
        assert parse_request({"kind": "datasets"})["kind"] == "datasets"

    @pytest.mark.parametrize("bad", [
        {"kind": "scan", "fingerprint": "f"},          # unknown kind
        {"fingerprint": "f"},                          # missing kind
        {"kind": "window", "rect": [1, 2, 3, 4]},      # missing fingerprint
        {"kind": "window", "fingerprint": "f"},        # missing rect
        {"kind": "window", "fingerprint": "f",
         "rect": [1, 2, 3]},                           # short rect
        {"kind": "window", "fingerprint": "f",
         "rect": [5, 2, 3, 4]},                        # inverted rect
        {"kind": "window", "fingerprint": "f",
         "rect": [1, 2, 3, "x"]},                      # non-numeric coord
        {"kind": "point", "fingerprint": "f",
         "point": [1, 2], "deadline_ms": 0},           # non-positive deadline
        {"kind": "point", "fingerprint": "f",
         "point": [1, 2], "exact": "yes"},             # non-bool flag
        {"kind": "nearest", "fingerprint": "",
         "point": [1, 2]},                             # empty fingerprint
        {"kind": "window", "fingerprint": "f",
         "rect": [1, 2, 3, 4], "id": 1.5},             # non-int/str id
    ])
    def test_schema_violations_raise_nonfatal(self, bad):
        with pytest.raises(ProtocolError) as ei:
            parse_request(bad)
        assert not ei.value.fatal


# -- encode_frame against the jsonable walk ----------------------------------


def walked_frame(obj):
    """The frame as the walk-first encoder wrote it: every value through
    :func:`jsonable`, then ``json.dumps``."""
    payload = json.dumps(jsonable(obj), separators=(",", ":")).encode()
    return struct.pack(">I", len(payload)) + payload


@pytest.fixture(scope="module")
def server():
    """A server object (never started) over an engine with some traffic,
    so its health body carries live counters and latency gauges."""
    with SpatialQueryEngine(workers=1, max_batch=8) as eng:
        fp = eng.register(random_segments(80, 256, 32, seed=2), domain=256)
        eng.window(fp, [0, 0, 128, 128])
        eng.nearest(fp, (10.0, 10.0), structure="rtree")
        yield SpatialServer(eng)


REQ_IDS = st.one_of(st.integers(-2 ** 53, 2 ** 53), st.text(max_size=6),
                    st.none())
LINE_IDS = st.lists(st.integers(0, 2 ** 31), max_size=80)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
# what a health body's gauges may hold, numpy scalars included
GAUGE = st.one_of(st.integers(-2 ** 40, 2 ** 40), ANY_FLOAT, st.booleans(),
                  st.none(), st.text(max_size=6),
                  st.integers(-2 ** 40, 2 ** 40).map(np.int64),
                  ANY_FLOAT.map(np.float64),
                  st.floats(width=32, allow_nan=False,
                            allow_infinity=False).map(np.float32))
GAUGES = st.recursive(
    GAUGE,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.sets(st.integers(-5, 50), max_size=4),
        st.dictionaries(st.one_of(st.text(max_size=6),
                                  st.integers(100, 599)), inner, max_size=4)),
    max_leaves=12)


def _engine_future(version=None, versions=None):
    fut = Future()
    if version is not None:
        fut.version = version
    if versions is not None:
        fut.versions = versions
    return fut


@st.composite
def responses(draw, server):
    """One response of each shape the server writes: probe and mutation
    answers (200 and 206), mapped errors, and the health body."""
    rid = draw(REQ_IDS)
    shape = draw(st.sampled_from(["window", "point", "nearest", "join",
                                  "insert", "partial", "error", "health"]))
    if shape in ("window", "point"):
        ids = np.asarray(draw(LINE_IDS), dtype=np.int64)
        return server._ok_response({"id": rid, "kind": shape}, ids,
                                   _engine_future(draw(st.integers(0, 9))))
    if shape == "nearest":
        hit = (np.int64(draw(st.integers(-1, 2 ** 31))),
               np.float64(draw(ANY_FLOAT)))
        return server._ok_response({"id": rid, "kind": "nearest"}, hit,
                                   _engine_future(1))
    if shape == "join":
        pairs = np.asarray(draw(LINE_IDS)[:40], dtype=np.int64)
        pairs = pairs[:len(pairs) // 2 * 2].reshape(-1, 2)
        return server._ok_response({"id": rid, "kind": "join"}, pairs,
                                   _engine_future(versions=(2, 3)))
    if shape == "insert":
        res = MutationResult(root="r" * 16, fingerprint="f" * 16,
                             version=draw(st.integers(1, 9)),
                             num_lines=draw(st.integers(0, 10 ** 6)),
                             inserted=1, deleted=0)
        return server._ok_response({"id": rid, "kind": "insert"}, res,
                                   _engine_future(res.version))
    if shape == "partial":
        kind = draw(st.sampled_from(["window", "nearest"]))
        value = (np.asarray(draw(LINE_IDS), dtype=np.int64)
                 if kind == "window" else (np.int64(-1), float("inf")))
        part = PartialResult(value, shards_dropped=draw(st.integers(1, 8)),
                             shards_completed=draw(st.integers(0, 8)))
        return server._ok_response({"id": rid, "kind": kind}, part,
                                   _engine_future(0))
    if shape == "error":
        exc = draw(st.sampled_from([
            CircuitOpenError("open", key="k", retry_after=0.25),
            RejectedError("queue full", reason="queue_full"),
            KeyError("unknown"), ValueError("bad rect"),
            RuntimeError("boom")]))
        return server._error_response({"id": rid, "kind": "window"}, exc)
    body = server.health()
    body["engine"]["gauges"] = draw(GAUGES)
    return {"id": rid, "status": 200, "result": body}


class TestEncodeMatchesWalk:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_response_shape_encodes_to_the_walked_bytes(
            self, server, data):
        resp = data.draw(responses(server))
        assert encode_frame(resp) == walked_frame(resp)

    def test_an_answer_skips_the_walk(self, server, monkeypatch):
        def walk(obj):
            raise AssertionError("walked a finite answer")

        monkeypatch.setattr(protocol, "jsonable", walk)
        resp = server._ok_response({"id": 1, "kind": "window"},
                                   np.arange(53, dtype=np.int64),
                                   _engine_future(0))
        assert json.loads(encode_frame(resp)[4:])["result"] \
            == list(range(53))

    def test_non_finite_gauges_take_the_walk(self):
        resp = {"id": 1, "gauges": {"p95": float("nan"),
                                    "max": np.float64("inf"), 7: [1.5]}}
        assert encode_frame(resp) == walked_frame(resp)
        assert json.loads(encode_frame(resp)[4:])["gauges"] \
            == {"p95": "nan", "max": float("inf"), "7": [1.5]}

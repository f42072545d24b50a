"""The wire protocol: length-prefixed JSON frames and their schemas.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding a single object.  Requests and responses
share the framing; a connection carries any number of frames and the
client may pipeline (responses echo the request ``id``, and concurrent
requests on one connection may complete out of order).

Request::

    {"id": 7, "kind": "window", "fingerprint": "a1b2...",
     "rect": [100, 100, 400, 300], "deadline_ms": 50}

``kind`` is one of :data:`REQUEST_KINDS`:

=============  =====================================================
``window``     ``fingerprint``, ``rect`` ``[x0, y0, x1, y1]``
``point``      ``fingerprint``, ``point`` ``[x, y]``
``nearest``    ``fingerprint``, ``point`` ``[x, y]``
``join``       ``fingerprint``, ``fingerprint_b``
``insert``     ``fingerprint``, ``lines`` (list of ``[x0, y0, x1, y1]``)
``delete``     ``fingerprint``, ``ids`` (list of non-negative ints)
``health``     no fields (never admission-controlled)
``datasets``   no fields (never admission-controlled)
=============  =====================================================

Probe kinds accept optional ``structure`` (``pmr``/``pm1``/``rtree``),
``exact`` (window/point, default true) and ``deadline_ms`` (a relative
per-request budget; on a sharded index a wave that passes it degrades
to a partial answer over the shards it ran instead of failing).

Mutation kinds (:data:`MUTATION_KINDS`) address a dataset by any
fingerprint in its version chain; the engine applies the batch to the
latest version and answers with the committed snapshot::

    {"id": 9, "status": 200, "version": 3,
     "result": {"fingerprint": "c4d5...", "num_lines": 1005,
                "inserted": 5, "deleted": 0}}

Every probe and mutation response carries ``version`` -- the dataset
version the answer was computed against (joins carry ``versions``, one
per side) -- so a client can tell which snapshot served it.

Response::

    {"id": 7, "status": 200, "result": [3, 17, 41]}

``status`` borrows HTTP's vocabulary (:data:`OK`, :data:`PARTIAL`,
:data:`BAD_REQUEST`, :data:`NOT_FOUND`, :data:`RETRY_AFTER`,
:data:`INTERNAL`, :data:`SHED`).  Non-200 responses carry a
machine-readable ``reason`` plus a human ``error`` message; 429/503
add ``retry_after_ms``; 206 adds ``shards_dropped`` and
``shards_completed`` next to the partial ``result``.  Results encode
window/point id arrays as int lists, nearest as ``[line_id,
distance]``, join as a list of ``[id_a, id_b]`` pairs.

Framing errors (oversized/zero length, non-object or undecodable
payload) are not recoverable mid-stream -- the server answers with one
400 frame where it still can and closes the connection.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Optional

import numpy as np

__all__ = ["MAX_FRAME", "MAX_MUTATION_BATCH",
           "OK", "PARTIAL", "BAD_REQUEST", "NOT_FOUND",
           "RETRY_AFTER", "INTERNAL", "SHED", "REQUEST_KINDS",
           "PROBE_KINDS", "MUTATION_KINDS",
           "ProtocolError", "encode_frame", "jsonable",
           "parse_request", "read_frame", "write_frame",
           "recv_frame_sock", "send_frame_sock"]

#: hard cap on one frame's payload (guards the server's memory)
MAX_FRAME = 8 * 1024 * 1024

_HEADER = struct.Struct(">I")

# -- status codes (HTTP's vocabulary, this protocol's semantics) ---------
OK = 200             #: full answer
PARTIAL = 206        #: deadline expired: answer from the shards that reported
BAD_REQUEST = 400    #: malformed frame or request
NOT_FOUND = 404      #: unknown dataset fingerprint
RETRY_AFTER = 429    #: admission refused (rate, fairness, backpressure, breaker)
INTERNAL = 500       #: the engine failed on this request
SHED = 503           #: brownout: the server is over capacity, try later

PROBE_KINDS = ("window", "point", "nearest", "join")
MUTATION_KINDS = ("insert", "delete")
REQUEST_KINDS = PROBE_KINDS + MUTATION_KINDS + ("health", "datasets")

#: cap on one mutation batch (keeps a frame well under MAX_FRAME)
MAX_MUTATION_BATCH = 100_000


class ProtocolError(ValueError):
    """A frame or request the protocol layer refuses.

    ``fatal`` marks framing-level corruption after which the byte
    stream cannot be trusted (the connection must close); request-level
    schema errors are not fatal -- the server answers 400 and reads on.
    """

    def __init__(self, message: str, reason: str = "bad_request",
                 fatal: bool = False):
        super().__init__(message)
        self.reason = reason
        self.fatal = fatal


def jsonable(obj):
    """Recursively coerce numpy scalars/arrays (and tuples) to JSON types."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)   # inf/nan are not JSON; health gauges only
    return obj


def _numpy_default(obj):
    """``json.dumps`` hook for the numpy arrays and scalars an answer
    carries; anything else falls back to :func:`jsonable`."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def encode_frame(obj: dict) -> bytes:
    """One wire frame: length prefix + compact JSON payload.

    The encoder runs on the object as is, with :func:`_numpy_default`
    for numpy values, so an answer's ids are not walked in Python.  An
    object it refuses -- a non-finite float (health gauges), a set, a
    key that is not a str/int/float -- goes through :func:`jsonable`
    first, which yields the same bytes wherever both succeed.  (The two
    differ only on ``bool`` and ``None`` dict keys, which no response
    carries.)
    """
    try:
        text = json.dumps(obj, separators=(",", ":"), allow_nan=False,
                          default=_numpy_default)
    except (TypeError, ValueError):
        text = json.dumps(jsonable(obj), separators=(",", ":"))
    payload = text.encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds "
                            f"MAX_FRAME={MAX_FRAME}", fatal=True)
    return _HEADER.pack(len(payload)) + payload


def _decode_payload(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}",
                            reason="bad_frame", fatal=True) from exc
    if not isinstance(obj, dict):
        raise ProtocolError("frame payload must be a JSON object",
                            reason="bad_frame", fatal=True)
    return obj


def _check_length(n: int) -> None:
    if n == 0:
        raise ProtocolError("zero-length frame", reason="bad_frame",
                            fatal=True)
    if n > MAX_FRAME:
        raise ProtocolError(f"frame of {n} bytes exceeds MAX_FRAME="
                            f"{MAX_FRAME}", reason="frame_too_large",
                            fatal=True)


async def read_frame(reader: asyncio.StreamReader,
                     count=None) -> Optional[dict]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    ``count``, when given, is called with the exact wire bytes consumed
    (header + payload) -- the server's ``bytes_in`` gauge.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header",
                            reason="bad_frame", fatal=True) from exc
    (n,) = _HEADER.unpack(header)
    _check_length(n)
    try:
        payload = await reader.readexactly(n)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame",
                            reason="bad_frame", fatal=True) from exc
    if count is not None:
        count(_HEADER.size + n)
    return _decode_payload(payload)


async def write_frame(writer: asyncio.StreamWriter, obj: dict) -> int:
    """Write one frame and drain; returns the bytes put on the wire."""
    data = encode_frame(obj)
    writer.write(data)
    await writer.drain()
    return len(data)


# -- synchronous framing (the blocking client) ---------------------------

def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if not buf:
                return None
            raise ProtocolError("connection closed mid-frame",
                                reason="bad_frame", fatal=True)
        buf.extend(chunk)
    return bytes(buf)


def recv_frame_sock(sock: socket.socket) -> Optional[dict]:
    """Blocking read of one frame; ``None`` on clean EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (n,) = _HEADER.unpack(header)
    _check_length(n)
    payload = _recv_exact(sock, n)
    if payload is None:
        raise ProtocolError("connection closed mid-frame",
                            reason="bad_frame", fatal=True)
    return _decode_payload(payload)


def send_frame_sock(sock: socket.socket, obj: dict) -> int:
    data = encode_frame(obj)
    sock.sendall(data)
    return len(data)


# -- request validation --------------------------------------------------

def _coords(obj: dict, field: str, n: int) -> list:
    val = obj.get(field)
    if (not isinstance(val, (list, tuple)) or len(val) != n
            or not all(isinstance(v, (int, float))
                       and not isinstance(v, bool) for v in val)):
        raise ProtocolError(f"{field!r} must be a list of {n} numbers")
    return [float(v) for v in val]


def parse_request(obj: dict) -> dict:
    """Validate one request frame into the server's normalized shape.

    Returns ``{"id", "kind", ...kind fields...}``; raises
    :class:`ProtocolError` (non-fatal) on any schema violation.
    """
    req_id = obj.get("id")
    if req_id is not None and not isinstance(req_id, (int, str)):
        raise ProtocolError("'id' must be an integer or string")
    kind = obj.get("kind")
    if kind not in REQUEST_KINDS:
        raise ProtocolError(f"unknown request kind {kind!r}; expected one "
                            f"of {list(REQUEST_KINDS)}")
    out = {"id": req_id, "kind": kind}
    if kind in ("health", "datasets"):
        return out
    fp = obj.get("fingerprint")
    if not isinstance(fp, str) or not fp:
        raise ProtocolError("'fingerprint' must be a non-empty string")
    out["fingerprint"] = fp
    structure = obj.get("structure")
    if structure is not None and not isinstance(structure, str):
        raise ProtocolError("'structure' must be a string")
    out["structure"] = structure
    deadline_ms = obj.get("deadline_ms")
    if deadline_ms is not None:
        if (not isinstance(deadline_ms, (int, float))
                or isinstance(deadline_ms, bool) or deadline_ms <= 0):
            raise ProtocolError("'deadline_ms' must be a positive number")
        out["deadline"] = float(deadline_ms) / 1e3
    else:
        out["deadline"] = None
    if kind == "window":
        rect = _coords(obj, "rect", 4)
        if rect[0] > rect[2] or rect[1] > rect[3]:
            raise ProtocolError("'rect' must be [x0, y0, x1, y1] with "
                                "x0 <= x1 and y0 <= y1")
        out["rect"] = rect
        out["exact"] = _flag(obj, "exact", True)
    elif kind in ("point", "nearest"):
        out["point"] = _coords(obj, "point", 2)
        if kind == "point":
            out["exact"] = _flag(obj, "exact", True)
    elif kind == "insert":
        out["lines"] = _lines(obj)
    elif kind == "delete":
        out["ids"] = _ids(obj)
    else:  # join
        fp_b = obj.get("fingerprint_b")
        if not isinstance(fp_b, str) or not fp_b:
            raise ProtocolError("'fingerprint_b' must be a non-empty string")
        out["fingerprint_b"] = fp_b
    return out


def _lines(obj: dict) -> list:
    val = obj.get("lines")
    if not isinstance(val, (list, tuple)) or not val:
        raise ProtocolError("'lines' must be a non-empty list of "
                            "[x0, y0, x1, y1] rows")
    if len(val) > MAX_MUTATION_BATCH:
        raise ProtocolError(f"'lines' exceeds the {MAX_MUTATION_BATCH}-row "
                            f"batch cap")
    rows = []
    for i, row in enumerate(val):
        if (not isinstance(row, (list, tuple)) or len(row) != 4
                or not all(isinstance(v, (int, float))
                           and not isinstance(v, bool) for v in row)):
            raise ProtocolError(f"'lines'[{i}] must be a list of 4 numbers")
        rows.append([float(v) for v in row])
    return rows


def _ids(obj: dict) -> list:
    val = obj.get("ids")
    if not isinstance(val, (list, tuple)) or not val:
        raise ProtocolError("'ids' must be a non-empty list of "
                            "non-negative integers")
    if len(val) > MAX_MUTATION_BATCH:
        raise ProtocolError(f"'ids' exceeds the {MAX_MUTATION_BATCH}-row "
                            f"batch cap")
    for i, v in enumerate(val):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ProtocolError(f"'ids'[{i}] must be a non-negative integer")
    return [int(v) for v in val]


def _flag(obj: dict, field: str, default: bool) -> bool:
    val = obj.get(field, default)
    if not isinstance(val, bool):
        raise ProtocolError(f"{field!r} must be a boolean")
    return val

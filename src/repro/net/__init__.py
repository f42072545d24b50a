"""Network serving front-end: the engine behind a TCP wire.

Everything below :mod:`repro.engine` serves in-process callers; this
package is the edge that turns the engine into a *service*:

* :mod:`~repro.net.protocol` -- length-prefixed JSON framing, request/
  response schemas, and the status vocabulary (200/206/400/404/429/
  500/503);
* :mod:`~repro.net.admission` -- token-bucket fairness, per-client and
  global in-flight caps, connection limits: overload becomes structured
  429/503 answers instead of collapse;
* :mod:`~repro.net.server` -- the asyncio TCP server feeding the
  engine's request coalescer, so concurrent network clients share
  vectorized batches; plus :class:`ServerStats` and the threaded
  embedding :class:`ServerThread`;
* :mod:`~repro.net.client` -- a blocking call-and-response client.

Entry points: ``python -m repro serve --listen HOST:PORT`` serves,
``python -m repro mutate --connect HOST:PORT`` commits a batch,
``python -m repro health --connect HOST:PORT --json`` scrapes.
"""

from .admission import Admission, AdmissionController, TokenBucket
from .client import ServeClient, ServeConnectionError, connect_with_retry
from .protocol import (BAD_REQUEST, INTERNAL, MAX_FRAME, NOT_FOUND, OK,
                       PARTIAL, PROBE_KINDS, REQUEST_KINDS, RETRY_AFTER,
                       SHED, ProtocolError, encode_frame, jsonable,
                       parse_request)
from .server import ServerStats, ServerThread, SpatialServer

__all__ = [
    "Admission", "AdmissionController", "TokenBucket",
    "ServeClient", "ServeConnectionError", "connect_with_retry",
    "BAD_REQUEST", "INTERNAL", "MAX_FRAME", "NOT_FOUND", "OK", "PARTIAL",
    "PROBE_KINDS", "REQUEST_KINDS", "RETRY_AFTER", "SHED",
    "ProtocolError", "encode_frame", "jsonable", "parse_request",
    "ServerStats", "ServerThread", "SpatialServer",
]

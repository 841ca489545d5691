"""Wire protocol of the network ingestion front-end (revision 3).

Every message is one JSON object on one line, terminated by ``\\n`` —
inspectable with ``nc``, diffable in test failures.  One verb carries
bulk data and is the exception: a ``batch`` header line is followed by
the tuples as raw bytes, so what a batch costs on either side of the
socket is a ``memcpy`` or two, not a decimal print and parse of every
number.

Frame grammar::

    frame   = header [payload]
    header  = one JSON object with a "type", one line, "\\n" terminated
    payload = exactly header["payload_bytes"] bytes; present if and only
              if the header has "payload_bytes"; only "batch" has it

    batch header  {"type":"batch","job_id":J,"count":N,
                   "dtypes":["<u8","<i8","<f8"],"payload_bytes":24*N}
    batch payload N keys, then N values, then N timestamps, each column
                  contiguous and little-endian

A reader learns the payload length from the header alone and checks it
— an ``int`` (not a bool), ``0 <= payload_bytes <= cap``,
``payload_bytes == 24 * count``, on a ``batch`` — *before* it reads or
allocates anything; a declaration that fails is a
:class:`FramingError` (the stream can no longer be cut into frames, the
gateway answers ``error`` and disconnects).  The cap is
:data:`MAX_LINE_BYTES` (``StreamGateway(max_line_bytes=...)``), applied
to the header line and to the payload alike.  The bytes are mapped, not
copied: :func:`decode_batch` returns read-only ``np.frombuffer`` views,
bit-identical to the arrays the client held (the acceptance bar for the
serving results).  Timestamps are not validated here — a NaN or
infinite stamp fails its job in ``WindowManager.observe``.

Replies, and every other verb, stay plain JSON lines.  That includes
``result``: one reply per job, tagged by :func:`to_wire` so dtypes and
non-string dict keys survive, costs 0.26 ms to encode, decode and
restore for a ``histo`` result (``net.protocol.result_roundtrip_ms``)
against the job's hundreds of batches, and stays readable.

Client -> server messages (``type`` field):

``hello``
    ``{tenant, token?}`` — authenticate the connection as one tenant.
    Reply: ``welcome {credits, high_water, protocol, tenant}`` or
    ``error``.
``submit``
    ``{app, job_id?, priority?, deadline?, window_seconds?, params?}`` —
    open a streaming job.  Reply: ``accepted {job_id, credits}``, or
    ``error`` (``code="quota"`` for admission-control rejections).
``batch``
    ``{job_id, count, dtypes, payload_bytes}`` + payload — one
    timestamped batch; consumes one write credit.  Reply: ``ack
    {credits}`` when buffered, ``busy {credits}`` when shed (tenant
    over its high-water mark).  A revision-2 batch (``keys`` /
    ``values`` / ``timestamps`` JSON lists) is refused with an
    ``error`` that says so; the connection stays usable.
``end``
    ``{job_id}`` — close the job's stream; the buffered batches drain
    into the fleet.  Reply: ``ack``.
``credit``
    ``{}`` — block until the tenant is below the high-water mark again;
    the well-behaved client's stall point.  Reply: ``credit {credits}``.
``poll``
    ``{job_id}`` — job status snapshot.  Reply: ``status {...}``.
``result``
    ``{job_id, timeout?}`` — block until the job completes.  Reply:
    ``result {...}`` or ``error``.
``cancel``
    ``{job_id}`` — withdraw a queued job.  Reply: ``ack {cancelled}``.
``stats``
    ``{format?}`` — the service's telemetry snapshot.
    ``format="json"`` (default) replies ``stats {snapshot}`` with the
    raw :meth:`ServiceMetrics.snapshot` dict; ``format="prometheus"``
    replies ``stats {body}`` with the text exposition a Prometheus
    scraper parses.  Requires ``hello`` first, like every other verb.
``bye``
    close the connection cleanly.  Reply: ``ack``.

``credits`` is the number of batches the tenant may still send before
stalling; ``-1`` means unlimited (backpressure disabled).
"""

from __future__ import annotations

import io
import json
from itertools import accumulate
from typing import Any, BinaryIO, Dict, Optional

import numpy as np

from repro.workloads.streams import TimestampedBatch
from repro.workloads.tuples import TupleBatch

#: Protocol revision carried in the ``welcome`` reply.
#: 2 added the ``stats`` telemetry verb; 3 replaced the ``batch``
#: message's JSON number lists with a binary payload (not additive: a
#: revision-2 ``batch`` is refused).
PROTOCOL_VERSION = 3

#: Hard cap on one header line and on one payload; anything beyond is a
#: protocol error (guards the gateway against unbounded memory from one
#: client).
MAX_LINE_BYTES = 16 * 1024 * 1024

#: Credit value meaning "unlimited" (backpressure disabled).
UNLIMITED_CREDITS = -1

#: Column dtypes of a ``batch`` payload, in wire order: keys, values,
#: timestamps.  Carried in every batch header so a capture is
#: self-describing; no other value is accepted.
BATCH_DTYPES = ("<u8", "<i8", "<f8")

_ITEM_BYTES = [np.dtype(dtype).itemsize for dtype in BATCH_DTYPES]
_TUPLE_BYTES = sum(_ITEM_BYTES)
#: ``(dtype, payload offset in bytes per tuple of count)`` per column.
_COLUMNS = tuple(zip(BATCH_DTYPES, accumulate(_ITEM_BYTES, initial=0)))

_BATCH_SHAPE = (
    f"a protocol {PROTOCOL_VERSION} batch is a header with count, "
    f"dtypes {list(BATCH_DTYPES)} and payload_bytes, followed by "
    "payload_bytes raw bytes")


class ProtocolError(ValueError):
    """A malformed, oversized, or out-of-order wire message."""


class FramingError(ProtocolError):
    """The byte stream can no longer be cut into frames.

    An over-long header line, a ``payload_bytes`` declaration that
    fails its checks, or a payload cut short: where the next frame
    starts is unknown, so the connection has to go.
    """


def encode(message: Dict[str, Any]) -> bytes:
    """One message as a whole frame: its newline-terminated JSON
    header and, for a message carrying :func:`batch_payload` fields,
    the payload bytes behind it."""
    payload = b""
    if "payload_bytes" in message:
        payload = message["payload"]
        if len(payload) != message["payload_bytes"]:
            raise ProtocolError(
                f"payload of {len(payload)} bytes under a header "
                f"declaring {message['payload_bytes']}")
        message = {key: value for key, value in message.items()
                   if key != "payload"}
    header = json.dumps(
        message, separators=(",", ":"), allow_nan=False).encode("utf-8")
    return b"".join((header, b"\n", payload))


def _parse_header(line: bytes) -> Dict[str, Any]:
    """One header line as a message dict; any failure is a
    :class:`ProtocolError` (bad UTF-8 and runaway nesting included)."""
    try:
        message = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"malformed JSON: {exc}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("every message must be an object with a 'type'")
    return message


def _payload_size(message: Dict[str, Any],
                  max_bytes: int) -> Optional[int]:
    """How many payload bytes follow this header (None: it declares no
    payload), from the header alone.

    Runs before anything is read or allocated on the header's say-so,
    hence the strictness: a wrong answer here desynchronises the
    stream or sizes a buffer from an attacker's number.
    """
    if "payload_bytes" not in message:
        return None
    size = message["payload_bytes"]
    if type(size) is not int:
        raise FramingError("payload_bytes must be an integer, got "
                           f"{type(size).__name__}")
    if not 0 <= size <= max_bytes:
        raise FramingError(
            f"payload_bytes {size} outside [0, {max_bytes}]")
    if message["type"] != "batch":
        raise FramingError("only batch messages carry a payload")
    count = message.get("count")
    if type(count) is not int or size != _TUPLE_BYTES * count:
        raise FramingError(
            f"payload_bytes {size} is not {_TUPLE_BYTES} bytes x the "
            "header's integer count")
    return size


class FrameReader:
    """Cuts a buffered binary stream into frames, one per :meth:`read`.

    ``max_bytes`` caps the header line and the payload, each.  Reads
    are bounded by it: an unterminated line cannot grow past the cap
    before the length check runs, and a payload is read only after its
    declared length passed :func:`_payload_size`.
    """

    def __init__(self, stream: BinaryIO,
                 max_bytes: int = MAX_LINE_BYTES) -> None:
        self._stream = stream
        self.max_bytes = max_bytes
        #: Wire size of the frame the last :meth:`read` consumed —
        #: header line plus payload — set whether it returned or raised.
        self.frame_bytes = 0

    def read(self) -> Optional[Dict[str, Any]]:
        """The next message, or None at end of stream.

        A payload is attached as ``message["payload"]``, a bytes object
        of its own (so the arrays mapped onto it are aligned).
        """
        line = self._stream.readline(self.max_bytes + 1)
        self.frame_bytes = len(line)
        if not line:
            return None
        if len(line) > self.max_bytes:
            raise FramingError(f"line exceeds {self.max_bytes} bytes")
        message = _parse_header(line)
        size = _payload_size(message, self.max_bytes)
        if size is not None:
            payload = self._stream.read(size)
            self.frame_bytes += len(payload)
            if len(payload) != size:
                raise FramingError(
                    f"stream ended {size - len(payload)} bytes short "
                    f"of a {size}-byte payload")
            message["payload"] = payload
        return message


def decode(frame: bytes) -> Dict[str, Any]:
    """Parse one whole frame — what :func:`encode` returned — into a
    message dict; bytes missing from or left over after the declared
    payload are an error."""
    stream = io.BytesIO(frame)
    message = FrameReader(stream).read()
    if message is None:
        raise ProtocolError("empty frame")
    if stream.tell() != len(frame):
        raise FramingError(
            f"{len(frame) - stream.tell()} bytes trail the frame")
    return message


# ----------------------------------------------------------------------
# Batch payloads
# ----------------------------------------------------------------------
def batch_payload(batch: TimestampedBatch) -> Dict[str, Any]:
    """A :class:`TimestampedBatch` as ``batch`` message fields.

    ``payload`` holds the three columns back to back, each made
    contiguous and little-endian first; :func:`encode` writes it behind
    the header built from the other fields.
    """
    payload = b"".join(
        np.ascontiguousarray(column, dtype=dtype)
        for column, dtype in zip(
            (batch.batch.keys, batch.batch.values, batch.timestamps),
            BATCH_DTYPES))
    return {
        "count": len(batch),
        "dtypes": list(BATCH_DTYPES),
        "payload_bytes": len(payload),
        "payload": payload,
    }


def decode_batch(message: Dict[str, Any]) -> TimestampedBatch:  # hot-path
    """Rebuild the :class:`TimestampedBatch` of a ``batch`` message.

    The arrays are read-only views of ``message["payload"]``; nothing
    is copied.
    """
    if "keys" in message:
        raise ProtocolError(
            "protocol 2 batch (keys / values / timestamps as JSON "
            f"lists) is no longer accepted: {_BATCH_SHAPE}")
    try:
        count = message["count"]
        dtypes = message["dtypes"]
        payload = message["payload"]
    except KeyError as exc:
        raise ProtocolError(
            f"batch lacks {exc.args[0]!r}: {_BATCH_SHAPE}") from None
    if dtypes != list(BATCH_DTYPES):
        raise ProtocolError(
            f"batch dtypes must be exactly {list(BATCH_DTYPES)}")
    if type(count) is not int or count < 0:
        raise ProtocolError("batch count must be a non-negative integer")
    try:
        size = memoryview(payload).nbytes
    except TypeError:
        raise ProtocolError("batch payload must be raw bytes") from None
    if size != _TUPLE_BYTES * count:
        raise ProtocolError(
            f"batch payload of {size} bytes is not {_TUPLE_BYTES} "
            f"bytes x count {count}")
    keys, values, timestamps = (
        np.frombuffer(payload, dtype, count, start * count)
        for dtype, start in _COLUMNS)
    return TimestampedBatch(timestamps, TupleBatch(keys, values))


# ----------------------------------------------------------------------
# Result payloads
# ----------------------------------------------------------------------
def to_wire(obj: Any) -> Any:
    """Application results as tagged JSON (ndarrays, typed dict keys).

    Results differ per application (histogram arrays, partition dicts,
    heavy-hitter count maps...); the tagging keeps numpy dtypes and
    non-string dict keys intact so the client reconstructs exactly what
    an in-process :meth:`StreamService.result` call would return.
    """
    if isinstance(obj, np.ndarray):
        return {"__kind__": "ndarray", "dtype": str(obj.dtype),
                "data": obj.tolist()}
    if isinstance(obj, np.generic):
        return {"__kind__": "scalar", "dtype": str(obj.dtype),
                "value": obj.item()}
    if isinstance(obj, dict):
        return {"__kind__": "dict",
                "items": [[to_wire(k), to_wire(v)]
                          for k, v in obj.items()]}
    if isinstance(obj, tuple):
        return {"__kind__": "tuple", "items": [to_wire(x) for x in obj]}
    if isinstance(obj, list):
        return [to_wire(x) for x in obj]
    return obj


def from_wire(obj: Any) -> Any:
    """Inverse of :func:`to_wire`."""
    if isinstance(obj, list):
        return [from_wire(x) for x in obj]
    if isinstance(obj, dict):
        kind = obj.get("__kind__")
        if kind == "ndarray":
            return np.asarray(obj["data"], dtype=np.dtype(obj["dtype"]))
        if kind == "scalar":
            return np.dtype(obj["dtype"]).type(obj["value"])
        if kind == "dict":
            return {from_wire(k): from_wire(v) for k, v in obj["items"]}
        if kind == "tuple":
            return tuple(from_wire(x) for x in obj["items"])
        return {k: from_wire(v) for k, v in obj.items()}
    return obj

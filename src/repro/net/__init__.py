"""Network ingestion front-end for the stream-serving fleet.

The serving layer (:mod:`repro.service`) admits jobs in-process; this
package puts a wire in front of it, the production-shaped step the
paper's network-fed scenario implies (tuples arriving at line rate with
the accelerator either keeping up or falling behind):

``protocol``
    Wire format: one JSON object per line — ``hello`` / ``submit`` /
    ``batch`` / ``end`` / ``credit`` / ``poll`` / ``result`` /
    ``cancel`` / ``stats`` — with a ``batch`` header followed by its
    tuples as raw bytes; exact (bit-identical) batch and result
    payloads.
``buffer``
    :class:`~repro.net.buffer.IngestBuffer` — the per-job FIFO between
    a client connection and the service dispatcher.
``gateway``
    :class:`~repro.net.gateway.StreamGateway` — the TCP listener:
    per-connection tenant auth, bounded per-tenant ingest with
    credit-based backpressure (stall well-behaved clients, shed
    flooding ones), and gateway counters merged into
    :meth:`ServiceMetrics.snapshot`.
``client``
    :class:`~repro.net.client.StreamClient` — the credit-honouring
    client library behind ``repro submit --connect``.
"""

from repro.net.buffer import IngestBuffer
from repro.net.client import GatewayError, StreamClient
from repro.net.gateway import DEFAULT_HIGH_WATER, StreamGateway
from repro.net.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    UNLIMITED_CREDITS,
    ProtocolError,
)

__all__ = [
    "DEFAULT_HIGH_WATER",
    "GatewayError",
    "IngestBuffer",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "StreamClient",
    "StreamGateway",
    "UNLIMITED_CREDITS",
]

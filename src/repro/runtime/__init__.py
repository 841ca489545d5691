"""Streaming runtime: online processing across stream segments.

The paper's online scenario (Fig. 9) processes an unbounded stream.  The
:class:`~repro.runtime.session.StreamingSession` wraps the architecture
so segment results accumulate across batches, matching how an online
deployment keeps a running histogram / register file / sketch while the
skew-handling machinery adapts underneath.
"""

from repro.runtime.session import StreamingSession

__all__ = ["StreamingSession"]

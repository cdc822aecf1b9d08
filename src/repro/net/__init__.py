"""Network serving: the asyncio ingestion server and its wire protocol.

Clients push :class:`~repro.cq.schema.Tuple` batches and subscribe to
query matches over one TCP connection speaking length-prefixed typed binary
frames (:mod:`repro.runtime.frames`).  The server coalesces everything
buffered across all connections into adaptive engine batches (one eviction
sweep per batch) and fans matches out encode-once, with hard-bounded queues
in both directions — see :mod:`repro.net.server` for the flow-control design
and the README's "Serving over the network" section for the operator view.
"""

from repro.net.client import IngestClient, NetClientError
from repro.net.protocol import PROTOCOL_VERSION
from repro.net.server import IngestServer, ServerThread

__all__ = [
    "IngestClient",
    "IngestServer",
    "NetClientError",
    "PROTOCOL_VERSION",
    "ServerThread",
]

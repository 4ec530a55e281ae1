"""repro.serve — the asyncio base-station serving layer.

The paper's base station is a *server*: it broadcasts the on-air index
and answers on-demand spatial queries from many mobile clients.  This
package is the process you can point traffic at:

* **protocol** — a length-prefixed framed wire protocol (4-byte
  big-endian length + one JSON document) with five message types:
  HELLO, QUERY, ANSWER, ERROR, SHED;
* **session** — per-client connection state: client id,
  outstanding-query count, standing queries and the connection's
  trace exporter;
* **server** — :class:`BaseStationServer`: one accept loop, one
  bounded request queue drained by a serialised worker over a fully
  wired :class:`~repro.experiments.Simulation`, admission control
  (queue bound, per-client in-flight cap, M/M/c overload estimate from
  live measured rates) answering SHED instead of queueing unboundedly,
  idle-session reaping, and per-connection JSONL span export;
* **loadgen** — the traffic side: replays seeded Table 3 workloads at
  a configurable QPS over N connections and reports achieved QPS,
  latency percentiles, and shed counts.
"""

from .loadgen import LoadReport, ServeClient, run_load
from .protocol import (
    FrameError,
    MAX_FRAME,
    MSG_ANSWER,
    MSG_ERROR,
    MSG_HELLO,
    MSG_QUERY,
    MSG_SHED,
    PROTOCOL_VERSION,
    encode_frame,
    read_frame,
)
from .server import BaseStationServer, ServeConfig
from .session import ClientSession

__all__ = [
    "BaseStationServer",
    "ClientSession",
    "FrameError",
    "LoadReport",
    "MAX_FRAME",
    "MSG_ANSWER",
    "MSG_ERROR",
    "MSG_HELLO",
    "MSG_QUERY",
    "MSG_SHED",
    "PROTOCOL_VERSION",
    "ServeClient",
    "ServeConfig",
    "encode_frame",
    "read_frame",
    "run_load",
]

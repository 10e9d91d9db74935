"""MeDICi-style middleware: endpoints, the mux hub fabric, wire formats."""

from .client import DataBuffer, MWClient
from .endpoints import Endpoint, parse_endpoint
from .errors import (
    ClientClosed,
    ConnectFailed,
    DeadlineExceeded,
    MiddlewareError,
    RecvTimeout,
    RetryPolicy,
    SendFailed,
)
from .fastpath import InprocMuxRouter, MuxRouter
from .hashring import ConsistentHashRing, EmptyRing
from .message import (
    MAX_FRAME,
    MUX_HEADER,
    FrameError,
    PeerClosed,
    StreamReader,
    pack_extension,
    pack_state_update,
    recv_mux_frame,
    send_mux_frame,
    send_mux_frames,
    split_extension,
    unpack_state_update,
)
from .router import MiddlewareFabric

__all__ = [
    "Endpoint",
    "parse_endpoint",
    "MiddlewareError",
    "ConnectFailed",
    "SendFailed",
    "RecvTimeout",
    "ClientClosed",
    "DeadlineExceeded",
    "RetryPolicy",
    "FrameError",
    "PeerClosed",
    "MAX_FRAME",
    "MUX_HEADER",
    "StreamReader",
    "pack_extension",
    "split_extension",
    "send_mux_frame",
    "send_mux_frames",
    "recv_mux_frame",
    "MuxRouter",
    "InprocMuxRouter",
    "ConsistentHashRing",
    "EmptyRing",
    "pack_state_update",
    "unpack_state_update",
    "DataBuffer",
    "MWClient",
    "MiddlewareFabric",
]

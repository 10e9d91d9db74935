"""Wire framing and payload serialisation.

Every middleware socket carries **mux frames**: a compact 10-byte header
``(version, flags, src, dst, length)`` so many logical streams share one
long-lived connection and the hub forwards by destination id without
re-dialing (the EOF-protocol role of the paper's Figure 7 connector).
Metadata a frame carries besides its application payload — the sender's
trace context, the cluster epoch — rides in one **extension block** at the
head of the payload, announced by header flags; :func:`pack_extension` and
:func:`split_extension` are its only encoder and decoder.  A frame with
``flags == 0`` has no block: header + application bytes, nothing else.

The path is zero-copy where the kernel allows it: receives land in
preallocated buffers via ``recv_into`` (one kernel→user copy per read, no
chunk-list reassembly) and sends use scatter-gather ``sendmsg`` so header,
extension block and payload never get concatenated in userspace.
``StreamReader`` is the incremental, non-blocking reassembler the
event-driven receive loops (``selectors``-based) feed from.

Payload helpers pack the measurement-exchange records (bus ids + Vm/Va
pairs) into flat ``numpy`` buffers in a single allocation;
``unpack_state_update(copy=False)`` returns views that alias the wire
buffer (see the ownership note on that function).
"""

from __future__ import annotations

import socket
import struct

import numpy as np

from ..obs.trace import (
    TRACE_CTX_SIZE,
    SpanContext,
    pack_span_context,
    unpack_span_context,
)

__all__ = [
    "FrameError",
    "PeerClosed",
    "MAX_FRAME",
    "MUX_HEADER",
    "MUX_VERSION",
    "FLAG_CONTROL",
    "FLAG_TRACED",
    "FLAG_CHECKPOINT",
    "FLAG_EPOCH",
    "pack_extension",
    "split_extension",
    "sendmsg_all",
    "send_mux_frame",
    "send_mux_frames",
    "recv_mux_frame",
    "StreamReader",
    "pack_state_update",
    "unpack_state_update",
    "COND_FLAG_VALUES_ONLY",
    "pack_condensed_update",
    "unpack_condensed_update",
    "state_update_nbytes",
    "condensed_update_nbytes",
]

_LEN = struct.Struct(">Q")
#: refuse frames above this size (sanity bound, 1 GiB)
MAX_FRAME = 1 << 30

#: mux frame header: version, flags, src id, dst id, payload length
MUX_HEADER = struct.Struct(">BBHHI")
MUX_VERSION = 1
#: control frame (connection registration HELLO / ACK), not forwarded data
FLAG_CONTROL = 0x01
#: the extension block carries the sender's span context (wire-level
#: context propagation: the router hop and the receiver join the trace)
FLAG_TRACED = 0x02
#: checkpoint frame (replicated subsystem state for failover) — routed to
#: the dst like data, but diverted to the dst's checkpoint sink instead of
#: the ordinary receive queue
FLAG_CHECKPOINT = 0x08
#: the extension block carries the cluster epoch (after the span context
#: when both flags are set); the mux hub may fence stale epochs
FLAG_EPOCH = 0x10
#: every flag bit a frame may carry; a header with any other bit set is
#: refused, so no unknown flag is ever routed as application data
_KNOWN_FLAGS = FLAG_CONTROL | FLAG_TRACED | FLAG_CHECKPOINT | FLAG_EPOCH

#: cluster-epoch field of the extension block (8 bytes)
EPOCH_CTX = struct.Struct(">Q")

#: scatter-gather batches stay well under IOV_MAX (1024 on Linux)
_IOV_BATCH = 256


class FrameError(RuntimeError):
    """Raised on malformed frames or broken connections."""


class PeerClosed(FrameError):
    """Orderly EOF at a frame boundary (peer closed between frames)."""


# ----------------------------------------------------------------------
# header extension block
# ----------------------------------------------------------------------
def pack_extension(ctx: SpanContext | None, epoch: int | None) -> tuple[int, bytes]:
    """Encode the metadata a frame carries ahead of its application bytes.

    Returns ``(flags, block)``: the sender ORs ``flags`` into the frame
    header and puts ``block`` — ``[span context][epoch]``, each present
    only when given — in front of the payload (its own ``sendmsg`` buffer,
    never concatenated).  ``(None, None)`` gives ``(0, b"")``: such a frame
    is byte-identical to one that knows nothing of extensions.
    """
    flags, block = 0, b""
    if ctx is not None:
        flags, block = FLAG_TRACED, pack_span_context(ctx)
    if epoch is not None:
        flags, block = flags | FLAG_EPOCH, block + EPOCH_CTX.pack(epoch)
    return flags, block


def split_extension(flags: int, buf) -> tuple[SpanContext | None, int | None, object]:
    """Inverse of :func:`pack_extension` on a received payload.

    Returns ``(ctx, epoch, application payload)``; ``buf`` is not modified
    (the hub reads the fields and forwards the frame whole, the receiving
    edge keeps only the application bytes — ``buf`` itself when the flags
    announce no block).  The one length check: a payload shorter than the
    block its flags announce raises :class:`FrameError`, whichever field
    the cut fell in.
    """
    size = (TRACE_CTX_SIZE if flags & FLAG_TRACED else 0) + (
        EPOCH_CTX.size if flags & FLAG_EPOCH else 0
    )
    if not size:
        return None, None, buf
    if len(buf) < size:
        raise FrameError(
            f"payload of {len(buf)} bytes is shorter than its "
            f"{size}-byte extension block"
        )
    ctx = unpack_span_context(buf) if flags & FLAG_TRACED else None
    epoch = (
        EPOCH_CTX.unpack_from(buf, size - EPOCH_CTX.size)[0]
        if flags & FLAG_EPOCH
        else None
    )
    return ctx, epoch, buf[size:]


# ----------------------------------------------------------------------
# scatter-gather send
# ----------------------------------------------------------------------
def sendmsg_all(sock: socket.socket, parts: list) -> None:
    """Send every buffer in ``parts`` without concatenating them.

    Uses ``sendmsg`` (one syscall for many buffers) and handles partial
    writes and EAGAIN on non-blocking sockets.
    """
    if not hasattr(sock, "sendmsg"):  # pragma: no cover - non-POSIX fallback
        sock.sendall(b"".join(parts))
        return
    views = [memoryview(p) for p in parts if len(p)]
    while views:
        try:
            sent = sock.sendmsg(views[:_IOV_BATCH])
        except (BlockingIOError, InterruptedError):
            import select

            select.select([], [sock], [])
            continue
        while views and sent >= len(views[0]):
            sent -= len(views[0])
            views.pop(0)
        if sent:
            views[0] = views[0][sent:]


# ----------------------------------------------------------------------
# blocking receive primitives
# ----------------------------------------------------------------------
def _recv_exact(sock: socket.socket, n: int, *, eof_ok: bool = False) -> bytearray:
    """Receive exactly ``n`` bytes into one preallocated buffer.

    ``recv_into`` writes straight into the result — no per-chunk
    allocations, no ``b"".join`` copy.  ``eof_ok`` promotes a clean EOF
    before the first byte to :class:`PeerClosed` (a frame boundary).
    """
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        r = sock.recv_into(view[got:])
        if r == 0:
            if got == 0 and eof_ok:
                raise PeerClosed("peer closed connection")
            raise FrameError("connection closed mid-frame")
        got += r
    return buf


# ----------------------------------------------------------------------
# mux frames
# ----------------------------------------------------------------------
def _frame_parts(flags: int, src: int, dst: int, ext, payload) -> list:
    length = len(ext) + len(payload)
    if length > MAX_FRAME:
        raise FrameError(f"frame too large: {length}")
    return [MUX_HEADER.pack(MUX_VERSION, flags, src, dst, length), ext, payload]


def send_mux_frame(
    sock: socket.socket, src: int, dst: int, payload, *, flags: int = 0, ext=b""
) -> None:
    """Send one mux frame; header, extension block ``ext`` (see
    :func:`pack_extension`) and payload are scatter-gathered."""
    sendmsg_all(sock, _frame_parts(flags, src, dst, ext, payload))


def send_mux_frames(
    sock: socket.socket, src: int, frames, *, flags: int = 0, ext=b""
) -> None:
    """Batch-coalesced mux send: ``frames`` is an iterable of
    ``(dst, payload)`` pairs; all headers + payloads ride one syscall.
    ``flags`` and ``ext`` apply to every frame of the burst."""
    parts = []
    for dst, payload in frames:
        parts += _frame_parts(flags, src, dst, ext, payload)
    if parts:
        sendmsg_all(sock, parts)


def _parse_mux_header(buf, offset: int = 0) -> tuple[int, int, int, int]:
    version, flags, src, dst, length = MUX_HEADER.unpack_from(buf, offset)
    if version != MUX_VERSION:
        raise FrameError(f"unsupported mux frame version {version}")
    if flags & ~_KNOWN_FLAGS:
        raise FrameError(f"undefined mux frame flags {flags:#04x}")
    if length > MAX_FRAME:
        raise FrameError(f"frame too large: {length}")
    return flags, src, dst, length


def recv_mux_frame(sock: socket.socket) -> tuple[int, int, int, bytearray]:
    """Receive one mux frame; returns ``(flags, src, dst, payload)``."""
    header = _recv_exact(sock, MUX_HEADER.size, eof_ok=True)
    flags, src, dst, length = _parse_mux_header(header)
    return flags, src, dst, _recv_exact(sock, length)


# ----------------------------------------------------------------------
# incremental reassembly for event-driven receive loops
# ----------------------------------------------------------------------
class StreamReader:
    """Incremental frame reassembly, one ``recv_into`` per :meth:`feed`.

    One instance per connection.  In a ``selectors`` loop each readiness
    event calls :meth:`feed` on the non-blocking socket; a thread draining
    a blocking socket calls it in a loop.  Either way a call costs a single
    read of up to :attr:`CHUNK` bytes — however many frames that completes —
    because every extra syscall is one more point where the calling thread
    hands the interpreter lock to another (whatever is left in the socket
    raises the next readiness event).  Frames come back as ``(flags, src,
    dst, payload)`` tuples; payload buffers are freshly allocated per frame
    and owned by the caller (nothing retains or reuses them here).
    """

    #: bytes asked of the socket per read
    CHUNK = 1 << 16

    def __init__(self):
        self._scratch = bytearray(self.CHUNK)
        self._view = memoryview(self._scratch)
        #: received bytes not yet returned as frames (a partial frame)
        self._buf = bytearray()

    def feed(self, sock: socket.socket) -> list:
        """Read ``sock`` once; return the frames completed so far.

        Raises :class:`PeerClosed` on EOF at a frame boundary and
        :class:`FrameError` on EOF mid-header / mid-payload — either way
        the frames completed before the error have already been returned
        by earlier calls, and the caller should close the connection.
        """
        try:
            r = sock.recv_into(self._scratch)
        except (BlockingIOError, InterruptedError):
            return []
        buf = self._buf
        if r == 0:
            if not buf:
                raise PeerClosed("peer closed connection")
            where = "mid-header" if len(buf) < MUX_HEADER.size else "mid-payload"
            raise FrameError(f"connection closed {where}")
        buf += self._view[:r]
        frames = []
        hsize = MUX_HEADER.size
        off, end = 0, len(buf)
        while end - off >= hsize:
            body = off + hsize
            flags, src, dst, length = _parse_mux_header(buf, off)
            if end - body < length:
                break
            frames.append((flags, src, dst, buf[body : body + length]))
            off = body + length
        del buf[:off]
        return frames


# ----------------------------------------------------------------------
# state-update payloads
# ----------------------------------------------------------------------
def pack_state_update(bus_ids: np.ndarray, Vm: np.ndarray, Va: np.ndarray) -> bytearray:
    """Pack a pseudo-measurement exchange record into a flat buffer.

    Single allocation: the count header and all three arrays are written
    straight into one ``bytearray`` (one copy per array, no ``tobytes`` or
    concatenation intermediates).
    """
    bus_ids = np.asarray(bus_ids)
    Vm = np.asarray(Vm, dtype=np.float64)
    Va = np.asarray(Va, dtype=np.float64)
    if not (len(bus_ids) == len(Vm) == len(Va)):
        raise ValueError("array length mismatch")
    n = len(bus_ids)
    buf = bytearray(_LEN.size + n * (8 + 8 + 8))
    _LEN.pack_into(buf, 0, n)
    off = _LEN.size
    np.frombuffer(buf, dtype=np.int64, count=n, offset=off)[:] = bus_ids
    off += 8 * n
    np.frombuffer(buf, dtype=np.float64, count=n, offset=off)[:] = Vm
    off += 8 * n
    np.frombuffer(buf, dtype=np.float64, count=n, offset=off)[:] = Va
    return buf


def unpack_state_update(
    buf, *, copy: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_state_update`.

    With ``copy=False`` the returned arrays are *views* aliasing ``buf``
    (zero-copy): they are only valid while the caller keeps ``buf`` alive
    and unmodified, and writing to a mutable ``buf`` changes them.  The
    default ``copy=True`` returns owned arrays.
    """
    if len(buf) < _LEN.size:
        raise FrameError("short state-update buffer")
    (n,) = _LEN.unpack_from(buf)
    expect = _LEN.size + n * (8 + 8 + 8)
    if len(buf) != expect:
        raise FrameError(f"state-update length mismatch: {len(buf)} != {expect}")
    off = _LEN.size
    bus_ids = np.frombuffer(buf, dtype=np.int64, count=n, offset=off)
    off += 8 * n
    Vm = np.frombuffer(buf, dtype=np.float64, count=n, offset=off)
    off += 8 * n
    Va = np.frombuffer(buf, dtype=np.float64, count=n, offset=off)
    if copy:
        return bus_ids.copy(), Vm.copy(), Va.copy()
    return bus_ids, Vm, Va


def state_update_nbytes(n: int) -> int:
    """Exact wire size of ``pack_state_update`` for ``n`` buses."""
    return _LEN.size + n * (8 + 8 + 8)


# ----------------------------------------------------------------------
# condensed boundary-update payloads
# ----------------------------------------------------------------------
#: condensed-update header: version, flags, source subsystem id, count
_COND_HEADER = struct.Struct(">BBHI")
COND_VERSION = 1
#: the frame carries only (Vm, Va) values — the receiver already learned
#: the bus ordering from this source's round-0 full frame (or knows it
#: a priori from the decomposition)
COND_FLAG_VALUES_ONLY = 0x01


def condensed_update_nbytes(n: int, *, values_only: bool = False) -> int:
    """Exact wire size of ``pack_condensed_update`` for ``n`` buses."""
    per_bus = 16 if values_only else 20
    return _COND_HEADER.size + n * per_bus


def pack_condensed_update(
    src: int,
    bus_ids: np.ndarray,
    Vm: np.ndarray,
    Va: np.ndarray,
    *,
    values_only: bool = False,
) -> bytearray:
    """Pack a condensed boundary-block exchange record.

    The condensed form is the boundary-only counterpart of
    :func:`pack_state_update`: per neighbour it carries only the
    tie-adjacent boundary buses (not the full exchange set), bus ids
    shrink to ``uint32``, and after the first round the ordering is known
    to the receiver so ``values_only=True`` drops the id block entirely —
    8 + 16n bytes against the state form's 8 + 24n over a strictly larger bus
    set.  ``src`` identifies the publishing subsystem so the receiver can
    match a values-only frame to the cached ordering.
    """
    Vm = np.asarray(Vm, dtype=np.float64)
    Va = np.asarray(Va, dtype=np.float64)
    n = len(Vm)
    if len(Va) != n or (not values_only and len(bus_ids) != n):
        raise ValueError("array length mismatch")
    flags = COND_FLAG_VALUES_ONLY if values_only else 0
    buf = bytearray(condensed_update_nbytes(n, values_only=values_only))
    _COND_HEADER.pack_into(buf, 0, COND_VERSION, flags, src, n)
    off = _COND_HEADER.size
    if not values_only:
        ids32 = np.asarray(bus_ids, dtype=np.uint32)
        np.frombuffer(buf, dtype=np.uint32, count=n, offset=off)[:] = ids32
        off += 4 * n
    np.frombuffer(buf, dtype=np.float64, count=n, offset=off)[:] = Vm
    off += 8 * n
    np.frombuffer(buf, dtype=np.float64, count=n, offset=off)[:] = Va
    return buf


def unpack_condensed_update(
    buf, *, copy: bool = True
) -> tuple[int, bool, np.ndarray | None, np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_condensed_update`.

    Returns ``(src, values_only, bus_ids, Vm, Va)``; ``bus_ids`` is
    ``None`` for a values-only frame (the receiver supplies the cached
    ordering).  ``copy=False`` returns views aliasing ``buf`` with the
    same ownership rules as :func:`unpack_state_update`.
    """
    if len(buf) < _COND_HEADER.size:
        raise FrameError("short condensed-update buffer")
    version, flags, src, n = _COND_HEADER.unpack_from(buf)
    if version != COND_VERSION:
        raise FrameError(f"unsupported condensed-update version {version}")
    values_only = bool(flags & COND_FLAG_VALUES_ONLY)
    expect = condensed_update_nbytes(n, values_only=values_only)
    if len(buf) != expect:
        raise FrameError(
            f"condensed-update length mismatch: {len(buf)} != {expect}"
        )
    off = _COND_HEADER.size
    bus_ids = None
    if not values_only:
        bus_ids = np.frombuffer(buf, dtype=np.uint32, count=n, offset=off)
        off += 4 * n
    Vm = np.frombuffer(buf, dtype=np.float64, count=n, offset=off)
    off += 8 * n
    Va = np.frombuffer(buf, dtype=np.float64, count=n, offset=off)
    if copy:
        bus_ids = None if bus_ids is None else bus_ids.copy()
        return int(src), values_only, bus_ids, Vm.copy(), Va.copy()
    return int(src), values_only, bus_ids, Vm, Va

"""The mux data plane: one router hop, one long-lived duplex link per site.

Every site keeps exactly one connection to a single **mux router** hub;
frames carry ``(src, dst)`` ids in a compact binary header
(:data:`~repro.middleware.message.MUX_HEADER`), and the hub forwards a
frame to the destination's connection without dialing — store-and-forward
routing with per-pair statistics (a directed pair is the paper's one-way
MeDICi pipeline) over ``m`` sockets.

Two interchangeable hubs:

- :class:`MuxRouter` — real localhost TCP; one ``selectors`` loop services
  every connection (no polling threads), reassembling frames incrementally
  with :class:`~repro.middleware.message.StreamReader` and forwarding
  header+payload via scatter-gather ``sendmsg``.
- :class:`InprocMuxRouter` — queue-based, for single-process fabrics; the
  router thread blocks on its inbox (event-driven, no timeouts).

Both run every data frame through the same :func:`_route` sequence —
extension check, epoch fence, route lookup, fault hook, count, forward —
and differ only in how a destination is looked up, written to and
disconnected.

Attachment protocol (TCP): a site dials the hub, sends a HELLO control
frame carrying its id, and waits for the hub's ACK before returning — so
once every site is attached, no data frame can race an unregistered
destination.
"""

from __future__ import annotations

import queue
import selectors
import socket
import threading
import time

from .. import faults, obs
from .endpoints import parse_endpoint
from .errors import SendFailed
from .message import (
    FLAG_CHECKPOINT,
    FLAG_CONTROL,
    FLAG_EPOCH,
    FrameError,
    MUX_HEADER,
    MUX_VERSION,
    PeerClosed,
    StreamReader,
    recv_mux_frame,
    send_mux_frame,
    send_mux_frames,
    sendmsg_all,
    split_extension,
)

__all__ = ["MuxRouter", "InprocMuxRouter", "SOCKET_BUFFER_BYTES"]

#: Explicit per-socket kernel buffer size.  Containers frequently ship a
#: tiny tcp_wmem default (16 KiB here); under sustained one-way
#: small-message load the window collapses to zero and delivery degrades
#: to the ~200 ms TCP persist-timer cadence.  Sizing both buffers up
#: front keeps the window open and the hub at full rate.
SOCKET_BUFFER_BYTES = 1 << 20


def _size_socket_buffers(sock: socket.socket) -> None:
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, SOCKET_BUFFER_BYTES)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, SOCKET_BUFFER_BYTES)
    except OSError:  # pragma: no cover - platform without the knob
        pass


def _fence_ok(fence, src: int, epoch: int) -> bool:
    """Ask the epoch fence about a frame; a fence callback that *raises*
    fails open — a broken fence must not take down the data plane."""
    try:
        return bool(fence(src, epoch))
    except Exception:  # noqa: BLE001 - fence must not kill the hub
        return True


def _forward_fault(src: int, dst: int, payload) -> tuple[tuple, bool]:
    """Mux-hop fault hook.

    Returns ``(payloads, kill_dst)``: the payloads to forward (none on a
    drop or a disconnect, two copies on duplicate, a truncated frame on
    corrupt — the header is re-packed so the framing stays valid and only
    the decode fails) and whether to hard-disconnect the destination.  A
    ``delay`` sleeps *in the hub loop* — intentionally: the hub is the
    store-and-forward stage, so hub latency is what a slow link looks like
    to every site.
    """
    inj = faults.active()
    d = inj.decide("mux.forward", (src, dst)) if inj is not None else None
    if not d:
        return (payload,), False
    if d.action == "drop":
        return (), False
    if d.action == "delay":
        if d.delay:
            time.sleep(d.delay)
        return (payload,), False
    if d.action == "duplicate":
        return (payload, payload), False
    if d.action == "corrupt":
        return (payload[: len(payload) // 2],), False
    # "disconnect"
    return (), True


def _discard(hub, *, fenced: bool = False) -> None:
    """Count one frame the hub swallowed (fenced, or dropped)."""
    with hub._stats_lock:
        if fenced:
            hub.frames_fenced += 1
        else:
            hub.frames_dropped += 1
    if obs.enabled():
        if fenced:
            obs.metrics().counter("mux.frames_fenced_total").inc()
        else:
            obs.metrics().counter("mux.frames_dropped_total").inc()


def _route(hub, flags: int, src: int, dst: int, payload) -> None:
    """One non-control frame through ``hub`` — the sequence both hubs run.

    The hub supplies ``_target(dst, flags)`` (where frames for ``dst`` go,
    ``None`` when nowhere), ``_forward(target, flags, src, dst, frame,
    app)`` (hand one copy on — ``frame`` is the payload as framed, ``app``
    its application bytes; ``False`` when the destination is gone) and
    ``_kill(dst)`` (hard-disconnect).  The frame is counted *before* it is
    handed on, so whoever holds a payload finds it in :meth:`stats`; a
    forward that fails takes its count back.
    """
    fence = hub._epoch_fence
    try:
        ctx, epoch, app = split_extension(flags, payload)
    except FrameError:
        # the frame claims metadata it does not carry; a claimed epoch the
        # fence cannot read is treated as a stale one
        _discard(hub, fenced=bool(flags & FLAG_EPOCH) and fence is not None)
        return
    if epoch is not None and fence is not None and not _fence_ok(fence, src, epoch):
        _discard(hub, fenced=True)
        return
    target = hub._target(dst, flags)
    if target is None:
        _discard(hub)
        return
    copies = [(payload, app)]
    if faults.active() is not None:
        faulted, kill_dst = _forward_fault(src, dst, payload)
        if kill_dst:
            hub._kill(dst)
        copies = []
        for p in faulted:
            try:
                p_app = app if p is payload else split_extension(flags, p)[2]
            except FrameError:
                continue  # cut inside its extension block: nothing to deliver
            copies.append((p, p_app))
        if not copies:
            _discard(hub)
            return
    nbytes = len(payload)
    with hub._stats_lock:
        rec = hub._stats.setdefault((src, dst), [0, 0])
        rec[0] += 1
        rec[1] += nbytes
    # the router-hop span joins the *sender's* trace through the context
    # the frame carries; it covers the first copy only
    hop = obs.NOOP_SPAN
    if ctx is not None:
        hop = obs.span("mux.forward", parent=ctx, src=src, dst=dst, nbytes=nbytes)
    for frame, app in copies:
        with hop:
            ok = hub._forward(target, flags, src, dst, frame, app)
        if not ok:
            with hub._stats_lock:
                rec[0] -= 1
                rec[1] -= nbytes
            return
        hop = obs.NOOP_SPAN
    if obs.enabled():
        m = obs.metrics()
        m.counter("mux.frames_forwarded_total").inc()
        m.counter("mux.bytes_forwarded_total").inc(nbytes)


class _TcpMuxLink:
    """A site's single duplex connection to the TCP hub.

    Inbound bytes are read by :meth:`pump`.  A link attached without a
    reader thread is pumped by whoever waits for its payloads — the
    receiving site itself, so a message costs no thread hop between the
    socket and its consumer.  :meth:`start_reader` hands the pumping to a
    daemon thread instead, for frames that must land while the site is busy
    elsewhere (checkpoint replicas, lease beats) and for callback-style
    attachments.
    """

    def __init__(self, sock: socket.socket, my_id: int, deliver):
        self._sock = sock
        self._send_lock = threading.Lock()
        self.my_id = my_id
        self._deliver = deliver
        #: optional ``callback(payload)`` for FLAG_CHECKPOINT frames; they
        #: bypass the ordinary receive queue (recovery replica plane)
        self.checkpoint_sink = None
        self._closed = False
        self._frames = StreamReader()
        #: one pumper at a time: the reassembly state is not shareable
        self._pump_lock = threading.Lock()
        self._wait = selectors.DefaultSelector()
        self._wait.register(sock, selectors.EVENT_READ)
        self._reader: threading.Thread | None = None

    @property
    def has_reader(self) -> bool:
        return self._reader is not None

    def start_reader(self) -> None:
        """Pump the link from a daemon thread from now on (idempotent)."""
        if self._reader is None:
            self._reader = threading.Thread(
                target=self._read_loop, name=f"mux-link-{self.my_id}",
                daemon=True,
            )
            self._reader.start()

    def _read_loop(self) -> None:
        while True:
            try:
                self.pump(None)
            except (FrameError, OSError, ValueError):
                return

    def pump(self, timeout: float | None) -> None:
        """Wait up to ``timeout`` seconds (``None``: indefinitely) for
        inbound bytes, read them once and hand every completed frame on.

        Raises ``TimeoutError`` when nothing arrived (or another thread
        held the link for the whole wait), :class:`PeerClosed` /
        ``OSError`` once the connection is gone.
        """
        if not self._pump_lock.acquire(timeout=-1 if timeout is None else timeout):
            raise TimeoutError(f"mux link {self.my_id}: busy")
        try:
            if timeout is not None and not self._wait.select(timeout):
                raise TimeoutError(f"mux link {self.my_id}: nothing received")
            frames = self._frames.feed(self._sock)
        finally:
            self._pump_lock.release()
        for flags, _src, _dst, payload in frames:
            self._dispatch(flags, payload)

    def _dispatch(self, flags: int, payload) -> None:
        if flags & FLAG_CONTROL:
            # control handshakes are hub business, never application data
            return
        try:
            # the extension block is for the routing layer, not the app
            _ctx, _epoch, payload = split_extension(flags, payload)
        except FrameError:
            # cut in flight inside its extension block: drop the frame,
            # keep the link
            return
        if flags & FLAG_CHECKPOINT:
            sink = self.checkpoint_sink
            if sink is not None:
                try:
                    sink(payload)
                except Exception:  # noqa: BLE001 - sink must not kill the link
                    pass
            return
        self._deliver(payload)

    def send(self, dst: int, payload, *, flags: int = 0, ext=b"") -> None:
        self.send_many([(dst, payload)], flags=flags, ext=ext)

    def send_many(self, frames, *, flags: int = 0, ext=b"") -> None:
        """``frames`` is an iterable of ``(dst, payload)``; all of them
        ride one scatter-gather syscall, each behind the same extension
        block ``ext``."""
        try:
            with self._send_lock:
                send_mux_frames(
                    self._sock, self.my_id, frames, flags=flags, ext=ext
                )
        except OSError as exc:
            raise SendFailed(f"mux link {self.my_id} send: {exc}") from exc

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        # the shutdown wakes a blocked pump; once it let go, nothing else
        # touches the selector
        with self._pump_lock:
            self._wait.close()
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - defensive
            pass


class MuxRouter:
    """TCP hub: accepts site links, routes mux frames by destination id.

    One selector loop owns every socket; per-(src, dst) frame/byte counts
    are kept for the fabric's relay statistics.
    """

    def __init__(self):
        self._sel = selectors.DefaultSelector()
        self._lsock: socket.socket | None = None
        self._routes: dict[int, socket.socket] = {}
        self._stats: dict[tuple[int, int], list[int]] = {}
        self._stats_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._waker_r: socket.socket | None = None
        self._waker_w: socket.socket | None = None
        self.endpoint: str | None = None
        self.frames_dropped = 0
        self.frames_fenced = 0
        self._epoch_fence = None

    def set_epoch_fence(self, fence) -> None:
        """``fence(src_id, epoch) -> bool`` is consulted for every
        FLAG_EPOCH frame; a ``False`` verdict drops the frame at the hub
        (stale-epoch rejection — a zombie site's frames never reach a
        post-failover destination)."""
        self._epoch_fence = fence

    # ------------------------------------------------------------------
    def start(self, url: str = "tcp://127.0.0.1:0") -> str:
        ep = parse_endpoint(url)
        if ep.scheme != "tcp":
            raise ValueError(f"MuxRouter needs a tcp endpoint, got {url!r}")
        self._lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        # accepted link sockets inherit the buffer sizing
        _size_socket_buffers(self._lsock)
        self._lsock.bind((ep.host, ep.port or 0))
        self._lsock.listen(128)
        self._lsock.setblocking(False)
        host, port = self._lsock.getsockname()
        self.endpoint = f"tcp://{host}:{port}"
        self._waker_r, self._waker_w = socket.socketpair()
        self._waker_r.setblocking(False)
        self._sel.register(self._lsock, selectors.EVENT_READ, ("accept", None))
        self._sel.register(self._waker_r, selectors.EVENT_READ, ("wake", None))
        self._thread = threading.Thread(
            target=self._loop, name="mux-router", daemon=True
        )
        self._thread.start()
        return self.endpoint

    def attach(self, my_id: int, deliver, *, threaded: bool = True) -> _TcpMuxLink:
        """Dial the hub and register ``my_id`` (HELLO/ACK); inbound
        payloads go to ``deliver(payload)`` — from the link's own reader
        thread, or, with ``threaded=False``, from whichever thread calls
        the link's ``pump``."""
        if self.endpoint is None:
            raise RuntimeError("router not started")
        ep = parse_endpoint(self.endpoint)
        sock = socket.create_connection((ep.host, ep.port), timeout=5.0)
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        _size_socket_buffers(sock)
        send_mux_frame(sock, my_id, 0, b"", flags=FLAG_CONTROL)
        # synchronous ACK: once this returns, the hub routes frames to us
        flags, _src, _dst, _payload = recv_mux_frame(sock)
        if not flags & FLAG_CONTROL:  # pragma: no cover - protocol error
            raise FrameError("expected ACK control frame from router")
        link = _TcpMuxLink(sock, my_id, deliver)
        if threaded:
            link.start_reader()
        return link

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            for key, _ in self._sel.select():
                kind, reader = key.data
                if kind == "wake":
                    try:
                        key.fileobj.recv(64)
                    except OSError:  # pragma: no cover - shutdown race
                        pass
                elif kind == "accept":
                    self._accept()
                else:
                    self._service(key.fileobj, reader)
        # teardown: close every socket the loop owns
        for key in list(self._sel.get_map().values()):
            try:
                self._sel.unregister(key.fileobj)
                key.fileobj.close()
            except (OSError, KeyError):  # pragma: no cover - defensive
                pass
        self._sel.close()

    def _accept(self) -> None:
        try:
            conn, _ = self._lsock.accept()
        except OSError:
            return
        conn.setblocking(False)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sel.register(conn, selectors.EVENT_READ, ("conn", StreamReader()))

    def _drop_conn(self, sock: socket.socket) -> None:
        # idempotent: a connection dropped while servicing another one
        # (fault-injected disconnect, re-dial) may still have a readiness
        # event queued in the same select() batch, which drops it again
        try:
            self._sel.unregister(sock)
        except (KeyError, ValueError):
            pass
        for sid, s in list(self._routes.items()):
            if s is sock:
                del self._routes[sid]
        sock.close()

    def _service(self, sock: socket.socket, reader: StreamReader) -> None:
        try:
            frames = reader.feed(sock)
        except (PeerClosed, FrameError, OSError):
            self._drop_conn(sock)
            return
        for flags, src, dst, payload in frames:
            if flags & FLAG_CONTROL:
                stale = self._routes.get(src)
                if stale is not None and stale is not sock:
                    # the site re-dialed: the fresh registration wins, and
                    # the stale socket is retired so no frame is ever
                    # forwarded into the dead connection
                    self._drop_conn(stale)
                self._routes[src] = sock
                header = MUX_HEADER.pack(MUX_VERSION, FLAG_CONTROL, 0, src, 0)
                try:
                    sendmsg_all(sock, [header])
                except OSError:  # pragma: no cover - peer died mid-hello
                    self._drop_conn(sock)
                    return
                continue
            _route(self, flags, src, dst, payload)

    def _target(self, dst: int, flags: int) -> socket.socket | None:
        return self._routes.get(dst)

    def _kill(self, dst: int) -> None:
        self._drop_conn(self._routes[dst])

    def _forward(self, out, flags, src, dst, frame, app) -> bool:
        header = MUX_HEADER.pack(MUX_VERSION, flags, src, dst, len(frame))
        try:
            sendmsg_all(out, [header, frame])
        except OSError:
            self._drop_conn(out)
            return False
        return True

    # ------------------------------------------------------------------
    def stats(self) -> dict[tuple[int, int], tuple[int, int]]:
        """(frames, bytes) forwarded per (src id, dst id)."""
        with self._stats_lock:
            return {k: (v[0], v[1]) for k, v in self._stats.items()}

    def stop(self) -> None:
        if self._stop.is_set():
            return
        self._stop.set()
        if self._waker_w is not None:
            try:
                self._waker_w.send(b"x")
            except OSError:  # pragma: no cover - already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        if self._waker_w is not None:
            self._waker_w.close()


# ----------------------------------------------------------------------
# in-process variant
# ----------------------------------------------------------------------
_STOP = object()


class _InprocMuxLink:
    def __init__(self, router: "InprocMuxRouter", my_id: int):
        self._router = router
        self.my_id = my_id
        self._closed = False

    def send(self, dst: int, payload, *, flags: int = 0, ext=b"") -> None:
        self.send_many([(dst, payload)], flags=flags, ext=ext)

    def send_many(self, frames, *, flags: int = 0, ext=b"") -> None:
        if self._closed:
            raise SendFailed(f"mux link {self.my_id} closed")
        inbox = self._router._inbox
        for dst, payload in frames:
            # the hub sees what a socket would carry: block, then payload
            inbox.put((self.my_id, dst, ext + payload if ext else payload, flags))

    def close(self) -> None:
        self._closed = True


class InprocMuxRouter:
    """Queue-based hub mirroring :class:`MuxRouter` for inproc fabrics.

    A single router thread blocks on its inbox and hands each frame to the
    destination's ``deliver`` callback — the store-and-forward hop without
    sockets, and without any polling timeout.
    """

    def __init__(self):
        self._inbox: "queue.Queue" = queue.Queue()
        self._deliver: dict[int, object] = {}
        self._stats: dict[tuple[int, int], list[int]] = {}
        self._stats_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self.frames_dropped = 0
        self.frames_fenced = 0
        self._epoch_fence = None
        self._ckpt_sinks: dict[int, object] = {}
        # ids hard-disconnected by fault injection: symmetric with the TCP
        # hub, where the closed socket kills both directions
        self._dead: set[int] = set()

    def set_epoch_fence(self, fence) -> None:
        """Same contract as :meth:`MuxRouter.set_epoch_fence`."""
        self._epoch_fence = fence

    def set_checkpoint_sink(self, dst_id: int, sink) -> None:
        """``sink(payload)`` receives FLAG_CHECKPOINT frames addressed to
        ``dst_id`` instead of its ordinary deliver callback (the TCP hub
        forwards such frames; its links divert at the receiving edge)."""
        self._ckpt_sinks[dst_id] = sink

    def start(self, url: str | None = None) -> str:
        self._thread = threading.Thread(
            target=self._loop, name="mux-router-inproc", daemon=True
        )
        self._thread.start()
        return "inproc://mux-router"

    def attach(self, my_id: int, deliver) -> _InprocMuxLink:
        if self._thread is None:
            raise RuntimeError("router not started")
        # a re-attach is a fresh registration: revive a fault-disconnected
        # id (socket parity — a re-dialed TCP link routes again after its
        # new HELLO)
        self._dead.discard(my_id)
        self._deliver[my_id] = deliver
        return _InprocMuxLink(self, my_id)

    def _loop(self) -> None:
        while True:
            item = self._inbox.get()
            if item is _STOP:
                return
            src, dst, payload, flags = item
            if self._dead and (src in self._dead or dst in self._dead):
                _discard(self)
                continue
            _route(self, flags, src, dst, payload)

    def _target(self, dst: int, flags: int):
        sinks = self._ckpt_sinks if flags & FLAG_CHECKPOINT else self._deliver
        return sinks.get(dst)

    def _kill(self, dst: int) -> None:
        # hard-disconnect: the site stops receiving anything, and its own
        # frames stop routing (socket-death parity)
        self._deliver.pop(dst, None)
        self._dead.add(dst)

    def _forward(self, deliver, flags, src, dst, frame, app) -> bool:
        try:
            deliver(app)
        except Exception:  # noqa: BLE001 - a sink must not kill the hub
            if not flags & FLAG_CHECKPOINT:
                raise
        return True

    def stats(self) -> dict[tuple[int, int], tuple[int, int]]:
        with self._stats_lock:
            return {k: (v[0], v[1]) for k, v in self._stats.items()}

    def stop(self) -> None:
        if self._thread is not None:
            self._inbox.put(_STOP)
            self._thread.join(timeout=2.0)
            self._thread = None

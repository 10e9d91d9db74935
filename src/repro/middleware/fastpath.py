"""Multiplexed fast-path data plane: one router hop, pooled duplex links.

The legacy data plane dials a fresh TCP connection per message and runs one
relay pipeline per (src, dst) pair.  The fast path replaces that with a
single **mux router**: every site keeps exactly one long-lived duplex
connection to the hub, frames carry ``(src, dst)`` ids in a compact binary
header (:data:`~repro.middleware.message.MUX_HEADER`), and the hub forwards
a frame to the destination's connection without re-dialing — store-and-
forward routing with per-pair statistics, like the per-pair pipelines, but
over ``m`` sockets instead of ``m²`` dials.

Two interchangeable hubs:

- :class:`MuxRouter` — real localhost TCP; one ``selectors`` loop services
  every connection (no polling threads), reassembling frames incrementally
  with :class:`~repro.middleware.message.StreamReader` and forwarding
  header+payload via scatter-gather ``sendmsg``.
- :class:`InprocMuxRouter` — queue-based, for single-process fabrics; the
  router thread blocks on its inbox (event-driven, no timeouts).

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
from ..obs import SpanContext
from .endpoints import parse_endpoint
from .errors import SendFailed
from .message import (
    FLAG_CHECKPOINT,
    FLAG_CONTROL,
    FLAG_EPOCH,
    FLAG_TELEMETRY,
    FLAG_TRACED,
    FrameError,
    MUX_HEADER,
    MUX_VERSION,
    PeerClosed,
    StreamReader,
    read_epoch,
    read_trace_context,
    recv_mux_frame,
    send_mux_frame,
    send_mux_frames,
    sendmsg_all,
    strip_epoch,
    strip_trace_context,
)
from .transports import _size_socket_buffers

__all__ = ["MuxRouter", "InprocMuxRouter"]


def _hop_span(flags: int, payload, src: int, dst: int):
    """Router-hop span parented to the *sender's* span via the trace
    context carried in the frame (wire-level context propagation); returns
    ``None`` when the frame is untraced or observability is off here."""
    if not (flags & FLAG_TRACED) or not obs.enabled():
        return None
    try:
        trace_id, span_id, sampled = read_trace_context(payload)
    except FrameError:  # pragma: no cover - malformed peer
        return None
    return obs.span(
        "mux.forward",
        parent=SpanContext(trace_id, span_id, sampled),
        src=src, dst=dst, nbytes=len(payload),
    )


def _fence_ok(fence, src: int, flags: int, payload) -> bool:
    """Apply an epoch fence to an epoch-stamped frame.

    A frame whose prefix can't be read is fenced (it claims an epoch it
    can't prove); a fence callback that *raises* fails open — a broken
    fence must not take down the data plane.
    """
    try:
        epoch = read_epoch(payload, flags)
    except FrameError:
        return False
    try:
        return bool(fence(src, epoch))
    except Exception:  # noqa: BLE001 - fence must not kill the hub
        return True


#: sentinel from :func:`_forward_fault`: swallow the frame entirely
_DROP = object()
#: sentinel from :func:`_forward_fault`: hard-disconnect the destination
_KILL_DST = object()


def _forward_fault(src: int, dst: int, payload):
    """Mux-hop fault hook shared by both hubs.

    Returns ``(payloads, verdict)`` where ``payloads`` is the tuple of
    payloads to forward (empty on drop, two copies on duplicate, a
    truncated frame on corrupt — the header is re-packed so the framing
    stays valid and only the application decode fails) and ``verdict`` is
    ``None``, :data:`_DROP` or :data:`_KILL_DST`.  A ``delay`` sleeps
    *in the hub loop* — intentionally: the hub is the store-and-forward
    stage, so hub latency is what a slow link looks like to every site.
    """
    inj = faults.active()
    if inj is None:
        return (payload,), None
    d = inj.decide("mux.forward", (src, dst))
    if not d:
        return (payload,), None
    if d.action == "drop":
        return (), _DROP
    if d.action == "delay":
        if d.delay:
            time.sleep(d.delay)
        return (payload,), None
    if d.action == "duplicate":
        return (payload, payload), None
    if d.action == "corrupt":
        return (payload[: len(payload) // 2],), None
    # "disconnect"
    return (), _KILL_DST


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
        self._frames = StreamReader(mux=True)
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
        if flags & (FLAG_CONTROL | FLAG_TELEMETRY):
            # control handshakes and telemetry are hub business; a
            # telemetry frame reaching a link means a hub without a
            # sink forwarded it — never application data either way
            return
        if flags & FLAG_TRACED:
            # metadata prefix is for the routing layer, not the app
            try:
                payload = strip_trace_context(payload)
            except FrameError:
                # corrupted-in-flight frame: drop it, keep the link
                return
        if flags & FLAG_EPOCH:
            try:
                payload = strip_epoch(payload)
            except FrameError:
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

    def send(self, dst: int, payload, *, flags: int = 0) -> None:
        try:
            with self._send_lock:
                send_mux_frame(self._sock, self.my_id, dst, payload, flags=flags)
        except OSError as exc:
            raise SendFailed(f"mux link {self.my_id} -> {dst}: {exc}") from exc

    def send_many(self, frames, *, flags: int = 0) -> None:
        """``frames`` is an iterable of ``(dst, payload)``; all of them
        ride one scatter-gather syscall."""
        try:
            with self._send_lock:
                send_mux_frames(self._sock, self.my_id, frames, flags=flags)
        except OSError as exc:
            raise SendFailed(f"mux link {self.my_id} batch send: {exc}") from exc

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
        self._telemetry_sink = None
        self._epoch_fence = None

    def set_telemetry_sink(self, callback) -> None:
        """``callback(payload: bytes)`` receives every FLAG_TELEMETRY
        frame at the hub (the aggregation point); such frames are
        consumed here and never forwarded to a destination."""
        self._telemetry_sink = callback

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
        self._sel.register(conn, selectors.EVENT_READ, ("conn", StreamReader(mux=True)))

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
            if flags & FLAG_TELEMETRY:
                sink = self._telemetry_sink
                if sink is not None:
                    try:
                        sink(bytes(payload))
                    except Exception:  # noqa: BLE001 - sink must not kill the hub
                        pass
                if obs.enabled():
                    obs.metrics().counter("mux.telemetry_frames_total").inc()
                continue
            if flags & FLAG_EPOCH and self._epoch_fence is not None:
                if not _fence_ok(self._epoch_fence, src, flags, payload):
                    with self._stats_lock:
                        self.frames_fenced += 1
                    if obs.enabled():
                        obs.metrics().counter("mux.frames_fenced_total").inc()
                    continue
            out = self._routes.get(dst)
            if out is None:
                with self._stats_lock:
                    self.frames_dropped += 1
                if obs.enabled():
                    obs.metrics().counter("mux.frames_dropped_total").inc()
                continue
            if faults.active() is not None:
                outs, verdict = _forward_fault(src, dst, payload)
                if verdict is _KILL_DST:
                    self._drop_conn(out)
                if verdict is not None:  # frame swallowed either way
                    with self._stats_lock:
                        self.frames_dropped += 1
                    continue
            else:
                outs = (payload,)
            hop = _hop_span(flags, payload, src, dst)
            failed = False
            for p in outs:
                header = MUX_HEADER.pack(MUX_VERSION, flags, src, dst, len(p))
                try:
                    if hop is not None:
                        with hop:
                            sendmsg_all(out, [header, p])
                        hop = None  # span covers the first copy only
                    else:
                        sendmsg_all(out, [header, p])
                except OSError:
                    self._drop_conn(out)
                    failed = True
                    break
            if failed:
                continue
            with self._stats_lock:
                rec = self._stats.setdefault((src, dst), [0, 0])
                rec[0] += 1
                rec[1] += len(payload)
            if obs.enabled():
                m = obs.metrics()
                m.counter("mux.frames_forwarded_total").inc()
                m.counter("mux.bytes_forwarded_total").inc(len(payload))

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

    def send(self, dst: int, payload, *, flags: int = 0) -> None:
        if self._closed:
            raise SendFailed(f"mux link {self.my_id} closed")
        self._router._inbox.put((self.my_id, dst, payload, flags))

    def send_many(self, frames, *, flags: int = 0) -> None:
        if self._closed:
            raise SendFailed(f"mux link {self.my_id} closed")
        inbox = self._router._inbox
        for dst, payload in frames:
            inbox.put((self.my_id, dst, payload, flags))

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
        self._telemetry_sink = None
        self._epoch_fence = None
        self._ckpt_sinks: dict[int, object] = {}
        # ids hard-disconnected by fault injection: symmetric with the TCP
        # hub, where the closed socket kills both directions
        self._dead: set[int] = set()

    def set_telemetry_sink(self, callback) -> None:
        """Same contract as :meth:`MuxRouter.set_telemetry_sink`."""
        self._telemetry_sink = callback

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
                with self._stats_lock:
                    self.frames_dropped += 1
                continue
            if flags & FLAG_TELEMETRY:
                sink = self._telemetry_sink
                if sink is not None:
                    try:
                        sink(bytes(payload))
                    except Exception:  # noqa: BLE001 - sink must not kill the hub
                        pass
                if obs.enabled():
                    obs.metrics().counter("mux.telemetry_frames_total").inc()
                continue
            if flags & FLAG_EPOCH and self._epoch_fence is not None:
                if not _fence_ok(self._epoch_fence, src, flags, payload):
                    with self._stats_lock:
                        self.frames_fenced += 1
                    if obs.enabled():
                        obs.metrics().counter("mux.frames_fenced_total").inc()
                    continue
            is_ckpt = bool(flags & FLAG_CHECKPOINT)
            deliver = self._ckpt_sinks.get(dst) if is_ckpt else self._deliver.get(dst)
            if deliver is None:
                with self._stats_lock:
                    self.frames_dropped += 1
                if obs.enabled():
                    obs.metrics().counter("mux.frames_dropped_total").inc()
                continue
            nbytes = len(payload)
            if faults.active() is not None:
                copies, verdict = _forward_fault(src, dst, payload)
                if verdict is _KILL_DST:
                    # hard-disconnect: the site stops receiving anything,
                    # and its own frames stop routing (socket-death parity)
                    self._deliver.pop(dst, None)
                    self._dead.add(dst)
                if verdict is not None:
                    with self._stats_lock:
                        self.frames_dropped += 1
                    continue
            else:
                copies = (payload,)
            hop = _hop_span(flags, payload, src, dst)
            delivered = []
            for p in copies:
                if flags & FLAG_TRACED:
                    try:
                        p = strip_trace_context(p)
                    except FrameError:
                        continue  # corrupted-in-flight frame
                if flags & FLAG_EPOCH:
                    try:
                        p = strip_epoch(p)
                    except FrameError:
                        continue
                delivered.append(p)
            for i, p in enumerate(delivered):
                try:
                    if hop is not None and i == 0:
                        with hop:
                            deliver(p)
                    else:
                        deliver(p)
                except Exception:  # noqa: BLE001 - a sink must not kill the hub
                    if not is_ckpt:
                        raise
            with self._stats_lock:
                rec = self._stats.setdefault((src, dst), [0, 0])
                rec[0] += 1
                rec[1] += nbytes
            if obs.enabled():
                m = obs.metrics()
                m.counter("mux.frames_forwarded_total").inc()
                m.counter("mux.bytes_forwarded_total").inc(nbytes)

    def stats(self) -> dict[tuple[int, int], tuple[int, int]]:
        with self._stats_lock:
            return {k: (v[0], v[1]) for k, v in self._stats.items()}

    def stop(self) -> None:
        if self._thread is not None:
            self._inbox.put(_STOP)
            self._thread.join(timeout=2.0)
            self._thread = None

"""Middleware fabric: the one data plane wiring a set of estimators.

``MiddlewareFabric`` connects named estimators through a single mux router
hub (:mod:`repro.middleware.fastpath`): every site keeps exactly one duplex
link to the hub, frames carry ``(src, dst)`` ids in a compact binary
header, and a site's whole neighbour burst can ride one syscall via
:meth:`~MiddlewareFabric.send_many`.  A ``pairs`` entry is the paper's
MeDICi pipeline — "each MeDICi pipeline is responsible for a one-way
communication between two state estimators" — :meth:`~MiddlewareFabric.send`
/ :meth:`~MiddlewareFabric.recv` are its ``MW_Client_Send`` /
``MW_Client_Recv``, and :meth:`~MiddlewareFabric.relay_stats` is what each
pipeline relayed.  The hub is a real localhost TCP server (``use_tcp=True``)
or an in-process queue router; both run the same routing sequence.
"""

from __future__ import annotations

import time

from .. import obs
from .client import MWClient
from .errors import ClientClosed, RecvTimeout
from .fastpath import InprocMuxRouter, MuxRouter
from .hashring import ConsistentHashRing
from .message import (
    FLAG_CHECKPOINT,
    FrameError,
    pack_extension,
)

__all__ = ["MiddlewareFabric"]


def _sampled_context():
    """The calling thread's span context when it is inside a sampled span
    — what a data frame carries for wire-level context propagation."""
    ctx = obs.current_context()
    return ctx if ctx is not None and ctx.sampled else None


class MiddlewareFabric:
    """Builds and owns the middleware plumbing for named estimators.

    Parameters
    ----------
    names:
        Estimator names (e.g. ``["se0", "se1", ...]``).
    pairs:
        Directed neighbour pairs to connect (one-way pipelines); ``None``
        wires all ordered pairs.
    use_tcp:
        Real localhost TCP when True; in-process queues otherwise.
    fast:
        Accepted for callers written when a second, per-pair relay plane
        existed; ``False`` (that plane) raises ``ValueError``.
    """

    def __init__(
        self,
        names: list[str],
        pairs: list[tuple[str, str]] | None = None,
        *,
        use_tcp: bool = False,
        fast: bool = True,
    ):
        if not fast:
            raise ValueError(
                "the per-pair relay plane (fast=False) was removed; "
                "the mux hub is the only data plane"
            )
        if len(set(names)) != len(names):
            raise ValueError("duplicate estimator names")
        self.names = list(names)
        self.use_tcp = use_tcp
        self.clients: dict[str, MWClient] = {}
        self._hub: MuxRouter | InprocMuxRouter | None = None
        self._links: dict[str, object] = {}
        self._ids = {name: i for i, name in enumerate(self.names)}

        if pairs is None:
            pairs = [(a, b) for a in names for b in names if a != b]
        self.pairs = list(pairs)
        for a, b in self.pairs:
            if a not in self.names or b not in self.names:
                raise ValueError(f"pair ({a}, {b}) references unknown estimator")
        self._pair_set = set(self.pairs)

        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the hub and attach one duplex link per site."""
        if self._started:
            raise RuntimeError("fabric already started")
        self._hub = MuxRouter() if self.use_tcp else InprocMuxRouter()
        self._hub.start()
        # a TCP link gets no reader thread: recv() drains it (see there)
        attach_opts = {"threaded": False} if self.use_tcp else {}
        for name in self.names:
            client = self.clients[name] = MWClient(name)
            self._links[name] = self._hub.attach(
                self._ids[name], client._deliver, **attach_opts
            )
        self._started = True

    def stop(self) -> None:
        for link in self._links.values():
            link.close()
        if self._hub is not None:
            self._hub.stop()
        for client in self.clients.values():
            client.close()
        self._started = False

    @property
    def _live_hub(self):
        if self._hub is None:
            raise RuntimeError("fabric not started")
        return self._hub

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    # ------------------------------------------------------------------
    def _emit(self, src: str, frames, ctx, epoch, flags: int = 0) -> None:
        """Put ``(dst, payload)`` frames on ``src``'s link behind one
        extension block carrying ``ctx`` and ``epoch`` (each may be
        ``None``)."""
        for dst, _ in frames:
            if (src, dst) not in self._pair_set:
                raise KeyError(f"no pipeline for {src} -> {dst}")
        ext_flags, ext = pack_extension(ctx, epoch)
        self._links[src].send_many(
            [(self._ids[dst], payload) for dst, payload in frames],
            flags=flags | ext_flags, ext=ext,
        )
        self.clients[src].bytes_sent += sum(len(p) for _, p in frames)

    def send(self, src: str, dst: str, payload: bytes) -> None:
        """``MW_Client_Send``: ``src`` names the destination estimator;
        the frame goes estimator → router hop → destination buffer."""
        self._emit(src, [(dst, payload)], _sampled_context(), None)

    def send_many(self, src: str, frames, *, epoch: int | None = None) -> None:
        """Send a burst of ``(dst, payload)`` frames from one site; they
        all ride one scatter-gather syscall.

        ``epoch`` stamps every frame with the cluster epoch so the hub's
        fence can reject a zombie sender's frames after a failover (see
        :meth:`set_epoch_fence`).
        """
        frames = list(frames)
        if frames:
            self._emit(src, frames, _sampled_context(), epoch)

    # -- shard-addressed routing ---------------------------------------
    def enable_sharding(
        self, shards: list[str] | None = None, *, vnodes: int = 64
    ) -> ConsistentHashRing:
        """Turn on key-addressed sends over a subset of sites.

        ``shards`` (default: every site) become consistent-hash targets;
        :meth:`send_keyed` then routes a frame by key instead of by name.
        Returns the ring so callers can adjust membership (a removed
        shard's keyspace falls to its clockwise successors — the same
        placement rule the serving tier's ``ShardRouter`` uses, so a
        co-located router and fabric agree on every key).
        """
        shards = list(self.names) if shards is None else list(shards)
        for name in shards:
            if name not in self.names:
                raise ValueError(f"shard {name!r} is not a fabric site")
        self._shard_ring = ConsistentHashRing(shards, vnodes=vnodes)
        return self._shard_ring

    def shard_for(self, key, *, exclude: str | None = None) -> str:
        """The site owning ``key`` (first live preference, skipping
        ``exclude`` — a sender that cannot deliver to itself)."""
        ring = getattr(self, "_shard_ring", None)
        if ring is None:
            raise RuntimeError("call enable_sharding() first")
        for name in ring.preference(key):
            if name != exclude:
                return name
        raise KeyError(f"no shard available for key {key!r}")

    def send_keyed(self, src: str, key, payload: bytes) -> str:
        """Send ``payload`` to the shard owning ``key``; returns the
        destination name the key hashed to."""
        dst = self.shard_for(key, exclude=src)
        self.send(src, dst, payload)
        if obs.enabled():
            obs.metrics().counter(
                "router.keyed_frames_total", dst=dst
            ).inc()
        return dst

    # -- recovery plane ------------------------------------------------
    def set_checkpoint_sink(self, name: str, sink) -> None:
        """Divert ``FLAG_CHECKPOINT`` frames addressed to site ``name``
        into ``sink(payload)`` instead of its ordinary receive queue (the
        recovery replica plane)."""
        hub = self._live_hub
        link = self._links[name]
        if hasattr(link, "checkpoint_sink"):
            # TCP: the frame is forwarded by the hub and diverted at the
            # receiving link's edge — by a reader thread, so replicas and
            # lease beats land while the site is not in recv()
            link.checkpoint_sink = sink
            link.start_reader()
        else:
            # inproc: the hub delivers directly
            hub.set_checkpoint_sink(self._ids[name], sink)

    def send_checkpoint(
        self, src: str, dst: str, payload: bytes, *, epoch: int = 0
    ) -> None:
        """Replicate one checkpoint payload from ``src`` to ``dst``'s
        checkpoint sink, stamped with the cluster ``epoch``."""
        self._emit(src, [(dst, payload)], None, epoch, FLAG_CHECKPOINT)
        if obs.enabled():
            obs.metrics().counter("mw.checkpoint_frames_sent_total").inc()

    def set_epoch_fence(self, fence) -> None:
        """Install ``fence(src_id, epoch) -> bool`` at the mux hub; frames
        stamped with a fenced (stale) epoch are dropped before routing."""
        self._live_hub.set_epoch_fence(fence)

    def site_id(self, name: str) -> int:
        """The wire-level id of site ``name`` (fence callbacks receive
        ids, not names)."""
        return self._ids[name]

    def recv(self, name: str, *, timeout: float = 5.0) -> bytes:
        """Take the next payload delivered to estimator ``name``.

        Over TCP the caller drains ``name``'s link itself
        (one socket read hands over every frame that has arrived) unless a
        reader thread has taken the link over.
        """
        client = self.clients[name]
        link = self._links.get(name)
        if self.use_tcp and link is not None and not link.has_reader:
            deadline = time.monotonic() + timeout
            while not len(client.buffer):
                try:
                    link.pump(max(0.0, deadline - time.monotonic()))
                except TimeoutError:
                    raise RecvTimeout("data buffer empty") from None
                except (FrameError, OSError, ValueError) as exc:
                    raise ClientClosed(f"link of {name} is gone: {exc}") from exc
            timeout = 0.0
        return client.recv(timeout=timeout)

    def relay_stats(self) -> dict[tuple[str, str], tuple[int, int]]:
        """(frames, bytes) relayed per directed pair, cumulative since
        :meth:`start` — a fabric that serves many frames keeps counting."""
        by_id = self._hub.stats() if self._hub is not None else {}
        out = {pair: (0, 0) for pair in self.pairs}
        for (src_id, dst_id), rec in by_id.items():
            out[(self.names[src_id], self.names[dst_id])] = rec
        return out

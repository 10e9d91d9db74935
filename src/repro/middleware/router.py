"""Middleware fabric: pipelines wiring a set of estimators together.

``MiddlewareFabric`` builds the MeDICi pipelines for a set of neighbour
pairs: one one-way pipeline per direction (as in the paper, "each MeDICi
pipeline is responsible for a one-way communication between two state
estimators"), plus the per-site clients and the shared name registry.

Two interchangeable data planes sit behind the same ``send``/``recv`` API:

- the **legacy plane** (``fast=False``) — one relay pipeline per directed
  pair, clients dialling each pipeline's inbound URL (pooled connections
  since the fast-path rework, so a pair still costs one dial total);
- the **fast plane** (``fast=True``) — a single mux router hub
  (:mod:`repro.middleware.fastpath`): every site keeps exactly one duplex
  connection to the hub and frames carry (src, dst) ids in a compact
  binary header, so the hub forwards without re-dialing and a site's
  whole neighbour burst can ride one syscall via :meth:`send_many`.
"""

from __future__ import annotations

import time

from .. import obs
from .client import EndpointRegistry, MWClient
from .errors import ClientClosed, RecvTimeout
from .fastpath import InprocMuxRouter, MuxRouter
from .hashring import ConsistentHashRing
from .message import (
    FLAG_CHECKPOINT,
    FLAG_EPOCH,
    FLAG_TELEMETRY,
    FLAG_TRACED,
    FrameError,
    attach_epoch,
    attach_trace_context,
)
from .pipeline import MifComponent, MifPipeline
from .transports import InprocTransport

__all__ = ["MiddlewareFabric"]


class MiddlewareFabric:
    """Builds and owns the middleware plumbing for named estimators.

    Parameters
    ----------
    names:
        Estimator names (e.g. ``["se0", "se1", ...]``).
    pairs:
        Directed neighbour pairs to connect; ``None`` wires all ordered
        pairs.
    use_tcp:
        Real localhost TCP when True; in-process queues otherwise.
    fast:
        Use the multiplexed single-hub data plane instead of one relay
        pipeline per pair.  Same delivery and statistics semantics.
    """

    def __init__(
        self,
        names: list[str],
        pairs: list[tuple[str, str]] | None = None,
        *,
        use_tcp: bool = False,
        fast: bool = False,
    ):
        if len(set(names)) != len(names):
            raise ValueError("duplicate estimator names")
        self.names = list(names)
        self.registry = EndpointRegistry()
        self.inproc = None if use_tcp else InprocTransport()
        self.use_tcp = use_tcp
        self.fast = fast
        self.clients: dict[str, MWClient] = {}
        self.pipelines: dict[tuple[str, str], MifPipeline] = {}
        self.inbound: dict[tuple[str, str], str] = {}
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
        """Bind every client endpoint and start the data plane."""
        if self._started:
            raise RuntimeError("fabric already started")
        if self.fast:
            self._start_fast()
        else:
            self._start_legacy()
        self._started = True

    def _start_legacy(self) -> None:
        for name in self.names:
            client = MWClient(name, self.registry, inproc=self.inproc)
            if self.use_tcp:
                client.serve("tcp://127.0.0.1:0")
            else:
                client.serve(f"inproc://site-{name}")
            self.clients[name] = client

        for a, b in self.pairs:
            pipeline = MifPipeline(inproc=self.inproc)
            comp = MifComponent(name=f"{a}->{b}")
            pipeline.add_mif_component(comp)
            if self.use_tcp:
                comp.set_in_endpoint("tcp://127.0.0.1:0")
            else:
                comp.set_in_endpoint(f"inproc://pipe-{a}-{b}")
            comp.set_out_endpoint(self.registry.resolve(b))
            pipeline.start()
            self.pipelines[(a, b)] = pipeline
            self.inbound[(a, b)] = comp.in_endpoint

    def _start_fast(self) -> None:
        self._hub = MuxRouter() if self.use_tcp else InprocMuxRouter()
        hub_url = self._hub.start()
        # a TCP link gets no reader thread: recv() drains it (see there)
        attach_opts = {"threaded": False} if self.use_tcp else {}
        for name in self.names:
            client = MWClient(name, self.registry, inproc=self.inproc)
            self.clients[name] = client
            self.registry.register(name, hub_url)
            # one duplex link per site; inbound frames land in the client's
            # buffer through the same accounting path as a served endpoint
            self._links[name] = self._hub.attach(
                self._ids[name], client._deliver, **attach_opts
            )

    def stop(self) -> None:
        for pipeline in self.pipelines.values():
            pipeline.stop()
        for link in self._links.values():
            link.close()
        if self._hub is not None:
            self._hub.stop()
        for client in self.clients.values():
            client.close()
        self._started = False

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    # ------------------------------------------------------------------
    def _check_pair(self, src: str, dst: str) -> None:
        if (src, dst) not in self._pair_set:
            raise KeyError(f"no pipeline for {src} -> {dst}")

    @staticmethod
    def _trace_wrap(payload):
        """Attach the calling thread's span context to a fast-plane payload
        (wire-level context propagation); no-op outside sampled spans."""
        ctx = obs.current_context()
        if ctx is None or not ctx.sampled:
            return payload, 0
        return attach_trace_context(payload, ctx)

    def send(self, src: str, dst: str, payload: bytes) -> None:
        """Send through the (src → dst) data plane — estimator → router
        hop → destination buffer."""
        if self.fast:
            self._check_pair(src, dst)
            nbytes = len(payload)
            payload, flags = self._trace_wrap(payload)
            self._links[src].send(self._ids[dst], payload, flags=flags)
            self.clients[src].bytes_sent += nbytes
            return
        try:
            inbound = self.inbound[(src, dst)]
        except KeyError as exc:
            raise KeyError(f"no pipeline for {src} -> {dst}") from exc
        self.clients[src].send(inbound, payload)

    def send_many(self, src: str, frames, *, epoch: int | None = None) -> None:
        """Send a burst of ``(dst, payload)`` frames from one site; on the
        fast plane they all ride one scatter-gather syscall.

        ``epoch`` (fast plane only) stamps every frame with the cluster
        epoch so the hub's fence can reject a zombie sender's frames
        after a failover (see :meth:`set_epoch_fence`).
        """
        frames = list(frames)
        if not frames:
            return
        if self.fast:
            for dst, _ in frames:
                self._check_pair(src, dst)
            nbytes = sum(len(p) for _, p in frames)
            flags = 0
            if epoch is not None:
                # epoch sits inside the trace context on the wire: attach
                # it first, trace-wrap after
                frames = [(dst, attach_epoch(p, epoch)[0]) for dst, p in frames]
                flags |= FLAG_EPOCH
            ctx = obs.current_context()
            if ctx is not None and ctx.sampled:
                frames = [
                    (dst, attach_trace_context(p, ctx)[0]) for dst, p in frames
                ]
                flags |= FLAG_TRACED
            self._links[src].send_many(
                ((self._ids[dst], payload) for dst, payload in frames),
                flags=flags,
            )
            self.clients[src].bytes_sent += nbytes
            return
        for dst, payload in frames:
            self.send(src, dst, payload)

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

    # -- telemetry plane -----------------------------------------------
    def enable_telemetry(self, sink) -> None:
        """Attach the cluster-side telemetry sink at the mux hub.

        ``sink(payload: bytes)`` receives every ``FLAG_TELEMETRY`` frame
        (typically :meth:`repro.obs.aggregate.TelemetryAggregator.ingest`);
        telemetry frames are consumed at the hub and never reach a site's
        deliver callback.  Fast plane only — the pipeline plane has no
        hub to aggregate at.
        """
        if not self.fast or self._hub is None:
            raise RuntimeError(
                "telemetry aggregation needs the fast plane "
                "(MiddlewareFabric(fast=True), started)"
            )
        self._hub.set_telemetry_sink(sink)

    def send_telemetry(self, src: str, payload: bytes) -> None:
        """Ship one packed telemetry frame from site ``src`` to the hub
        sink (see :func:`repro.middleware.message.pack_telemetry`)."""
        if not self.fast:
            raise RuntimeError("telemetry frames ride the fast plane only")
        # dst 0 is nominal — the hub consumes the frame before routing
        self._links[src].send(0, payload, flags=FLAG_TELEMETRY)
        if obs.enabled():
            obs.metrics().counter("mw.telemetry_frames_sent_total").inc()

    # -- recovery plane ------------------------------------------------
    def set_checkpoint_sink(self, name: str, sink) -> None:
        """Divert ``FLAG_CHECKPOINT`` frames addressed to site ``name``
        into ``sink(payload)`` instead of its ordinary receive queue (the
        recovery replica plane).  Fast plane only."""
        if not self.fast or self._hub is None:
            raise RuntimeError(
                "checkpoint frames ride the fast plane "
                "(MiddlewareFabric(fast=True), started)"
            )
        link = self._links[name]
        if hasattr(link, "checkpoint_sink"):
            # TCP: the frame is forwarded by the hub and diverted at the
            # receiving link's edge — by a reader thread, so replicas and
            # lease beats land while the site is not in recv()
            link.checkpoint_sink = sink
            link.start_reader()
        else:
            # inproc: the hub delivers directly
            self._hub.set_checkpoint_sink(self._ids[name], sink)

    def send_checkpoint(
        self, src: str, dst: str, payload: bytes, *, epoch: int = 0
    ) -> None:
        """Replicate one checkpoint payload from ``src`` to ``dst``'s
        checkpoint sink, stamped with the cluster ``epoch``."""
        if not self.fast:
            raise RuntimeError("checkpoint frames ride the fast plane only")
        self._check_pair(src, dst)
        nbytes = len(payload)
        payload, _ = attach_epoch(payload, epoch)
        self._links[src].send(
            self._ids[dst], payload, flags=FLAG_CHECKPOINT | FLAG_EPOCH
        )
        self.clients[src].bytes_sent += nbytes
        if obs.enabled():
            obs.metrics().counter("mw.checkpoint_frames_sent_total").inc()

    def set_epoch_fence(self, fence) -> None:
        """Install ``fence(src_id, epoch) -> bool`` at the mux hub; frames
        stamped with a fenced (stale) epoch are dropped before routing.
        Fast plane only."""
        if not self.fast or self._hub is None:
            raise RuntimeError(
                "epoch fencing needs the fast plane "
                "(MiddlewareFabric(fast=True), started)"
            )
        self._hub.set_epoch_fence(fence)

    def site_id(self, name: str) -> int:
        """The wire-level id of site ``name`` (fence callbacks receive
        ids, not names)."""
        return self._ids[name]

    def recv(self, name: str, *, timeout: float = 5.0) -> bytes:
        """Take the next payload delivered to estimator ``name``.

        On the TCP fast plane the caller drains ``name``'s link itself
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
        if self.fast:
            by_id = self._hub.stats() if self._hub is not None else {}
            rev = {i: name for name, i in self._ids.items()}
            out = {pair: (0, 0) for pair in self.pairs}
            for (src_id, dst_id), rec in by_id.items():
                out[(rev[src_id], rev[dst_id])] = rec
            return out
        out = {}
        for key, pipeline in self.pipelines.items():
            comp = pipeline.components[0]
            out[key] = (comp.frames_relayed, comp.bytes_relayed)
        return out

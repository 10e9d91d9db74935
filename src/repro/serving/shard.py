"""Front-end shard router: one serving tier over N service replicas.

The repo's serving story used to stop at one :class:`ScenarioService`
per process.  ``ShardRouter`` is the horizontal layer on top: it spreads
``EstimationRequest`` / ``ContingencyRequest`` traffic across N replicas
by consistent hashing on a ``(grid, region/delta)`` key, so repeated
traffic for one scenario region keeps landing on the replica whose warm
caches already hold it, and membership changes move only ``~1/N`` of the
keyspace (:class:`~repro.middleware.hashring.ConsistentHashRing` — the
same ring the mux fabric's ``send_keyed`` uses, so a co-located fabric
and router agree on every key).

Backpressure and failure are *typed*, never silent:

- a replica at ``max_queue`` fails admission with ``ServiceOverloaded``;
  the router spills the request to the next shard in the key's ring
  preference order, and only when **every** live shard refused does the
  caller see ``ServiceOverloaded``;
- a request that goes stale fails with ``DeadlineExceeded`` (never
  retried — its deadline has passed no matter where it runs);
- a replica that dies mid-request (crashed worker pool, aborted
  service) fails with an infrastructure error; the router marks the
  shard lost, removes it from the ring and **re-hashes** the request to
  the surviving replicas — accepted requests are re-routed, not lost.

Re-dispatch is bounded by a PR-5 :class:`~repro.middleware.errors.
RetryPolicy` (deterministic backoff; zero-delay by default so the
resolving dispatcher thread never sleeps).

Graceful membership: :meth:`remove_shard` takes a shard out of rotation
and *drains* it (queued work completes, then the service closes);
:meth:`kill_shard` is the crash-shaped variant used by chaos tests —
queued requests fail typed and immediately re-hash.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import Future, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Iterable, Iterator, Mapping

from .. import obs
from ..middleware.errors import (
    ClientClosed,
    ConnectFailed,
    DeadlineExceeded,
    RetryPolicy,
    SendFailed,
)
from ..middleware.hashring import ConsistentHashRing
from ..parallel import WorkerCrash
from .requests import (
    ContingencyRequest,
    EstimationRequest,
    ReplicaLost,
    ServiceOverloaded,
)
from .service import ScenarioService

__all__ = ["ShardRouter", "RouterStats", "request_key"]

#: failures that mean "the replica is gone", not "the request is bad" —
#: these mark the shard lost and re-hash the request
_INFRA_ERRORS = (
    ReplicaLost,
    WorkerCrash,
    BrokenProcessPool,
    ClientClosed,
    ConnectFailed,
    SendFailed,
    ConnectionError,
)


def request_key(request, *, grid: str = "") -> tuple:
    """The canonical consistent-hash key for a request.

    Scenario frames hash by their delta's *region* — the set of touched
    branch/bus indices (or the delta's label when one is set) — so the
    same what-if scenario always lands on the same replica's warm caches.
    Contingency screenings hash by outaged branch.  Plain values-only
    frames have no region; they return ``None`` and the router spreads
    them round-robin over the ring instead.
    """
    if isinstance(request, EstimationRequest) and request.delta is not None:
        d = request.delta
        region = d.label or (
            tuple(d.br_idx.tolist()),
            tuple(d.pd_idx.tolist()),
            tuple(d.qd_idx.tolist()),
        )
        return (grid, "scenario", region)
    if isinstance(request, ContingencyRequest):
        return (grid, "n-1", request.contingency.branch)
    return None


class RouterStats:
    """Thread-safe routing counters (the router-side view; per-request
    latency lives in each replica's :class:`ServiceStats`)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.routed: dict[str, int] = {}
        self.completed = 0
        self.rehashed = 0      # re-dispatches after a replica loss
        self.spilled = 0       # re-dispatches after an overloaded shard
        self.shed = 0          # requests that failed typed at the caller
        self.replicas_lost = 0
        self.restored = 0      # replicas re-admitted after a loss

    def _bump(self, attr: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, attr, getattr(self, attr) + n)

    def record_routed(self, shard: str) -> None:
        with self._lock:
            self.routed[shard] = self.routed.get(shard, 0) + 1

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "routed": dict(self.routed),
                "completed": self.completed,
                "rehashed": self.rehashed,
                "spilled": self.spilled,
                "shed": self.shed,
                "replicas_lost": self.replicas_lost,
                "restored": self.restored,
            }


class ShardRouter:
    """Routes scenario requests across named :class:`ScenarioService`
    replicas via consistent hashing, with typed backpressure, overload
    spillover and crash re-hashing.

    Parameters
    ----------
    shards:
        ``name -> ScenarioService`` mapping.  The services are owned by
        the router: :meth:`close` drains and closes all of them.
    grid:
        Label mixed into every hash key (requests for different grids
        sharing a ring must not collide).
    vnodes:
        Virtual nodes per shard on the ring.
    retry:
        PR-5 retry policy bounding re-dispatches per request.
        ``max_attempts`` counts dispatch attempts (first try included);
        ``None`` allows one attempt per shard with zero backoff.
    """

    def __init__(
        self,
        shards: Mapping[str, ScenarioService],
        *,
        grid: str = "",
        vnodes: int = 64,
        retry: RetryPolicy | None = None,
    ):
        if not shards:
            raise ValueError("at least one shard is required")
        self._shards: dict[str, ScenarioService] = dict(shards)
        self.grid = grid
        self._ring = ConsistentHashRing(self._shards, vnodes=vnodes)
        self.retry = retry or RetryPolicy(
            max_attempts=max(2, len(self._shards)),
            base_delay=0.0, max_delay=0.0, jitter=0.0,
        )
        self._dead: set[str] = set()
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._closed = False
        self.stats = RouterStats()

    # -- membership ----------------------------------------------------
    @property
    def shard_names(self) -> list[str]:
        return sorted(self._shards)

    def live_shards(self) -> list[str]:
        with self._lock:
            return sorted(set(self._shards) - self._dead)

    def live_items(self) -> list[tuple[str, ScenarioService]]:
        return [(name, self._shards[name]) for name in self.live_shards()]

    def add_shard(self, name: str, service: ScenarioService) -> None:
        """Join a replica: it inherits ``~1/N`` of the keyspace."""
        with self._lock:
            if name in self._shards and name not in self._dead:
                raise ValueError(f"shard {name!r} already present")
            self._shards[name] = service
            self._dead.discard(name)
        self._ring.add(name)

    def restore_shard(self, name: str, service: ScenarioService) -> None:
        """Re-admit a previously lost/killed replica under its old name
        with a fresh service: it takes back its keyspace slice, and the
        health plane records the recovery (counterpart of the
        ``shard.lost`` event :meth:`_mark_lost` emits)."""
        self.add_shard(name, service)
        self.stats._bump("restored")
        if obs.enabled():
            obs.metrics().counter(
                "router.shards_restored_total", shard=name
            ).inc()
        if obs.health_enabled():
            obs.health().site_recovered(name, origin="serving")

    def remove_shard(self, name: str, *, drain: bool = True) -> None:
        """Take a replica out of rotation.

        ``drain=True`` (graceful): new traffic re-hashes to the ring
        successors immediately, queued work completes, then the service
        closes.  ``drain=False`` (crash-shaped): queued requests fail
        typed and the router re-hashes them — see :meth:`kill_shard`.
        """
        with self._lock:
            svc = self._shards.get(name)
            if svc is None or name in self._dead:
                return
            self._dead.add(name)
        self._ring.remove(name)
        if drain:
            svc.close()
        else:
            svc.abort()

    def kill_shard(self, name: str) -> None:
        """Simulate a hard replica loss (chaos hook): queued requests on
        the shard fail with ``ReplicaLost`` and immediately re-hash."""
        self.remove_shard(name, drain=False)

    def _mark_lost(self, name: str, exc: Exception) -> bool:
        """Replica died underneath us; pull it from the ring once."""
        with self._lock:
            if name in self._dead:
                return False
            self._dead.add(name)
        self._ring.remove(name)
        self.stats._bump("replicas_lost")
        if obs.enabled():
            obs.metrics().counter(
                "router.replicas_lost_total", shard=name
            ).inc()
        if obs.health_enabled():
            # synchronous on the loss path: the shard.lost event (and any
            # blackbox it triggers) lands before the rehash re-dispatches
            # this replica's requests
            obs.health().shard_lost(name, exc)
        return True

    # -- submission ----------------------------------------------------
    def key_for(self, request) -> tuple:
        """The routing key the router will use for ``request`` (keyless
        frames draw a fresh spreading key per call)."""
        key = request_key(request, grid=self.grid)
        if key is None:
            key = (self.grid, "frame", next(self._seq))
        return key

    def shard_for(self, request, *, key=None) -> str:
        """The shard a request would route to right now."""
        key = self.key_for(request) if key is None else key
        for name in self._ring.preference(key):
            if name not in self._dead:
                return name
        raise ReplicaLost("no live shard on the ring")

    def submit(self, request, *, key=None) -> Future:
        """Route and enqueue a request; the returned future resolves to
        the replica's :class:`~repro.serving.requests.ScenarioResult`
        (annotated with the serving shard) or fails with a typed error."""
        return self._submit(request, key)[0]

    def _submit(self, request, key=None) -> tuple[Future, str | None]:
        """:meth:`submit`, plus the replica the request was queued on
        (``None`` when none took it)."""
        if self._closed:
            raise RuntimeError("ShardRouter is closed")
        if not isinstance(request, (EstimationRequest, ContingencyRequest)):
            raise TypeError(
                "submit expects an EstimationRequest or ContingencyRequest, "
                f"got {type(request).__name__}"
            )
        key = self.key_for(request) if key is None else key
        caller: Future = Future()
        return caller, self._dispatch(request, caller, key, tried=set(), attempt=1)

    def submit_estimation(
        self, z=None, *, tol: float = 1e-8, delta=None, key=None
    ) -> Future:
        req = EstimationRequest(z=z, tol=tol, delta=delta)
        return self.submit(req, key=key)

    def submit_contingency(self, contingency) -> Future:
        return self.submit(ContingencyRequest(contingency))

    def run(self, requests: Iterable) -> list:
        """Submit every request and wait; results in request order.  Each
        replica the burst was queued on is flushed after the last submit
        (:meth:`ScenarioService.run`), so its share drains at once."""
        futures, fed = [], set()
        for r in requests:
            fut, target = self._submit(r)
            futures.append(fut)
            fed.add(target)
        for name in sorted(fed - {None}):
            self._shards[name]._flush()
        return [f.result() for f in futures]

    def stream(self, requests: Iterable) -> Iterator:
        """Submit every request, yielding results in completion order."""
        futures = [self.submit(r) for r in requests]
        for fut in as_completed(futures):
            yield fut.result()

    # -- dispatch machinery --------------------------------------------
    def _next_target(self, key, tried: set) -> str | None:
        try:
            order = self._ring.preference(key)
        except LookupError:
            return None
        with self._lock:
            for name in order:
                if name not in tried and name not in self._dead:
                    return name
        return None

    def _dispatch(
        self, request, caller: Future, key, tried: set, attempt: int,
        last_exc: Exception | None = None,
    ) -> str | None:
        """Queue ``request`` on the first live replica of ``key``'s
        preference that takes it; returns that replica's name, or ``None``
        once ``caller`` has failed typed."""
        while True:
            target = self._next_target(key, tried)
            if target is None:
                if isinstance(last_exc, _INFRA_ERRORS):
                    self._fail(caller, ReplicaLost(
                        "no live shard left to inherit the request "
                        f"(tried {sorted(tried) or 'none'})"
                    ))
                else:
                    self._fail(caller, ServiceOverloaded(
                        "every live shard refused the request "
                        f"(tried {sorted(tried) or 'none'})"
                    ))
                return None
            svc = self._shards[target]
            try:
                inner = svc.submit(request)
            except TypeError:
                raise
            except RuntimeError as exc:  # service closed under us
                if self._mark_lost(target, exc):
                    pass
                tried.add(target)
                continue
            self.stats.record_routed(target)
            if obs.enabled():
                obs.metrics().counter(
                    "router.requests_total", shard=target
                ).inc()
            inner.add_done_callback(
                lambda fut, t=target: self._on_inner(
                    fut, request, caller, key, tried, attempt, t
                )
            )
            return target

    def _on_inner(
        self, fut: Future, request, caller: Future, key, tried: set,
        attempt: int, target: str,
    ) -> None:
        exc = fut.exception()
        if exc is None:
            result = fut.result()
            result.shard = target
            self.stats._bump("completed")
            if not caller.done():
                caller.set_result(result)
            return
        if isinstance(exc, ServiceOverloaded):
            # backpressure: spill to the next shard in ring order; the
            # caller only sees ServiceOverloaded when all shards refuse
            tried.add(target)
            if attempt >= self.retry.max_attempts:
                self._fail(caller, exc)
                return
            self.stats._bump("spilled")
            if obs.enabled():
                obs.metrics().counter("router.spill_total").inc()
            self._dispatch(request, caller, key, tried, attempt + 1, exc)
            return
        if isinstance(exc, DeadlineExceeded):
            # the deadline has passed wherever it would run: typed, final
            self._fail(caller, exc)
            return
        if isinstance(exc, _INFRA_ERRORS):
            # the replica is gone — re-hash onto the survivors
            self._mark_lost(target, exc)
            tried.add(target)
            if attempt >= self.retry.max_attempts:
                self._fail(caller, ReplicaLost(
                    f"shard {target!r} lost and the retry budget "
                    f"({self.retry.max_attempts} attempts) is spent"
                ))
                return
            self.stats._bump("rehashed")
            if obs.enabled():
                obs.metrics().counter("router.rehash_total").inc()
            try:
                self.retry.sleep(attempt)
            except DeadlineExceeded as dexc:  # pragma: no cover - no deadline set
                self._fail(caller, dexc)
                return
            self._dispatch(request, caller, key, tried, attempt + 1, exc)
            return
        # application-level failure (bad delta, solver error): propagate
        self._fail(caller, exc)

    def _fail(self, caller: Future, exc: Exception) -> None:
        self.stats._bump("shed")
        if obs.enabled():
            obs.metrics().counter(
                "router.shed_total", error=type(exc).__name__
            ).inc()
        if not caller.done():
            caller.set_exception(exc)

    # -- introspection -------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Router counters plus each live shard's ``ServiceStats``."""
        return {
            "router": self.stats.to_dict(),
            "shards": {
                name: svc.stats.to_dict() for name, svc in self.live_items()
            },
        }

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Drain and close every replica."""
        if self._closed:
            return
        self._closed = True
        for svc in self._shards.values():
            svc.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardRouter(shards={self.shard_names}, "
            f"live={self.live_shards()}, grid={self.grid!r})"
        )

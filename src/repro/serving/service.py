"""Batched scenario-serving engine.

``ScenarioService`` is the serving shape the scale-out papers converge on
(batch many independent area solves into one warm engine): callers submit
estimation frames and contingency cases from any thread; a dispatcher
coalesces them into batches — bounded by ``max_batch`` and a flush-latency
window, or by the end of a burst handed to ``run`` — and drains each
batch.  Results stream back through futures as they resolve.

Estimation frames drain one way: a flush's frames are grouped by
tolerance and each group is *one* solve of a
:class:`~repro.estimation.batch.BatchEstimator` over the base network
(each frame — values-only ``z``, what-if ``delta`` or both — a replica
block of one Gauss-Newton loop, converging or failing on its own).  A
frame's value is the central WLS
:class:`~repro.estimation.results.EstimationResult` — bit for bit what
``WlsEstimator(net, mset).estimate(z=z)`` returns unless a what-if shares
its flush (then within an ulp) — so the placement needs nothing beyond
central observability (no PMU anchor per subsystem).

A flush's contingency cases go through
:func:`repro.contingency.parallel.run_parallel`, where the analyzer's
method picks the drain: one compensation-based
:meth:`~repro.contingency.analysis.ContingencyAnalyzer.analyze_batch`
solve for DC, and for AC one task per case on the service's executor when
it is a process pool (an in-order loop otherwise).
"""

from __future__ import annotations

import math
import queue
import threading
import time
from concurrent.futures import Future, as_completed
from typing import Iterable, Iterator

import numpy as np

from .. import obs
from ..contingency.analysis import ContingencyAnalyzer
from ..contingency.parallel import run_parallel
from ..contingency.screening import Contingency
from ..dse.decomposition import Decomposition
from ..estimation.batch import BatchEstimator, BatchScenario
from ..estimation.wls import EstimationError, check_tol
from ..measurements.types import MeasurementSet
from ..middleware.errors import DeadlineExceeded
from ..parallel import SubsystemExecutor, make_executor
from .requests import (
    ContingencyRequest,
    EstimationRequest,
    ReplicaLost,
    ScenarioResult,
    ServiceOverloaded,
    ServiceStats,
)

__all__ = ["ScenarioService"]

_SHUTDOWN = object()


class ScenarioService:
    """Accepts many estimation / contingency requests and serves them in
    coalesced batches over a shared executor.

    Parameters
    ----------
    dec, mset:
        The decomposition whose network (``dec.net``) the service monitors,
        and the template measurement snapshot (fixes the placement;
        estimation requests carry values-only ``z`` frames over it).
    executor:
        Where an AC analyzer's cases fan out (a DC flush is one batched
        solve and never touches it): any
        :func:`repro.parallel.make_executor` spec; spec-created executors
        are owned (and shut down) by the service, instances are shared
        with the caller.
    analyzer:
        Contingency analyzer; a DC ``ContingencyAnalyzer(dec.net)`` when
        omitted (pass ``ContingencyAnalyzer(net, method="ac")`` for AC).
    max_batch:
        Largest batch one dispatch may coalesce.
    flush_latency:
        Seconds the dispatcher waits for the batch to fill before flushing
        a partial one (the latency the first request in a batch is willing
        to trade for throughput).  A burst handed to :meth:`run` does not
        wait it out: the burst's end flushes the batch.
    batch_solve:
        Accepted and ignored: the analyzer's method picks the contingency
        drain, and estimation frames always drain batched.
    request_timeout:
        Per-request deadline in seconds, measured from ``submit``.  A
        request still queued when its deadline passes is shed at dispatch
        time: its future fails with
        :class:`~repro.middleware.errors.DeadlineExceeded` and the solve is
        skipped.  ``None`` (default) disables deadlines.
    max_queue:
        Admission bound on the backlog.  ``submit`` sheds new requests with
        :class:`~repro.serving.requests.ServiceOverloaded` (the returned
        future is already failed) once this many are queued.  ``None``
        (default) accepts unboundedly.
    """

    def __init__(
        self,
        dec: Decomposition,
        mset: MeasurementSet,
        *,
        executor: "SubsystemExecutor | str | None" = None,
        analyzer: ContingencyAnalyzer | None = None,
        max_batch: int = 32,
        flush_latency: float = 2e-3,
        batch_solve: bool = False,
        request_timeout: float | None = None,
        max_queue: int | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if flush_latency < 0:
            raise ValueError("flush_latency must be >= 0")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be positive (or None)")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None)")
        self._own_executor = not isinstance(executor, SubsystemExecutor)
        self.executor = make_executor(executor)
        self.max_batch = int(max_batch)
        self.flush_latency = float(flush_latency)
        self.request_timeout = request_timeout
        self.max_queue = max_queue
        self._net = dec.net
        self._mset = mset
        self._estimator = None  # built on the first flush with a frame
        self.analyzer = analyzer or ContingencyAnalyzer(dec.net)

        self.stats = ServiceStats()  # internally locked; see requests.py
        self._queue: queue.Queue = queue.Queue()
        self._dispatcher: threading.Thread | None = None
        self._dispatch_lock = threading.Lock()
        self._closed = False
        self._abort_exc: Exception | None = None
        self._health_watch = None
        if obs.health_enabled():
            # gated on queue depth: an idle dispatcher is not a stall
            self._health_watch = obs.health().watch(
                f"serving.dispatch:svc-{id(self):x}", source="serving.dispatch",
                gate=self._queue.qsize,
            )

    # -- submission ---------------------------------------------------------
    def submit(self, request) -> Future:
        """Enqueue a request; returns a future resolving to a
        :class:`~repro.serving.requests.ScenarioResult`."""
        if not isinstance(request, (EstimationRequest, ContingencyRequest)):
            raise TypeError(
                "submit expects an EstimationRequest or ContingencyRequest, "
                f"got {type(request).__name__}"
            )
        if self._closed:
            raise RuntimeError("ScenarioService is closed")
        if isinstance(request, EstimationRequest):
            # a delta or a frame from outside the program: it must not
            # reach a solve it would fail for every request coalesced with it
            if request.delta is not None:
                request.delta.check_bounds(self._net)
            if request.z is not None:
                try:
                    z = np.asarray(request.z, dtype=float)
                except (TypeError, ValueError):
                    raise ValueError("z is not a float vector") from None
                # Finite iff its dot product with itself is (per-unit
                # values do not overflow a square).  Not np.isfinite(z):
                # a ufunc over more than 500 elements drops the interpreter
                # lock, a dispatcher woken by the previous put takes it and
                # starts its flush window mid-burst — measured, bursts then
                # split into more batches (2.07 -> 2.14-2.43 per burst).
                if z.shape != (len(self._mset),) or not math.isfinite(z @ z):
                    raise ValueError(
                        f"z must be {len(self._mset)} finite values in the "
                        f"measurement set's order, got shape {z.shape}"
                    )
            check_tol(request.tol)
        self._ensure_dispatcher()
        fut: Future = Future()
        if self.max_queue is not None and self._queue.qsize() >= self.max_queue:
            self._shed(fut, ServiceOverloaded(
                f"backlog at max_queue={self.max_queue}; request shed"
            ), cause="queue_full")
            return fut
        self._queue.put((request, fut, time.perf_counter()))
        return fut

    def submit_estimation(
        self, z=None, *, tol: float = 1e-8, delta=None
    ) -> Future:
        return self.submit(EstimationRequest(z=z, tol=tol, delta=delta))

    def submit_contingency(self, contingency: Contingency) -> Future:
        return self.submit(ContingencyRequest(contingency))

    def submit_contingencies(self, contingencies: Iterable[Contingency]) -> list[Future]:
        return [self.submit_contingency(c) for c in contingencies]

    # -- bulk / streaming ---------------------------------------------------
    def run(self, requests: Iterable) -> list[ScenarioResult]:
        """Submit every request and wait; results in request order.  The
        burst ends with a flush (:meth:`_flush`): the dispatcher drains
        what it holds at once, in batches of at most ``max_batch`` that end
        with the burst, rather than waiting out ``flush_latency``."""
        futures = [self.submit(r) for r in requests]
        self._flush()
        return [f.result() for f in futures]

    def _flush(self) -> None:
        """Mark the end of a burst on the queue (a ``None``): the batch the
        dispatcher is collecting closes there."""
        if not self._closed:
            self._queue.put(None)

    def stream(self, requests: Iterable) -> Iterator[ScenarioResult]:
        """Submit every request, yielding results in completion order."""
        futures = [self.submit(r) for r in requests]
        for fut in as_completed(futures):
            yield fut.result()

    # -- dispatcher ---------------------------------------------------------
    def _ensure_dispatcher(self) -> None:
        with self._dispatch_lock:
            if self._dispatcher is None:
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop,
                    name="scenario-dispatch",
                    daemon=True,
                )
                self._dispatcher.start()

    def _dispatch_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            if item is None:        # a flush with nothing held
                continue
            batch = [item]
            deadline = time.perf_counter() + self.flush_latency
            stop = False
            while len(batch) < self.max_batch:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                try:
                    nxt = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if nxt is _SHUTDOWN:
                    stop = True
                    break
                if nxt is None:     # the burst ends here
                    break
                batch.append(nxt)
            self._execute_batch(batch)
            if stop:
                return

    def _shed(self, fut: Future, exc: Exception, *, cause: str) -> None:
        self.stats.record_shed(cause)
        if obs.enabled():
            obs.metrics().counter("serving.shed", cause=cause).inc()
        if obs.health_enabled():
            obs.health().note_shed("serving", cause)
        if not fut.done():
            fut.set_exception(exc)

    def _execute_batch(self, batch: list) -> None:
        if self._health_watch is not None:
            obs.health().beat(self._health_watch)
        abort = self._abort_exc
        if abort is not None:
            # replica lost: nothing executes any more; fail fast so a
            # front-end router can re-hash every queued request
            for it in batch:
                self._shed(it[1], abort, cause="replica_lost")
            return
        if self.request_timeout is not None:
            now = time.perf_counter()
            fresh = []
            for it in batch:
                age = now - it[2]
                if age > self.request_timeout:
                    self._shed(it[1], DeadlineExceeded(
                        f"request spent {age:.3f}s queued, past its "
                        f"{self.request_timeout:.3f}s deadline"
                    ), cause="deadline")
                else:
                    fresh.append(it)
            batch = fresh
            if not batch:
                return
        size = len(batch)
        cons = [it for it in batch if isinstance(it[0], ContingencyRequest)]
        ests = [it for it in batch if isinstance(it[0], EstimationRequest)]

        with obs.span(
            "serving.batch", size=size,
            estimations=len(ests), contingencies=len(cons),
        ):
            if cons:
                try:
                    report = run_parallel(
                        self.analyzer,
                        [it[0].contingency for it in cons],
                        executor=self.executor,
                    )
                    for it, res in zip(cons, report.results):
                        self._resolve(it, res, size)
                except BaseException as exc:
                    for _, fut, _ in cons:
                        if not fut.done():
                            fut.set_exception(exc)

            if ests:
                self._execute_estimations(ests, size)

        self.stats.record_batch(size)
        if obs.enabled():
            reg = obs.metrics()
            reg.counter("serving.batches_total").inc()
            reg.histogram("serving.batch_size").observe(size)

    def _execute_estimations(self, ests: list, size: int) -> None:
        """Drain a flush's estimation frames as one batched solve per tol.

        Frames sharing a tolerance stack into one
        :meth:`~repro.estimation.batch.BatchEstimator.outcomes` call; each
        future resolves to its scenario's
        :class:`~repro.estimation.results.EstimationResult`, or fails with
        its scenario's own :class:`~repro.estimation.wls.EstimationError`
        (e.g. a delta that islands the network) while the rest of the
        flush resolves.
        """
        groups: dict[float, list] = {}
        for it in ests:
            groups.setdefault(float(it[0].tol), []).append(it)
        if self._estimator is None:
            self._estimator = BatchEstimator(
                self._net, self._mset, max_batch=self.max_batch
            )
        est = self._estimator
        for tol, group in groups.items():
            scenarios = [
                BatchScenario(delta=it[0].delta, z=it[0].z) for it in group
            ]
            try:
                outcomes = est.outcomes(scenarios, tol=tol)
            except BaseException as exc:
                for _, fut, _ in group:
                    if not fut.done():
                        fut.set_exception(exc)
            else:
                for it, res in zip(group, outcomes):
                    if isinstance(res, EstimationError):
                        it[1].set_exception(res)
                    else:
                        self._resolve(it, res, size)

    def _resolve(self, item, value, batch_size: int) -> None:
        request, fut, t_submit = item
        latency = time.perf_counter() - t_submit
        self.stats.record_request(latency)
        if obs.enabled():
            reg = obs.metrics()
            reg.counter("serving.requests_total").inc()
            reg.histogram("serving.latency.seconds").observe(latency)
        fut.set_result(
            ScenarioResult(
                request=request,
                value=value,
                latency=latency,
                batch_size=batch_size,
            )
        )

    # -- lifecycle ----------------------------------------------------------
    def abort(self, exc: Exception | None = None) -> None:
        """Hard replica loss: stop executing and fail every request still
        queued with a typed :class:`~repro.serving.requests.ReplicaLost`.

        This is the crash-shaped sibling of :meth:`close` (which drains).
        A front-end shard router observes the typed failures and re-hashes
        the lost requests onto surviving replicas — the contract chaos
        tests assert is "completed or typed error, never silently lost".
        """
        if self._closed:
            return
        self._closed = True
        self._abort_exc = exc or ReplicaLost("replica aborted")
        with self._dispatch_lock:
            dispatcher = self._dispatcher
        if dispatcher is not None:
            self._queue.put(_SHUTDOWN)
            dispatcher.join()
        self._release_engines()

    def close(self) -> None:
        """Drain the dispatcher and release owned resources (idempotent)."""
        if self._closed:
            return
        self._closed = True
        with self._dispatch_lock:
            dispatcher = self._dispatcher
        if dispatcher is not None:
            self._queue.put(_SHUTDOWN)
            dispatcher.join()
        self._release_engines()

    def _release_engines(self) -> None:
        """Stop what the service owns: its executor and its health watch."""
        if self._own_executor:
            self.executor.shutdown()
        self._disarm_health()

    def _disarm_health(self) -> None:
        watch, self._health_watch = self._health_watch, None
        if watch is not None:
            obs.health().disarm(watch)

    def __enter__(self) -> "ScenarioService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScenarioService(executor={self.executor!r}, "
            f"max_batch={self.max_batch}, "
            f"flush_latency={self.flush_latency})"
        )

"""Live distributed DSE runtime: concurrent estimator sites + middleware.

The closest thing in this repository to the paper's deployed prototype:
every subsystem's state estimator runs in its own thread ("site"), owns
only its local subproblem, and learns about its neighbours exclusively from
the bytes that arrive through the MeDICi-style pipelines — no shared-memory
shortcuts.  Rounds advance in lockstep (a barrier models the cycle
boundary of Figure 6); the payloads on the wire are the packed
pseudo-measurement records of :mod:`repro.middleware.message`.

The functional result must match the in-process
:class:`~repro.dse.algorithm.DistributedStateEstimator` — asserted in the
tests — while the wall-clock and relay statistics are those of a real
multi-threaded, socket-backed execution.

Like the paper's prototype, the deployment — the middleware fabric and the
site threads — is started once and outlives the frames it serves: every
:meth:`LiveDseRuntime.run` releases one frame to the waiting sites and
collects their result (see :class:`_Deployment`).
"""

from __future__ import annotations

import queue
import threading
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from .. import faults, obs
from ..cluster.recovery import (
    RecoveryConfig,
    RecoveryCoordinator,
    SubsystemCheckpoint,
    heartbeat_payload,
)
from ..dse.algorithm import DistributedStateEstimator
from ..dse.decomposition import Decomposition
from ..estimation.wls import WlsEstimator
from ..measurements.types import MeasurementSet
from ..middleware.errors import ClientClosed, MiddlewareError
from ..middleware.message import (
    FrameError,
    pack_condensed_update,
    pack_state_update,
    unpack_condensed_update,
    unpack_state_update,
)
from ..middleware.router import MiddlewareFabric

__all__ = ["LiveSiteStats", "LiveDseResult", "LiveDseRuntime"]

#: per-site cap on retained degraded-round indices (the full count lives
#: in ``degraded_total``) — a week-long soak stays O(1) memory per site
DEGRADED_ROUNDS_RETAINED = 64


@dataclass
class LiveSiteStats:
    """Per-site execution record."""

    s: int
    step1_time: float = 0.0
    step2_times: list[float] = field(default_factory=list)
    bytes_sent: int = 0
    bytes_received: int = 0
    messages_received: int = 0
    #: Step-2 rounds this site completed without its full neighbour set
    #: (missed/corrupt updates, failed sends, blown round deadline);
    #: bounded to the most recent :data:`DEGRADED_ROUNDS_RETAINED` entries
    degraded_rounds: list[int] = field(default_factory=list)
    #: total degraded rounds, including any aged out of the capped list
    degraded_total: int = 0
    #: subsystem ids promoted onto this site by failover (recovery mode)
    promoted_subsystems: list[int] = field(default_factory=list)
    checkpoints_sent: int = 0
    checkpoint_bytes: int = 0

    def record_degraded(self, r: int) -> None:
        """Record a degraded round; the retained list keeps only the most
        recent entries so long-running soaks don't grow without bound."""
        self.degraded_total += 1
        self.degraded_rounds.append(r)
        if len(self.degraded_rounds) > DEGRADED_ROUNDS_RETAINED:
            del self.degraded_rounds[
                : len(self.degraded_rounds) - DEGRADED_ROUNDS_RETAINED
            ]


class _HostedSub:
    """Mutable Step-2 state for one subsystem hosted on a site thread
    (recovery mode hosts can carry more than their own after failover)."""

    __slots__ = ("s", "vm_loc", "va_loc", "prev2", "lin0")

    def __init__(self, s: int):
        self.s = s
        self.vm_loc: dict[int, float] = {}
        self.va_loc: dict[int, float] = {}
        self.prev2: tuple | None = None  # (Vm, Va) over the extended net
        self.lin0: tuple | None = None  # condensation linearisation point

    @classmethod
    def from_checkpoint(cls, ck: SubsystemCheckpoint) -> "_HostedSub":
        w = cls(ck.subsystem)
        w.vm_loc = {int(b): float(v) for b, v in zip(ck.own_ids, ck.own_vm)}
        w.va_loc = {int(b): float(v) for b, v in zip(ck.own_ids, ck.own_va)}
        if ck.warm_vm is not None:
            w.prev2 = (ck.warm_vm, ck.warm_va)
        if ck.lin_vm is not None:
            # float64 state round-trips the wire bit-exactly, so this hits
            # the donor's factorisation cache — no re-condensation
            w.lin0 = (ck.lin_vm, ck.lin_va)
        return w


@dataclass
class LiveDseResult:
    """Outcome of a live distributed run."""

    Vm: np.ndarray
    Va: np.ndarray
    rounds: int
    wall_time: float
    sites: dict[int, LiveSiteStats]
    errors: list[str] = field(default_factory=list)
    #: site id -> Step-2 rounds the site ran degraded (empty when clean)
    degraded: dict[int, list[int]] = field(default_factory=dict)
    #: subsystem ids re-hosted by failover (recovery mode; empty otherwise)
    recovered_subsystems: list[int] = field(default_factory=list)
    #: site ids whose lease expired during the run
    lost_sites: list[int] = field(default_factory=list)

    @property
    def degraded_subsystems(self) -> list[int]:
        """Sorted ids of the subsystems that ran any degraded round."""
        return sorted(self.degraded)

    def state_error(self, Vm_true: np.ndarray, Va_true: np.ndarray) -> dict:
        dva = self.Va - Va_true
        dva -= dva.mean()
        return {
            "vm_rmse": float(np.sqrt(np.mean((self.Vm - Vm_true) ** 2))),
            "va_rmse": float(np.sqrt(np.mean(dva**2))),
        }


def _site_loop(s: int, inbox: "queue.SimpleQueue", done: "queue.SimpleQueue") -> None:
    """Resident site thread: run one released frame at a time.

    Between frames the thread holds nothing but its two queues — the frame
    callable (which closes over the runtime) is dropped before the site
    reports done, so an abandoned runtime can be reclaimed.
    """
    while True:
        frame = inbox.get()
        if frame is None:
            return
        try:
            frame(s)
        finally:
            frame = None
            done.put(s)


class _Deployment:
    """What is deployed once and serves many frames: the started
    middleware fabric and one waiting thread per site.

    Holds no reference to the runtime that owns it, so the runtime's
    ``weakref.finalize`` can stop it when the runtime is dropped.
    """

    def __init__(self, names, pairs, *, use_tcp: bool, fast: bool):
        self.fabric = MiddlewareFabric(names, pairs, use_tcp=use_tcp, fast=fast)
        #: cluster epoch the next recovery-mode frame starts in: above every
        #: epoch this fabric has carried, so a recovery-plane frame still in
        #: flight from the previous frame is fenced, not absorbed
        self.epoch0 = 0
        self._done: "queue.SimpleQueue" = queue.SimpleQueue()
        self._inboxes = [queue.SimpleQueue() for _ in names]
        self._threads = [
            threading.Thread(
                target=_site_loop, args=(s, inbox, self._done),
                name=f"site-{s}", daemon=True,
            )
            for s, inbox in enumerate(self._inboxes)
        ]
        try:
            self.fabric.start()
            for t in self._threads:
                t.start()
        except BaseException:
            self.stop()
            raise

    def run_frame(self, site) -> None:
        """Release ``site(s)`` to every site thread; return when all are done."""
        for inbox in self._inboxes:
            inbox.put(site)
        for _ in self._inboxes:
            self._done.get()

    def stop(self) -> None:
        for inbox in self._inboxes:
            inbox.put(None)
        # idle sites leave at once; one still inside an abandoned frame gets
        # a bounded wait and is then cut off by the closing fabric
        deadline = time.monotonic() + 2.0
        for t in self._threads:
            if t.ident is not None:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
        self.fabric.stop()


class LiveDseRuntime:
    """Runs the two-step DSE as concurrent sites over live middleware.

    The runtime is a *resident deployment*: the fabric (hub, links) and the
    site threads are started on the first :meth:`run` and serve every later
    frame; a frame that ends unclean (any error, degraded round, lost site,
    fired fault) retires them, so the next frame starts on a fresh
    deployment and can never absorb a stale update.  Site solves take turns
    in one compute slot: a GIL-bound solve gains nothing from overlapping
    another, and without the slot every GIL release inside a solve hands
    the interpreter to another solving site.  :meth:`close` (or leaving the
    ``with`` block, or dropping the last reference) stops the deployment.

    Parameters
    ----------
    dec, mset:
        The decomposition and the system-wide measurement snapshot (each
        site only ever touches its own assigned rows).
    use_tcp:
        Real localhost TCP pipelines instead of in-process queues.
    solver, sensitivity_threshold:
        Passed through to the local estimators.
    recv_timeout:
        Per-message receive timeout; a site that misses a neighbour's
        update records an error and re-uses its last known values, so a
        slow or dead peer degrades accuracy instead of deadlocking.
    round_deadline:
        Wall-clock budget per Step-2 exchange round, in seconds.  A site
        that has not collected its full neighbour set by the deadline
        stops waiting, runs the round on what it has (falling back to
        last-known pseudo values) and records the round as degraded —
        liveness under hard faults is bounded by ``rounds x deadline``
        instead of ``rounds x neighbours x recv_timeout``.  ``None``
        (default) keeps the per-message-timeout-only behaviour.
    use_cache:
        Reuse each site's estimators (cached Jacobian patterns,
        factorization orderings, merged pseudo structures) across Step-2
        rounds; rounds where a neighbour timed out fall back to a freshly
        built estimator over the partial pseudo set.
    fast:
        Use the fabric's multiplexed fast path (single router hub, pooled
        duplex links, batched neighbour sends) instead of one relay
        pipeline per pair.  Same bytes on the wire, same barrier schedule
        — the result stays bit-identical to the in-process DSE either way.
    condense:
        Condensed Step 2 (see
        :class:`~repro.dse.algorithm.DistributedStateEstimator`): each
        site solves the boundary-condensed system and the wire carries
        compact per-neighbour boundary blocks
        (:func:`~repro.middleware.message.pack_condensed_update`) — bus
        ids ride only the round-0 frames, later rounds are values-only
        over the receiver's a-priori ordering.  Requires
        ``use_cache=True``.
    recovery:
        Self-healing mode (a :class:`~repro.cluster.recovery.RecoveryConfig`;
        ``None`` — the default — is bitwise-inert): every round each site
        replicates a compact checkpoint of each subsystem it hosts to the
        subsystem's hash-ring successor over ``FLAG_CHECKPOINT`` frames;
        a site whose checkpoints stop arriving for ``lease_rounds``
        rounds is declared lost, its subsystems are promoted onto the
        successors holding their replicas, and the mux hub fences the
        zombie's epoch-stamped frames so it can never corrupt a
        post-failover round.  Requires ``fast=True`` and
        ``use_cache=True``.
    """

    def __init__(
        self,
        dec: Decomposition,
        mset: MeasurementSet,
        *,
        use_tcp: bool = False,
        solver: str = "lu",
        sensitivity_threshold: float = 0.5,
        recv_timeout: float = 10.0,
        round_deadline: float | None = None,
        use_cache: bool = True,
        fast: bool = True,
        condense: bool = False,
        recovery: RecoveryConfig | None = None,
    ):
        if condense and not use_cache:
            raise ValueError(
                "condense=True requires use_cache=True (the condensed "
                "operator lives in the per-site caches)"
            )
        if recovery is not None and not (fast and use_cache):
            raise ValueError(
                "recovery needs fast=True (checkpoint/epoch frames ride "
                "the mux hub) and use_cache=True (promoted subsystems "
                "reuse the shared per-site estimator caches)"
            )
        # Reuse the in-process DSE's subproblem construction and checks
        # (including its per-subsystem estimator caches).
        self._dse = DistributedStateEstimator(
            dec, mset, solver=solver,
            sensitivity_threshold=sensitivity_threshold,
            reuse_structures=use_cache,
            condense=condense,
        )
        self.dec = dec
        self.solver = solver
        self.recv_timeout = recv_timeout
        self.round_deadline = round_deadline
        self.use_tcp = use_tcp
        self.use_cache = use_cache
        self.fast = fast
        self.condense = condense
        self.recovery = recovery
        #: one frame at a time per runtime (also guards the lifecycle)
        self._run_lock = threading.Lock()
        #: the compute slot: one site solves at a time
        self._slot = threading.Lock()
        #: stops the current deployment; ``None`` until the first run and
        #: after a retire.  A ``weakref.finalize`` so a dropped runtime
        #: stops its hub, links and site threads without a ``close()``.
        self._stop_deployment: weakref.finalize | None = None
        self._deployment: _Deployment | None = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def _deploy(self) -> _Deployment:
        """The resident deployment, started on first use."""
        if self._deployment is None:
            dec = self.dec
            names = [f"se{s}" for s in range(dec.m)]
            pairs: list[tuple[str, str]] | None = []
            for u, v in dec.quotient_edges():
                pairs.append((f"se{u}", f"se{v}"))
                pairs.append((f"se{v}", f"se{u}"))
            if self.recovery is not None:
                # failover can rebind any (publisher, host) pair, so the
                # fabric wires the full ordered-pair mesh up front
                pairs = None
            dep = _Deployment(names, pairs, use_tcp=self.use_tcp, fast=self.fast)
            self._deployment = dep
            self._stop_deployment = weakref.finalize(self, dep.stop)
        return self._deployment

    def _retire(self) -> None:
        """Stop the current deployment; the next frame starts a new one."""
        if self._stop_deployment is not None:
            self._stop_deployment()
        self._stop_deployment = self._deployment = None

    def close(self) -> None:
        """Stop the hub, links and site threads (idempotent); a later
        :meth:`run` raises."""
        with self._run_lock:
            self._closed = True
            self._retire()

    def __enter__(self) -> "LiveDseRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        rounds: int | None = None,
        tol: float = 1e-8,
        z: np.ndarray | None = None,
    ) -> LiveDseResult:
        """Execute one live distributed estimation on the resident
        deployment (concurrent callers take turns).

        ``z`` optionally overrides the system-wide measured values
        (canonical order of the constructor's ``mset``) — a values-only
        frame over the warm site estimators, mirroring
        :meth:`repro.dse.algorithm.DistributedStateEstimator.run`; requires
        ``use_cache=True``.
        """
        if rounds is None:
            rounds = max(1, self.dec.diameter())
        if z is not None:
            if not self.use_cache:
                raise ValueError("values-only frames (z=) require use_cache=True")
            z = np.asarray(z, dtype=float)
            if len(z) != len(self._dse.mset):
                raise ValueError("z override length mismatch")
        with self._run_lock:
            if self._closed:
                raise RuntimeError("LiveDseRuntime is closed")
            inj = faults.active()
            fired0 = inj.total_fired() if inj is not None else 0
            try:
                result = self._run_frame(self._deploy(), rounds, tol, z)
            except BaseException:
                self._retire()
                raise
            if (
                result.errors or result.degraded or result.lost_sites
                or result.recovered_subsystems
                # a fired fault may have left a frame behind that no site
                # waited for (a duplicate): not this deployment's next frame
                or (inj is not None and inj.total_fired() != fired0)
            ):
                self._retire()
            return result

    def _run_frame(
        self, deployment: _Deployment, rounds: int, tol: float,
        z: np.ndarray | None,
    ) -> LiveDseResult:
        """One frame on ``deployment``: everything here is per frame."""
        dec = self.dec
        net = dec.net
        fabric = deployment.fabric
        names = fabric.names
        recovery = self.recovery

        Vm = np.ones(net.n_bus)
        Va = np.zeros(net.n_bus)
        stats = {s: LiveSiteStats(s=s) for s in range(dec.m)}
        errors: list[str] = []
        err_lock = threading.Lock()
        barrier = threading.Barrier(dec.m)
        # Each site writes only its own buses; reads of neighbour values
        # happen via the wire, never via these arrays.
        result_lock = threading.Lock()
        coord: RecoveryCoordinator | None = None
        if recovery is not None:
            coord = RecoveryCoordinator(
                sites={name: i for i, name in enumerate(names)},
                hosted={f"se{s}": [s] for s in range(dec.m)},
                config=recovery, epoch0=deployment.epoch0,
            )

        watches: dict[int, object] = {}

        def site(s: int) -> None:
            if obs.health_enabled():
                # a round legitimately lasts up to its deadline (or one
                # recv timeout per neighbour); double that is a stall
                budget = (
                    self.round_deadline
                    if self.round_deadline is not None
                    else self.recv_timeout * max(1, dec.m - 1)
                )
                watches[s] = obs.health().watch(
                    f"live.site:{s}", timeout=2.0 * budget, source=f"se{s}",
                )
            try:
                # site threads start with a fresh contextvars context, so
                # the root span is handed over explicitly
                with obs.span("live.site", parent=root_ctx, s=s):
                    if coord is None:
                        _site_body(s, fabric)
                    else:
                        _site_body_rec(s, fabric)
            except Exception as exc:  # crash must not deadlock the barrier
                with err_lock:
                    errors.append(f"site {s} failed: {exc!r}")
                barrier.abort()
            finally:
                tok = watches.pop(s, None)
                if tok is not None:
                    obs.health().disarm(tok)

        def _site_body(s: int, fabric: MiddlewareFabric) -> None:
            st = stats[s]
            subnet1, _, own, ms1 = self._dse.sub1[s]
            subnet2, bmap2, xbuses, ext, ms2 = self._dse.sub2[s]
            nbrs = [int(b) for b in dec.neighbors(s)]
            publish = self._dse.exchange_sets[s]

            # local state, keyed by global bus index
            vm_loc = {int(b): 1.0 for b in own}
            va_loc = {int(b): 0.0 for b in own}
            known_vm: dict[int, float] = {}
            known_va: dict[int, float] = {}
            prev2 = None  # previous round's extended solution (warm start)
            lin0 = None  # frame linearization point (condensed mode)

            # ---- Step 1 ----
            with self._slot:
                t0 = time.perf_counter()
                with obs.span("live.step1", s=s):
                    est1 = (
                        self._dse._est1[s]
                        if self.use_cache
                        else WlsEstimator(subnet1, ms1, solver=self.solver)
                    )
                    z1 = self._dse._step1_z(s, z) if z is not None else None
                    res1 = est1.estimate(tol=tol, z=z1)
                st.step1_time = time.perf_counter() - t0
            for i, b in enumerate(own):
                vm_loc[int(b)] = float(res1.Vm[i])
                va_loc[int(b)] = float(res1.Va[i])

            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                return

            # ---- Step 2 rounds ----
            for r in range(rounds):
                tok = watches.get(s)
                if tok is not None:
                    obs.health().beat(tok)
                degraded_round = False
                with obs.span("live.exchange", s=s, round=r):
                    round_t1 = (
                        None
                        if self.round_deadline is None
                        else time.monotonic() + self.round_deadline
                    )
                    if self.condense:
                        # Per-neighbour condensed boundary blocks: each
                        # neighbour gets only the tie-endpoint buses its
                        # extended network reads.  Round 0 carries the bus
                        # ids; later rounds are values-only over the
                        # receiver's a-priori ordering.
                        parts = []
                        for nb in nbrs:
                            ids = self._dse._nbr_pub[s][nb]
                            parts.append((f"se{nb}", pack_condensed_update(
                                s, ids,
                                np.array([vm_loc[int(b)] for b in ids]),
                                np.array([va_loc[int(b)] for b in ids]),
                                values_only=r > 0,
                            )))
                    else:
                        payload = pack_state_update(
                            publish.astype(np.int64),
                            np.array([vm_loc[int(b)] for b in publish]),
                            np.array([va_loc[int(b)] for b in publish]),
                        )
                        parts = [(f"se{nb}", payload) for nb in nbrs]
                    # the whole neighbour burst rides one syscall on the
                    # fast plane (legacy falls back to per-pipeline sends);
                    # sending inside the span stamps the frames with this
                    # trace's context, so the router hop joins the trace
                    try:
                        fabric.send_many(f"se{s}", parts)
                        st.bytes_sent += sum(len(p) for _, p in parts)
                    except (MiddlewareError, ConnectionError, OSError) as exc:
                        # this site is cut off from the fabric; keep
                        # solving on last-known values, flag the round
                        with err_lock:
                            errors.append(
                                f"site {s} round {r}: send failed: {exc!r}"
                            )
                        degraded_round = True

                    for _ in nbrs:
                        timeout = self.recv_timeout
                        if round_t1 is not None:
                            remaining = round_t1 - time.monotonic()
                            if remaining <= 0:
                                with err_lock:
                                    errors.append(
                                        f"site {s} round {r}: "
                                        "round deadline exceeded"
                                    )
                                degraded_round = True
                                break
                            timeout = min(timeout, remaining)
                        try:
                            raw = fabric.recv(f"se{s}", timeout=timeout)
                        except TimeoutError:
                            with err_lock:
                                errors.append(
                                    f"site {s} round {r}: "
                                    "neighbour update timed out"
                                )
                            degraded_round = True
                            continue
                        except (ClientClosed, MiddlewareError) as exc:
                            with err_lock:
                                errors.append(
                                    f"site {s} round {r}: recv failed: "
                                    f"{exc!r}"
                                )
                            degraded_round = True
                            break
                        st.bytes_received += len(raw)
                        st.messages_received += 1
                        try:
                            # views over the wire buffer; values are copied
                            # into the known_* dicts below, so no aliasing
                            # escapes
                            if self.condense:
                                src_id, _vo, ids, vms, vas = (
                                    unpack_condensed_update(raw, copy=False)
                                )
                                if ids is None:
                                    # values-only frame: resolve the bus
                                    # ids from the shared a-priori
                                    # per-neighbour publication sets
                                    ids = self._dse._nbr_pub[int(src_id)][s]
                                    if len(ids) != len(vms):
                                        raise FrameError(
                                            "condensed update length "
                                            "mismatch"
                                        )
                            else:
                                ids, vms, vas = unpack_state_update(
                                    raw, copy=False
                                )
                        except (FrameError, ValueError, KeyError) as exc:
                            # corrupted in flight; the neighbour's update
                            # is lost for this round
                            with err_lock:
                                errors.append(
                                    f"site {s} round {r}: corrupt update: "
                                    f"{exc!r}"
                                )
                            degraded_round = True
                            continue
                        for b, vm_b, va_b in zip(ids, vms, vas):
                            known_vm[int(b)] = float(vm_b)
                            known_va[int(b)] = float(va_b)
                if degraded_round:
                    st.record_degraded(r)
                    if obs.enabled():
                        obs.metrics().counter(
                            "live.degraded_rounds_total"
                        ).inc()
                    if obs.health_enabled():
                        obs.health().frame_degraded(f"se{s}", round=r)

                # pseudo measurements at the external boundary buses we know
                ext_known = [int(b) for b in ext if int(b) in known_vm]
                cached_path = self.use_cache and len(ext_known) == len(ext)
                if cached_path:
                    # Full neighbour coverage: refill the cached merged
                    # structure's pseudo values instead of rebuilding.
                    est2, z_tmpl, rows_vm, rows_va, src, rows_ms2 = (
                        self._dse._step2_cache[s]
                    )
                    z2 = z_tmpl.copy()
                    if z is not None:
                        z2[rows_ms2] = self._dse._step2_meas_z(s, z)
                    z2[rows_vm] = [known_vm[int(b)] for b in src]
                    z2[rows_va] = [known_va[int(b)] for b in src]
                else:
                    from ..dse.pseudo import pseudo_measurements

                    pseudo = pseudo_measurements(
                        bmap2[np.array(ext_known, dtype=np.int64)]
                        if ext_known else np.zeros(0, np.int64),
                        np.array([known_vm[b] for b in ext_known]),
                        np.array([known_va[b] for b in ext_known]),
                    )
                    ms2_round = (
                        ms2.with_values(self._dse._step2_meas_z(s, z))
                        if z is not None
                        else ms2
                    )
                    est2 = WlsEstimator(
                        subnet2, ms2_round.merged_with(pseudo), solver=self.solver
                    )
                    z2 = None

                if prev2 is not None:
                    # Warm start from the previous round's extended solve,
                    # with the external boundary refreshed from the latest
                    # neighbour publications — the same schedule as
                    # DistributedStateEstimator's warm_start path.
                    x0_vm = prev2.Vm.copy()
                    x0_va = prev2.Va.copy()
                    if ext_known:
                        idx = bmap2[np.array(ext_known, dtype=np.int64)]
                        x0_vm[idx] = [known_vm[b] for b in ext_known]
                        x0_va[idx] = [known_va[b] for b in ext_known]
                else:
                    x0_vm = np.ones(len(xbuses))
                    x0_va = np.zeros(len(xbuses))
                    for i, b in enumerate(xbuses):
                        b = int(b)
                        if b in vm_loc:
                            x0_vm[i], x0_va[i] = vm_loc[b], va_loc[b]
                        elif b in known_vm:
                            x0_vm[i], x0_va[i] = known_vm[b], known_va[b]
                    if self.condense:
                        # Round 0's start is the frame's Step-1 publication
                        # over the extended network — the same history-free
                        # linearization point the in-process DSE condenses
                        # at, so the operators (and the results) match.
                        lin0 = (x0_vm.copy(), x0_va.copy())

                kwargs = (
                    {"lin_point": lin0}
                    if self.condense and cached_path and lin0 is not None
                    else {}
                )
                with self._slot:
                    t0 = time.perf_counter()
                    with obs.span("live.step2", s=s, round=r):
                        res2 = est2.estimate(
                            x0=(x0_vm, x0_va), tol=tol, z=z2, **kwargs
                        )
                    st.step2_times.append(time.perf_counter() - t0)
                prev2 = res2

                scope = self._dse.exchange_sets[s]
                local = bmap2[scope]
                for g, l in zip(scope, local):
                    vm_loc[int(g)] = float(res2.Vm[l])
                    va_loc[int(g)] = float(res2.Va[l])

                try:
                    barrier.wait()
                except threading.BrokenBarrierError:
                    return

            with result_lock:
                for b in own:
                    Vm[b] = vm_loc[int(b)]
                    Va[b] = va_loc[int(b)]

        def _make_ckpt(w: _HostedSub, site_idx: int, rnd: int):
            own_ = self._dse.sub1[w.s][2]
            own_ids = np.asarray(own_, dtype=np.int64)
            return SubsystemCheckpoint(
                subsystem=w.s, site=site_idx, epoch=coord.epoch, round=rnd,
                own_ids=own_ids,
                own_vm=np.array([w.vm_loc[int(b)] for b in own_ids]),
                own_va=np.array([w.va_loc[int(b)] for b in own_ids]),
                warm_vm=None if w.prev2 is None else np.asarray(w.prev2[0], float),
                warm_va=None if w.prev2 is None else np.asarray(w.prev2[1], float),
                lin_vm=None if w.lin0 is None else w.lin0[0],
                lin_va=None if w.lin0 is None else w.lin0[1],
            )

        def _site_body_rec(s: int, fabric: MiddlewareFabric) -> None:
            # Recovery-aware variant of _site_body: a site can host more
            # than one subsystem after failover, addresses frames by the
            # coordinator's live subsystem→site binding, and replicates a
            # checkpoint per hosted subsystem every round.  Numerics per
            # subsystem are identical to the base path.
            me = f"se{s}"
            st = stats[s]
            subnet1, _, own, ms1 = self._dse.sub1[s]

            w = _HostedSub(s)
            w.vm_loc = {int(b): 1.0 for b in own}
            w.va_loc = {int(b): 0.0 for b in own}
            hosted: dict[int, _HostedSub] = {s: w}
            nbrs_of = {s: [int(b) for b in dec.neighbors(s)]}
            known_vm: dict[int, float] = {}
            known_va: dict[int, float] = {}

            # ---- Step 1 ----
            with self._slot:
                t0 = time.perf_counter()
                with obs.span("live.step1", s=s):
                    est1 = self._dse._est1[s]  # recovery requires use_cache
                    z1 = self._dse._step1_z(s, z) if z is not None else None
                    res1 = est1.estimate(tol=tol, z=z1)
                st.step1_time = time.perf_counter() - t0
            for i, b in enumerate(own):
                w.vm_loc[int(b)] = float(res1.Vm[i])
                w.va_loc[int(b)] = float(res1.Va[i])

            # Bootstrap replica seed (round -1), handed to the coordinator
            # before the first barrier: a replica exists before any data
            # frame can kill a site, and before any ordering race on the
            # hub — per-round checkpoints ride the fabric from round 0 on.
            succ = coord.successor(s)
            if succ is not None:
                coord.ingest(succ, _make_ckpt(w, s, -1).to_payload())

            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                return

            # ---- Step 2 rounds ----
            for r in range(rounds):
                tok = watches.get(s)
                if tok is not None:
                    obs.health().beat(tok)
                for ck in coord.begin_round(me, r):
                    nw = _HostedSub.from_checkpoint(ck)
                    hosted[nw.s] = nw
                    nbrs_of[nw.s] = [int(b) for b in dec.neighbors(nw.s)]
                    st.promoted_subsystems.append(nw.s)
                    if obs.health_enabled():
                        obs.health().site_recovered(
                            me, subsystem=nw.s, round=r,
                            checkpoint_round=ck.round,
                        )
                # shed subsystems promoted away from us: our lease expired
                # while we were cut off, and the hub now fences our frames
                for s_ in [k for k in hosted if not coord.owns(me, k)]:
                    hosted.pop(s_)
                if not hosted:
                    # passive zombie: nothing left to solve; keep the
                    # barrier cadence so the lockstep schedule holds
                    try:
                        barrier.wait()
                    except threading.BrokenBarrierError:
                        return
                    continue

                # Lease beat to every live peer: checkpoints reach only
                # the ring successor, so a lease riding on them alone
                # would starve the moment that successor died.
                hb = heartbeat_payload(s, coord.epoch, r)
                for peer in names:
                    if peer == me or coord.is_lost(peer):
                        continue
                    try:
                        fabric.send_checkpoint(me, peer, hb, epoch=coord.epoch)
                    except (MiddlewareError, ConnectionError, OSError):
                        pass  # a dead peer's inbox is not our liveness

                degraded_round = False
                with obs.span("live.exchange", s=s, round=r):
                    round_t1 = (
                        None
                        if self.round_deadline is None
                        else time.monotonic() + self.round_deadline
                    )
                    parts = []
                    for s_, ws in sorted(hosted.items()):
                        for nb in nbrs_of[s_]:
                            dst = coord.site_of(nb)
                            if self.condense:
                                ids = self._dse._nbr_pub[s_][nb]
                                vals = (
                                    np.array([ws.vm_loc[int(b)] for b in ids]),
                                    np.array([ws.va_loc[int(b)] for b in ids]),
                                )
                            else:
                                ids = self._dse.exchange_sets[s_]
                                vals = (
                                    np.array([ws.vm_loc[int(b)] for b in ids]),
                                    np.array([ws.va_loc[int(b)] for b in ids]),
                                )
                            if dst == me:
                                # co-hosted neighbour: absorb locally
                                # (self-pairs are not wired on the fabric)
                                for b, vm_b, va_b in zip(ids, *vals):
                                    known_vm[int(b)] = float(vm_b)
                                    known_va[int(b)] = float(va_b)
                                continue
                            if self.condense:
                                # ids ride every round in recovery mode: a
                                # frame must stay self-describing when the
                                # receiving host changes under failover
                                payload = pack_condensed_update(
                                    s_, ids, vals[0], vals[1],
                                    values_only=False,
                                )
                            else:
                                payload = pack_state_update(
                                    ids.astype(np.int64), vals[0], vals[1]
                                )
                            parts.append((dst, payload))
                    try:
                        fabric.send_many(me, parts, epoch=coord.epoch)
                        st.bytes_sent += sum(len(p) for _, p in parts)
                    except (MiddlewareError, ConnectionError, OSError) as exc:
                        with err_lock:
                            errors.append(
                                f"site {s} round {r}: send failed: {exc!r}"
                            )
                        degraded_round = True

                    expected = sum(
                        1
                        for s_ in hosted
                        for nb in nbrs_of[s_]
                        if coord.site_of(nb) != me
                    )
                    for _ in range(expected):
                        timeout = self.recv_timeout
                        if round_t1 is not None:
                            remaining = round_t1 - time.monotonic()
                            if remaining <= 0:
                                with err_lock:
                                    errors.append(
                                        f"site {s} round {r}: "
                                        "round deadline exceeded"
                                    )
                                degraded_round = True
                                break
                            timeout = min(timeout, remaining)
                        try:
                            raw = fabric.recv(me, timeout=timeout)
                        except TimeoutError:
                            with err_lock:
                                errors.append(
                                    f"site {s} round {r}: "
                                    "neighbour update timed out"
                                )
                            degraded_round = True
                            continue
                        except (ClientClosed, MiddlewareError) as exc:
                            with err_lock:
                                errors.append(
                                    f"site {s} round {r}: recv failed: "
                                    f"{exc!r}"
                                )
                            degraded_round = True
                            break
                        st.bytes_received += len(raw)
                        st.messages_received += 1
                        try:
                            if self.condense:
                                _src, _vo, ids, vms, vas = (
                                    unpack_condensed_update(raw, copy=False)
                                )
                                if ids is None:
                                    raise FrameError(
                                        "values-only condensed frame in "
                                        "recovery mode"
                                    )
                            else:
                                ids, vms, vas = unpack_state_update(
                                    raw, copy=False
                                )
                        except (FrameError, ValueError, KeyError) as exc:
                            with err_lock:
                                errors.append(
                                    f"site {s} round {r}: corrupt update: "
                                    f"{exc!r}"
                                )
                            degraded_round = True
                            continue
                        for b, vm_b, va_b in zip(ids, vms, vas):
                            known_vm[int(b)] = float(vm_b)
                            known_va[int(b)] = float(va_b)
                if degraded_round:
                    st.record_degraded(r)
                    if obs.enabled():
                        obs.metrics().counter(
                            "live.degraded_rounds_total"
                        ).inc()
                    if obs.health_enabled():
                        obs.health().frame_degraded(me, round=r)

                for s_, ws in sorted(hosted.items()):
                    subnet2, bmap2, xbuses, ext, ms2 = self._dse.sub2[s_]
                    ext_known = [int(b) for b in ext if int(b) in known_vm]
                    cached_path = len(ext_known) == len(ext)
                    if cached_path:
                        est2, z_tmpl, rows_vm, rows_va, src, rows_ms2 = (
                            self._dse._step2_cache[s_]
                        )
                        z2 = z_tmpl.copy()
                        if z is not None:
                            z2[rows_ms2] = self._dse._step2_meas_z(s_, z)
                        z2[rows_vm] = [known_vm[int(b)] for b in src]
                        z2[rows_va] = [known_va[int(b)] for b in src]
                    else:
                        from ..dse.pseudo import pseudo_measurements

                        pseudo = pseudo_measurements(
                            bmap2[np.array(ext_known, dtype=np.int64)]
                            if ext_known else np.zeros(0, np.int64),
                            np.array([known_vm[b] for b in ext_known]),
                            np.array([known_va[b] for b in ext_known]),
                        )
                        ms2_round = (
                            ms2.with_values(self._dse._step2_meas_z(s_, z))
                            if z is not None
                            else ms2
                        )
                        est2 = WlsEstimator(
                            subnet2, ms2_round.merged_with(pseudo),
                            solver=self.solver,
                        )
                        z2 = None

                    if ws.prev2 is not None:
                        x0_vm = ws.prev2[0].copy()
                        x0_va = ws.prev2[1].copy()
                        if ext_known:
                            idx = bmap2[np.array(ext_known, dtype=np.int64)]
                            x0_vm[idx] = [known_vm[b] for b in ext_known]
                            x0_va[idx] = [known_va[b] for b in ext_known]
                    else:
                        x0_vm = np.ones(len(xbuses))
                        x0_va = np.zeros(len(xbuses))
                        for i, b in enumerate(xbuses):
                            b = int(b)
                            if b in ws.vm_loc:
                                x0_vm[i], x0_va[i] = ws.vm_loc[b], ws.va_loc[b]
                            elif b in known_vm:
                                x0_vm[i], x0_va[i] = known_vm[b], known_va[b]
                        if self.condense:
                            ws.lin0 = (x0_vm.copy(), x0_va.copy())

                    kwargs = (
                        {"lin_point": ws.lin0}
                        if self.condense and cached_path and ws.lin0 is not None
                        else {}
                    )
                    with self._slot:
                        t0 = time.perf_counter()
                        with obs.span("live.step2", s=s_, round=r):
                            res2 = est2.estimate(
                                x0=(x0_vm, x0_va), tol=tol, z=z2, **kwargs
                            )
                        st.step2_times.append(time.perf_counter() - t0)
                    ws.prev2 = (res2.Vm, res2.Va)

                    scope = self._dse.exchange_sets[s_]
                    local = bmap2[scope]
                    for g, l in zip(scope, local):
                        ws.vm_loc[int(g)] = float(res2.Vm[l])
                        ws.va_loc[int(g)] = float(res2.Va[l])

                # ---- checkpoint replication ----
                if r % recovery.checkpoint_every == 0:
                    for s_, ws in sorted(hosted.items()):
                        succ = coord.successor(s_)
                        if succ is None or succ == me:
                            continue
                        pay = _make_ckpt(ws, s, r).to_payload()
                        try:
                            fabric.send_checkpoint(
                                me, succ, pay, epoch=coord.epoch
                            )
                        except (MiddlewareError, ConnectionError, OSError) as exc:
                            with err_lock:
                                errors.append(
                                    f"site {s} round {r}: checkpoint send "
                                    f"failed: {exc!r}"
                                )
                            continue
                        st.checkpoints_sent += 1
                        st.checkpoint_bytes += len(pay)
                        if obs.enabled():
                            m = obs.metrics()
                            m.counter("recovery.checkpoints_sent_total").inc()
                            m.counter(
                                "recovery.checkpoint_bytes_total"
                            ).inc(len(pay))

                try:
                    barrier.wait()
                except threading.BrokenBarrierError:
                    return

            with result_lock:
                for s_, ws in hosted.items():
                    for b in self._dse.sub1[s_][2]:
                        Vm[b] = ws.vm_loc[int(b)]
                        Va[b] = ws.va_loc[int(b)]

        if coord is not None:
            # this frame's replica sinks + zombie fence must be live before
            # the first site can send a frame
            for name in names:
                fabric.set_checkpoint_sink(
                    name, lambda p, _n=name: coord.ingest(_n, p)
                )
            fabric.set_epoch_fence(coord.fence)
        with obs.span(
            "live.run", m=dec.m, rounds=rounds,
            tcp=self.use_tcp, fast=self.fast,
        ):
            root_ctx = obs.current_context()
            wall_t0 = time.perf_counter()
            deployment.run_frame(site)
            wall_elapsed = time.perf_counter() - wall_t0
        if coord is not None:
            deployment.epoch0 = coord.epoch + 1

        if obs.enabled():
            reg = obs.metrics()
            reg.counter("live.runs_total").inc()
            reg.histogram("live.run.seconds").observe(wall_elapsed)

        return LiveDseResult(
            Vm=Vm, Va=Va, rounds=rounds, wall_time=wall_elapsed,
            sites=stats, errors=errors,
            degraded={
                s: list(st.degraded_rounds)
                for s, st in stats.items()
                if st.degraded_rounds
            },
            recovered_subsystems=sorted(coord.recovered) if coord else [],
            lost_sites=(
                sorted(int(n[2:]) for n in coord.lost_sites) if coord else []
            ),
        )

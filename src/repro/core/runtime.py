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

The sites share one interpreter, as the paper's subsystems share a cluster
node, so they share its solve too: at each barrier of the lockstep schedule
every site deposits the jobs its stepper built from its own view, and the
barrier's action solves them all with one
:func:`~repro.dse.stepper.solve_stage` call — on a clean frame one stacked
Gauss-Newton loop per stage, the in-process estimator's own — and hands
each site its results before any thread is released.
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
from ..dse.algorithm import DistributedStateEstimator, check_run_args
from ..dse.decomposition import Decomposition
from ..dse.stepper import SolveFailure, SubsystemStepper, solve_stage
from ..estimation.results import state_error
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

__all__ = ["LiveSiteStats", "LiveDseResult", "LiveDseRuntime", "pack_update"]

#: per-site cap on retained degraded-round indices (the full count lives
#: in ``degraded_total``) — a week-long soak stays O(1) memory per site
DEGRADED_ROUNDS_RETAINED = 64


@dataclass
class LiveSiteStats:
    """Per-site execution record."""

    s: int
    #: this site's share of each stage's combined solve (Step 1, then one
    #: per Step-2 round it solved): its subsystems' ``Nb × Ni`` apportioned
    #: shares of a stacked loop, or their own solve times when the stage
    #: ran job by job
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


def pack_update(form: str, src: int, ids, vm, va, *, values_only: bool = False):
    """One publication-plan entry in its wire form: a ``"state"`` update
    (ids, Vm, Va) or a ``"condensed"`` boundary block (source subsystem,
    ids unless ``values_only``, Vm, Va)."""
    if form == "condensed":
        return pack_condensed_update(src, ids, vm, va, values_only=values_only)
    return pack_state_update(ids, vm, va)


def unpack_update(form: str, raw) -> tuple:
    """Inverse of :func:`pack_update`: ``(src, ids, Vm, Va)`` as views over
    ``raw`` (the caller copies what it keeps).  ``src`` is ``None`` for a
    state update, ``ids`` is ``None`` for a values-only condensed block;
    a malformed buffer raises :class:`~repro.middleware.message.FrameError`."""
    if form == "condensed":
        src, _values_only, ids, vm, va = unpack_condensed_update(raw, copy=False)
        return src, ids, vm, va
    return (None, *unpack_state_update(raw, copy=False))


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
        return state_error(self.Vm, self.Va, Vm_true, Va_true)


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

    def __init__(self, names, pairs, *, use_tcp: bool):
        self.fabric = MiddlewareFabric(names, pairs, use_tcp=use_tcp)
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

    Each site is a transport shell around a
    :class:`~repro.dse.stepper.SubsystemStepper` hosting its subsystem over
    one shared :class:`~repro.dse.algorithm.DistributedStateEstimator`'s
    warm subproblem store: the stepper owns the numerics and the schedule,
    the shell owns the sends and receives, the deadlines, the barriers and
    — in recovery mode — the lease beats, the checkpoint replication and
    the promotions.  A round in which a site missed a neighbour is solved
    on the site's cached estimator, with that neighbour's pseudo
    measurements at weight 0.

    The runtime is a *resident deployment*: the fabric (hub, links) and the
    site threads are started on the first :meth:`run` and serve every later
    frame; a frame that ends unclean (any error, degraded round, lost site,
    fired fault) retires them, so the next frame starts on a fresh
    deployment and can never absorb a stale update.  One solve per
    barrier: each site builds its stage's jobs from its own view and
    waits on the barrier, whose action solves every site's jobs at once
    (:func:`~repro.dse.stepper.solve_stage`: one stacked loop when they
    name each subsystem once and agree on the linearisation, job by job in
    subsystem order otherwise) and applies each result to its site's
    stepper; a failed solve is its owning site's error and breaks the
    barrier.  :meth:`close` (or leaving the ``with`` block, or dropping the
    last reference) stops the deployment.

    Parameters
    ----------
    dec, mset:
        The decomposition and the system-wide measurement snapshot (each
        site only ever touches its own assigned rows).
    use_tcp:
        A real localhost TCP hub instead of in-process queues.
    sensitivity_threshold:
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
    condense:
        Condensed Step 2 (see
        :class:`~repro.dse.algorithm.DistributedStateEstimator`): each
        site solves the boundary-condensed system and the wire carries
        compact per-neighbour boundary blocks
        (:func:`~repro.middleware.message.pack_condensed_update`) — bus
        ids ride only the round-0 frames, later rounds are values-only
        over the receiver's a-priori ordering.
    recovery:
        Self-healing mode (a :class:`~repro.cluster.recovery.RecoveryConfig`;
        ``None`` — the default — is bitwise-inert): every round each site
        replicates a compact checkpoint of each subsystem it hosts to the
        subsystem's hash-ring successor over ``FLAG_CHECKPOINT`` frames;
        a site whose checkpoints stop arriving for ``lease_rounds``
        rounds is declared lost, its subsystems are promoted onto the
        successors holding their replicas, and the mux hub fences the
        zombie's epoch-stamped frames so it can never corrupt a
        post-failover round.
    """

    def __init__(
        self,
        dec: Decomposition,
        mset: MeasurementSet,
        *,
        use_tcp: bool = False,
        sensitivity_threshold: float = 0.5,
        recv_timeout: float = 10.0,
        round_deadline: float | None = None,
        condense: bool = False,
        recovery: RecoveryConfig | None = None,
    ):
        # The in-process DSE's subproblem construction and checks; every
        # site's stepper borrows its per-subsystem estimator caches.
        self._dse = DistributedStateEstimator(
            dec, mset, sensitivity_threshold=sensitivity_threshold,
            condense=condense,
        )
        self.dec = dec
        self.recv_timeout = recv_timeout
        self.round_deadline = round_deadline
        self.use_tcp = use_tcp
        self.condense = condense
        self.recovery = recovery
        #: one frame at a time per runtime (also guards the lifecycle)
        self._run_lock = threading.Lock()
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
            # The stacked estimators the barriers solve on outlive every
            # deployment: build them here, in the deploying thread.  glibc
            # keeps a freed block in the arena of the thread that
            # allocated it, and these arrays built by whichever site
            # thread ran the first barrier cost the IEEE-118 live
            # workload +8 % peak RSS over a set-up cycle (+3 % built here).
            for stage in ("step1", "step2"):
                self._dse._stack(stage)
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
            dep = _Deployment(names, pairs, use_tcp=self.use_tcp)
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
        weights: np.ndarray | None = None,
    ) -> LiveDseResult:
        """Execute one live distributed estimation on the resident
        deployment (concurrent callers take turns).

        ``z`` optionally overrides the system-wide measured values
        (canonical order of the constructor's ``mset``) — a values-only
        frame over the warm site estimators — and ``weights`` the row
        weights (a zero removes the row from every site's solves),
        mirroring :meth:`repro.dse.algorithm.DistributedStateEstimator.run`.
        """
        check_run_args(rounds, tol)
        if rounds is None:
            rounds = max(1, self.dec.diameter())
        z = self._dse._frame_z(z)
        weights = self._dse._frame_weights(weights)
        with self._run_lock:
            if self._closed:
                raise RuntimeError("LiveDseRuntime is closed")
            inj = faults.active()
            fired0 = inj.total_fired() if inj is not None else 0
            try:
                result = self._run_frame(self._deploy(), rounds, tol, z, weights)
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
        z: np.ndarray | None, weights: np.ndarray | None,
    ) -> LiveDseResult:
        """One frame on ``deployment``: everything here is per frame."""
        dec, dse = self.dec, self._dse
        net = dec.net
        fabric = deployment.fabric
        names = fabric.names
        recovery = self.recovery
        form = "condensed" if self.condense else "state"

        Vm = np.ones(net.n_bus)
        Va = np.zeros(net.n_bus)
        stats = {s: LiveSiteStats(s=s) for s in range(dec.m)}
        errors: list[str] = []
        err_lock = threading.Lock()
        # Each site writes only the buses it hosts; reads of neighbour
        # values happen via the wire, never via these arrays.
        result_lock = threading.Lock()
        coord: RecoveryCoordinator | None = None
        if recovery is not None:
            coord = RecoveryCoordinator(
                sites={name: i for i, name in enumerate(names)},
                hosted={f"se{s}": [s] for s in range(dec.m)},
                config=recovery, epoch0=deployment.epoch0,
            )

        def checkpoint(site: int, stepper, s_: int, rnd: int) -> bytes:
            return SubsystemCheckpoint(
                subsystem=s_, site=site, epoch=coord.epoch, round=rnd,
                **stepper.checkpoint(s_),
            ).to_payload()

        # One solve per barrier: before each barrier every site that hosts
        # something deposits its stepper and the stage's jobs, and the
        # barrier's action solves them all and applies the results
        stages = iter([("step1", None)] + [("step2", r) for r in range(rounds)])
        deposits: dict[int, tuple[SubsystemStepper, list]] = {}

        def solve_deposits() -> None:
            stage, rnd = next(stages)
            sites = sorted(deposits)
            jobs = [job for s in sites for job in deposits[s][1]]
            with obs.span("live.solve", parent=root_ctx, stage=stage, round=rnd):
                solved = solve_stage(dse, stage, jobs, tol, degrade=True)
            per_site, k = [], 0
            for s in sites:
                stepper, mine = deposits.pop(s)
                per_site.append((s, stepper, solved[k:k + len(mine)]))
                k += len(mine)
            failed = [
                f"site {s} failed: {res.message}"
                for s, _, part in per_site
                for res, _, _ in part
                if isinstance(res, SolveFailure)
            ]
            if failed:
                with err_lock:
                    errors.extend(failed)
                # a broken barrier: every site, this one included, leaves
                raise threading.BrokenBarrierError
            for s, stepper, part in per_site:
                busy = sum(dt for _, dt, _ in part)
                if stage == "step1":
                    stepper.apply_step1(part)
                    stats[s].step1_time = busy
                    if coord is not None:
                        # Bootstrap replica seed (round -1), ingested before
                        # any site is released: a replica exists before any
                        # data frame can kill a site, and before any
                        # ordering race on the hub — per-round checkpoints
                        # ride the fabric from round 0 on.
                        succ = coord.successor(s)
                        if succ is not None:
                            coord.ingest(succ, checkpoint(s, stepper, s, -1))
                else:
                    stepper.apply_step2(rnd, part)
                    stats[s].step2_times.append(busy)

        barrier = threading.Barrier(dec.m, action=solve_deposits)
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
                    site_body(s)
            except Exception as exc:  # crash must not deadlock the barrier
                with err_lock:
                    errors.append(f"site {s} failed: {exc!r}")
                barrier.abort()
            finally:
                tok = watches.pop(s, None)
                if tok is not None:
                    obs.health().disarm(tok)

        def site_body(s: int) -> None:
            # The transport shell of one site.  Without recovery it hosts
            # subsystem ``s`` for the whole frame and its neighbours sit at
            # fixed addresses; with recovery the coordinator steps below
            # let it adopt a lost peer's subsystems (or shed its own) and
            # address every frame by the live subsystem → site binding.
            me = f"se{s}"
            st = stats[s]
            stepper = SubsystemStepper(dse, [s], tol=tol, z=z, weights=weights)

            def fail(r: int, what: str) -> None:
                with err_lock:
                    errors.append(f"site {s} round {r}: {what}")

            # ---- Step 1 (solved by the barrier) ----
            deposits[s] = (stepper, stepper.step1_jobs())
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                return

            # ---- Step 2 rounds ----
            for r in range(rounds):
                tok = watches.get(s)
                if tok is not None:
                    obs.health().beat(tok)
                if coord is not None:
                    for ck in coord.begin_round(me, r):
                        stepper.adopt(ck)
                        st.promoted_subsystems.append(ck.subsystem)
                        if obs.health_enabled():
                            obs.health().site_recovered(
                                me, subsystem=ck.subsystem, round=r,
                                checkpoint_round=ck.round,
                            )
                    # shed subsystems promoted away from us: our lease
                    # expired while we were cut off, and the hub now
                    # fences our frames
                    for s_ in [k for k in stepper.hosted if not coord.owns(me, k)]:
                        stepper.shed(s_)
                    if not stepper.hosted:
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
                    # Condensed blocks carry their bus ids on round 0 and
                    # are values-only over the receiver's a-priori ordering
                    # afterwards — except in recovery mode, where a frame
                    # must stay self-describing when the receiving host
                    # changes under failover.
                    values_only = coord is None and r > 0
                    parts = [
                        (
                            f"se{nb}" if coord is None else coord.site_of(nb),
                            pack_update(
                                wire, s_, ids, vm, va, values_only=values_only
                            ),
                        )
                        for s_, nb, ids, vm, va, wire in stepper.publications()
                    ]
                    # the whole neighbour burst rides one syscall; sending
                    # inside the span stamps the frames with this trace's
                    # context, so the router hop joins the trace
                    try:
                        fabric.send_many(
                            me, parts,
                            epoch=None if coord is None else coord.epoch,
                        )
                        st.bytes_sent += sum(len(p) for _, p in parts)
                    except (MiddlewareError, ConnectionError, OSError) as exc:
                        # this site is cut off from the fabric; keep
                        # solving on last-known values, flag the round
                        fail(r, f"send failed: {exc!r}")
                        degraded_round = True

                    # one update back per update out (stepper.publications)
                    for _ in parts:
                        timeout = self.recv_timeout
                        if round_t1 is not None:
                            remaining = round_t1 - time.monotonic()
                            if remaining <= 0:
                                fail(r, "round deadline exceeded")
                                degraded_round = True
                                break
                            timeout = min(timeout, remaining)
                        try:
                            raw = fabric.recv(me, timeout=timeout)
                        except TimeoutError:
                            fail(r, "neighbour update timed out")
                            degraded_round = True
                            continue
                        except (ClientClosed, MiddlewareError) as exc:
                            fail(r, f"recv failed: {exc!r}")
                            degraded_round = True
                            break
                        st.bytes_received += len(raw)
                        st.messages_received += 1
                        try:
                            src, ids, vms, vas = unpack_update(form, raw)
                            if ids is None:
                                if coord is not None:
                                    raise FrameError(
                                        "values-only condensed frame in "
                                        "recovery mode"
                                    )
                                # resolve the bus ids from the shared
                                # a-priori publication plan
                                ids = dse.publication_plan[src][s][0]
                                if len(ids) != len(vms):
                                    raise FrameError(
                                        "condensed update length mismatch"
                                    )
                            stepper.absorb(ids, vms, vas)
                        except (FrameError, ValueError, KeyError) as exc:
                            # corrupted in flight; the neighbour's update
                            # is lost for this round
                            fail(r, f"corrupt update: {exc!r}")
                            degraded_round = True
                if degraded_round:
                    st.record_degraded(r)
                    if obs.enabled():
                        obs.metrics().counter(
                            "live.degraded_rounds_total"
                        ).inc()
                    if obs.health_enabled():
                        obs.health().frame_degraded(me, round=r)

                # ---- Step 2 round r (solved by the barrier) ----
                deposits[s] = (stepper, stepper.step2_jobs(r))
                try:
                    barrier.wait()
                except threading.BrokenBarrierError:
                    return

                # ---- checkpoint replication ----
                if coord is not None and r % recovery.checkpoint_every == 0:
                    for s_ in stepper.hosted:
                        succ = coord.successor(s_)
                        if succ is None or succ == me:
                            continue
                        pay = checkpoint(s, stepper, s_, r)
                        try:
                            fabric.send_checkpoint(
                                me, succ, pay, epoch=coord.epoch
                            )
                        except (MiddlewareError, ConnectionError, OSError) as exc:
                            fail(r, f"checkpoint send failed: {exc!r}")
                            continue
                        st.checkpoints_sent += 1
                        st.checkpoint_bytes += len(pay)
                        if obs.enabled():
                            m = obs.metrics()
                            m.counter("recovery.checkpoints_sent_total").inc()
                            m.counter(
                                "recovery.checkpoint_bytes_total"
                            ).inc(len(pay))

            with result_lock:
                for s_ in stepper.hosted:
                    own = dse.sub1[s_][2]
                    Vm[own] = stepper.Vm[own]
                    Va[own] = stepper.Va[own]

        if coord is not None:
            # this frame's replica sinks + zombie fence must be live before
            # the first site can send a frame
            for name in names:
                fabric.set_checkpoint_sink(
                    name, lambda p, _n=name: coord.ingest(_n, p)
                )
            fabric.set_epoch_fence(coord.fence)
        with obs.span("live.run", m=dec.m, rounds=rounds, tcp=self.use_tcp):
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

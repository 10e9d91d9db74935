"""The two-step round engine: one transport-free stepper per host.

A :class:`SubsystemStepper` hosts a *set* of subsystems over a
:class:`~repro.dse.algorithm.DistributedStateEstimator`'s subproblem store
and owns the whole Step-1 / exchange / Step-2 schedule for them.  It never
touches a socket, a thread or a barrier: whoever drives it moves
:meth:`~SubsystemStepper.publications` to the other hosts and hands what
arrives to :meth:`~SubsystemStepper.absorb`.

- The in-process estimator is one stepper hosting all ``m`` subsystems;
  every neighbour is co-hosted, so nothing is published or absorbed.
- A live site (:mod:`repro.core.runtime`) is a transport shell around a
  stepper hosting its share; failover is :meth:`~SubsystemStepper.adopt`
  on the successor and :meth:`~SubsystemStepper.shed` on the fenced host.

Each stage is built, solved and applied in three moves —
:meth:`~SubsystemStepper.step1_jobs` / :meth:`~SubsystemStepper.step2_jobs`,
:func:`solve_stage`, :meth:`~SubsystemStepper.apply_step1` /
:meth:`~SubsystemStepper.apply_step2` — so one solve can serve several
steppers: :meth:`~SubsystemStepper.step1` and
:meth:`~SubsystemStepper.step2_round` chain them for one host, and the live
runtime pools every site's jobs of a stage into one :func:`solve_stage`
call at the barrier the sites already wait on.  Whenever the jobs name each
of the ``m`` subsystems once and agree on their linearisation, that call is
one stacked Gauss-Newton loop.

The host's view of the published state is two global-length arrays and a
``known`` mask.  Hosted subsystems write their own buses into them (which
is how co-hosted neighbours exchange by reference), absorbed updates write
the neighbours'; a bus nobody was heard from stays flat (1.0 pu, 0 rad) —
the degraded start a cut-off site has always used.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .. import obs
from ..estimation.results import EstimationResult
from ..estimation.wls import WlsEstimator
from ..parallel import SerialExecutor, worker_context
from .condensation import frozen_round
from .pseudo import pseudo_measurements

__all__ = ["SolveFailure", "SubsystemRecord", "SubsystemStepper", "solve_stage"]


@dataclass
class SubsystemRecord:
    """Per-subsystem execution record for one DSE run."""

    s: int
    n_buses: int
    n_boundary: int
    n_sensitive: int
    step1_result: EstimationResult | None = None
    step2_results: list[EstimationResult] = field(default_factory=list)
    step1_time: float = 0.0
    step2_times: list[float] = field(default_factory=list)
    bytes_sent_per_round: list[int] = field(default_factory=list)
    #: a solve failed and the subsystem fell back to its prior state
    #: (only possible with ``degrade_on_failure=True``)
    degraded: bool = False
    failures: list[str] = field(default_factory=list)
    #: Step 2 ran in condensed (Schur-complement) mode
    condensed: bool = False
    #: states in the condensed boundary block / eliminated interior block
    n_boundary_states: int = 0
    n_interior_states: int = 0
    #: wall time spent condensing the gain operator (in-process executors;
    #: process-pool factorizations happen inside the warm workers)
    factor_time: float = 0.0

    @property
    def exchange_size(self) -> int:
        """Buses this subsystem publishes (boundary + sensitive internal)."""
        return self.n_boundary + self.n_sensitive


@dataclass(frozen=True)
class SolveFailure:
    """Picklable stand-in result for a per-subsystem solve that raised
    while failures were being collected rather than raised (see
    :func:`solve_stage`)."""

    message: str


def _cached_estimator(dse, stage: str, s: int):
    return dse._est1[s] if stage == "step1" else dse._step2_cache[s][0]


def _timed_solve(span, stage, s, build, x0, z, w, lin, tol, degrade) -> tuple:
    """One subsystem solve under its span: ``(result or failure, seconds)``.

    ``build()`` returns the estimator — the cached one, or a new one whose
    construction cost belongs to the solve it serves.
    """
    kwargs = {} if lin is None else {"lin_point": lin}
    t0 = time.perf_counter()
    with span(f"dse.{stage}.subsystem", s=s):
        est = build()
        try:
            res = est.estimate(x0=x0, tol=tol, z=z, weights=w, **kwargs)
        except Exception as exc:
            if not degrade:
                raise
            res = SolveFailure(repr(exc))
    return res, time.perf_counter() - t0


def _solve_task(args):
    """Process-pool side of a solve: the warm estimators live inside the
    worker's own DSE instance (see ``algorithm._dse_worker_state``), so a
    task carries only the frame's vectors, a start and a tolerance.

    The linearization point travels with every Step-2 task (not just the
    first) because a worker may first touch subsystem ``s`` on any round —
    the condensed operator must not depend on call history.
    """
    key, stage, s, x0, z, w, lin, tol, octx, degrade = args
    rec = obs.remote_recorder(octx)
    build = partial(_cached_estimator, worker_context(key), stage, s)
    res, dt = _timed_solve(rec.span, stage, s, build, x0, z, w, lin, tol, degrade)
    return res, dt, rec.export()


def _count_degraded_solve() -> None:
    if obs.enabled():
        obs.metrics().counter("dse.degraded_solves_total").inc()


class SubsystemStepper:
    """One frame of the two-step schedule for the subsystems one host owns.

    Parameters
    ----------
    dse:
        The estimator whose subproblem store (``sub1``/``sub2``, the cached
        estimators, the values-only indices, the publication plan) the
        stepper borrows; it builds no estimator of its own unless the
        estimator keeps none (``reuse_structures=False``).
    hosted:
        Subsystem ids this host solves.
    tol, z, weights, x0:
        The frame: solve tolerance, optional values-only measurement
        vector and row weights (validated by the caller) and optional
        system-wide tracking start for Step 1.

    One frame is ``step1()``, then per round: move ``publications()`` to
    the other hosts, ``absorb()`` what arrives, ``step2_round(rnd)``.
    Each of the two is ``*_jobs()``, :func:`solve_stage`, ``apply_*()``,
    and a driver that pools several steppers' jobs calls those itself.
    ``Vm``/``Va`` hold the result on the hosted subsystems' buses.
    """

    def __init__(self, dse, hosted, *, tol: float = 1e-8, z=None, weights=None, x0=None):
        self.dse = dse
        self.tol, self.z, self.w, self.x0 = tol, z, weights, x0
        n = dse.dec.net.n_bus
        self.Vm = np.ones(n)
        self.Va = np.zeros(n)
        #: buses whose entry in ``Vm``/``Va`` is somebody's solution: a
        #: hosted subsystem's, or an absorbed publication
        self.known = np.zeros(n, dtype=bool)
        self._own = np.zeros(n, dtype=bool)
        self.hosted: list[int] = []
        self.records: dict[int, SubsystemRecord] = {}
        #: previous round's extended solution per subsystem (warm start)
        self.last2: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: the frame's condensation linearization point per subsystem
        self.lin: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.round_deltas: list[float] = []
        self._factor_t0: dict[int, float] = {}
        self._pooled = getattr(dse.executor, "distributed", False)
        if self._pooled and not dse.reuse_structures:
            raise ValueError(
                "process-pool execution requires reuse_structures=True "
                "(workers hold the warm caches)"
            )
        for s in hosted:
            self._host(int(s))

    # -- hosting ---------------------------------------------------------
    def _host(self, s: int) -> None:
        dse = self.dse
        own = dse.sub1[s][2]
        self.hosted = sorted({*self.hosted, s})
        self._own[own] = self.known[own] = True
        n_boundary = dse.n_boundary[s]
        rec = self.records[s] = SubsystemRecord(
            s=s, n_buses=len(own), n_boundary=n_boundary,
            n_sensitive=len(dse.exchange_sets[s]) - n_boundary,
        )
        if dse.condense:
            cond = dse._step2_cache[s][0]
            rec.condensed = True
            rec.n_boundary_states = cond.n_boundary_states
            rec.n_interior_states = cond.n_interior_states
            self._factor_t0[s] = cond.factor_time

    def checkpoint(self, s: int) -> dict:
        """Hosted subsystem ``s``'s recoverable state, as the array fields
        of a :class:`~repro.cluster.recovery.SubsystemCheckpoint` (the
        caller adds who, when and which epoch)."""
        own = self.dse.sub1[s][2]
        warm = self.last2.get(s, (None, None))
        lin = self.lin.get(s, (None, None))
        return dict(
            own_ids=own, own_vm=self.Vm[own], own_va=self.Va[own],
            warm_vm=warm[0], warm_va=warm[1], lin_vm=lin[0], lin_va=lin[1],
        )

    def adopt(self, ck) -> None:
        """Host ``ck.subsystem`` from its checkpoint (failover promotion).

        float64 state round-trips the wire bit-exactly, so an adopted
        linearization point hits the donor's factorization cache — no
        re-condensation.
        """
        s = int(ck.subsystem)
        self._host(s)
        self.Vm[ck.own_ids] = ck.own_vm
        self.Va[ck.own_ids] = ck.own_va
        if ck.warm_vm is not None:
            self.last2[s] = (ck.warm_vm, ck.warm_va)
        if ck.lin_vm is not None:
            self.lin[s] = (ck.lin_vm, ck.lin_va)

    def shed(self, s: int) -> None:
        """Stop hosting ``s`` (it was promoted away from this host); its
        buses stay in the view as last-known values."""
        self.hosted.remove(s)
        self._own[self.dse.sub1[s][2]] = False
        for state in (self.records, self.last2, self.lin):
            state.pop(s, None)

    # -- exchange --------------------------------------------------------
    def publications(self) -> list[tuple]:
        """The updates that leave this host this round, from the
        estimator's publication plan: ``(source subsystem, neighbour, bus
        ids, Vm, Va, wire form)`` for every hosted subsystem and every
        neighbour of it hosted elsewhere.  Co-hosted neighbours read each
        other's buses straight from the view, so by the symmetry of the
        neighbour relation a host expects exactly one update back per
        update out."""
        return [
            (s, nb, ids, self.Vm[ids], self.Va[ids], form)
            for s in self.hosted
            for nb, (ids, form) in self.dse.publication_plan[s].items()
            if nb not in self.hosted
        ]

    def absorb(self, ids, vm, va) -> None:
        """Take a neighbour's published ``(Vm, Va)`` at global buses
        ``ids`` into the view.  The ids come off a wire: one that is out of
        range, or names a bus this host solves itself, raises
        ``ValueError`` before anything is written."""
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) and (
            ids.min() < 0 or ids.max() >= len(self.known) or self._own[ids].any()
        ):
            raise ValueError("update names a bus that is unknown or hosted here")
        self.Vm[ids] = vm
        self.Va[ids] = va
        self.known[ids] = True

    # -- the schedule ----------------------------------------------------
    def step1(self) -> None:
        """Step 1 for every hosted subsystem; their buses take the result.

        A failed solve under ``degrade_on_failure`` publishes the prior
        state instead (the frame's ``x0`` when given, flat otherwise).
        """
        jobs = self.step1_jobs()
        with obs.span("dse.step1"):
            self.apply_step1(solve_stage(
                self.dse, "step1", jobs, self.tol,
                degrade=self.dse.degrade_on_failure,
            ))

    def step1_jobs(self) -> list[tuple]:
        """Step 1's :func:`solve_stage` jobs, one per hosted subsystem."""
        dse = self.dse
        jobs = []
        for s in self.hosted:
            subnet1, _, own, ms1 = dse.sub1[s]
            fresh = None if dse.reuse_structures else partial(
                WlsEstimator, subnet1, ms1
            )
            x0 = None if self.x0 is None else (self.x0[0][own], self.x0[1][own])
            # always explicit: a pool worker's own set may hold other values
            z1 = ms1.z if self.z is None else dse._step1_z(s, self.z)
            w1 = None if self.w is None else dse._step1_z(s, self.w)
            jobs.append((s, fresh, x0, z1, w1, None))
        return jobs

    def apply_step1(self, solved: list[tuple]) -> None:
        """Take the outcomes of :meth:`step1_jobs` (same order)."""
        dse = self.dse
        for s, (res, dt, wspans) in zip(self.hosted, solved):
            if wspans:
                obs.adopt(wspans)
            rec, own = self.records[s], dse.sub1[s][2]
            rec.step1_time = dt
            if isinstance(res, SolveFailure):
                rec.degraded = True
                rec.failures.append(f"step1: {res.message}")
                _count_degraded_solve()
                if self.x0 is not None:
                    self.Vm[own] = self.x0[0][own]
                    self.Va[own] = self.x0[1][own]
                continue
            rec.step1_result = res
            self.Vm[own] = res.Vm
            self.Va[own] = res.Va

    def step2_round(self, rnd: int) -> None:
        """One Step-2 re-evaluation of every hosted subsystem.

        All inputs are built from the view first (:meth:`step2_jobs`),
        then everything is solved, then the disjoint updates are applied in
        subsystem order (:meth:`apply_step2`): no solve sees another's
        result of the same round, which is what makes every executor and
        every hosting bit-identical.
        """
        jobs = self.step2_jobs(rnd)
        with obs.span("dse.step2", round=rnd):
            self.apply_step2(rnd, solve_stage(
                self.dse, "step2", jobs, self.tol,
                degrade=self.dse.degrade_on_failure,
            ))

    def step2_jobs(self, rnd: int) -> list[tuple]:
        """Step-2 round ``rnd``'s :func:`solve_stage` jobs, one per hosted
        subsystem, built from the view."""
        dse, Vm, Va = self.dse, self.Vm, self.Va
        jobs = []
        with obs.span("dse.exchange", round=rnd):
            for s in self.hosted:
                if not dse.reuse_structures:
                    jobs.append(self._fresh_step2(s))
                    continue
                # a neighbour not heard from: its pseudo rows weigh 0, and
                # the round runs the exact loop (a frozen operator holds them)
                z2, w2, start = dse._step2_inputs(
                    s, Vm, Va, self.known, self.last2, self.z, self.w
                )
                lin = self.lin.get(s) if self.known[dse.sub2[s][3]].all() else None
                jobs.append((s, None, start, z2, w2, lin))
        return jobs

    def apply_step2(self, rnd: int, solved: list[tuple]) -> None:
        """Take the outcomes of :meth:`step2_jobs` (same order)."""
        dse, Vm, Va = self.dse, self.Vm, self.Va
        delta = 0.0
        for s, (res, dt, wspans) in zip(self.hosted, solved):
            if wspans:
                obs.adopt(wspans)
            rec = self.records[s]
            rec.step2_times.append(dt)
            rec.bytes_sent_per_round.append(dse._round_wire_bytes(s, rnd))
            if dse.condense and not self._pooled:
                # condensation cost lives on the warm caches; surface
                # this frame's share (pool workers keep theirs)
                rec.factor_time = (
                    dse._step2_cache[s][0].factor_time - self._factor_t0[s]
                )
            if isinstance(res, SolveFailure):
                # degraded: keep this subsystem's previous publication
                # for the round (neighbours keep converging around it)
                rec.degraded = True
                rec.failures.append(f"step2 round {rnd}: {res.message}")
                _count_degraded_solve()
                continue
            self.last2[s] = (res.Vm, res.Va)
            if dse.condense and s not in self.lin:
                # Freeze the gain operator where the iteration lives:
                # at the solution of the frame's first (exact) round.
                # A function of the frame's inputs alone — the same
                # arrays on every executor and host — so the later
                # rounds share one factorization wherever they run.
                self.lin[s] = self.last2[s]
            rec.step2_results.append(res)
            scope = (
                dse.sub1[s][2] if dse.update_scope == "all"
                else dse.exchange_sets[s]
            )
            local = dse.sub2[s][1][scope]
            delta = max(
                delta,
                float(np.max(np.abs(res.Vm[local] - Vm[scope]), initial=0.0)),
                float(np.max(np.abs(res.Va[local] - Va[scope]), initial=0.0)),
            )
            Vm[scope] = res.Vm[local]
            Va[scope] = res.Va[local]
        self.round_deltas.append(delta)

    def _fresh_step2(self, s: int) -> tuple:
        """The ``reuse_structures=False`` reference path's Step-2 job: a new
        estimator over the measured rows plus the pseudo measurements
        heard, the frame's weights scattered onto its rows."""
        dse = self.dse
        subnet2, bmap2, _, ext, ms2 = dse.sub2[s]
        heard = ext[self.known[ext]]
        pseudo = pseudo_measurements(bmap2[heard], self.Vm[heard], self.Va[heard])
        merged, rows_ms2, _ = ms2.merged_with_positions(pseudo)
        w = None if self.w is None else merged.weights
        if w is not None:
            w[rows_ms2] = dse._step2_meas_z(s, self.w)
        start = dse._step2_start(s, self.Vm, self.Va, self.last2)
        return s, partial(WlsEstimator, subnet2, merged), start, None, w, None


# -- solving -------------------------------------------------------------
def solve_stage(
    dse, stage: str, jobs: list[tuple], tol: float, *, degrade: bool = False
) -> list[tuple]:
    """Solve one stage's jobs over ``dse``'s subproblems, whichever
    steppers built them.

    A job is ``(s, builder of a fresh estimator or None for the cached
    one, x0, z, weights, lin_point)``; the result is ``(result or
    failure, seconds, worker spans or None)`` per job, in the jobs' order.
    A solve that raises becomes a :class:`SolveFailure` when ``degrade``
    and propagates otherwise.

    The way is chosen from the executor and the jobs alone: a process pool
    gets compact tasks for its warm workers; on a serial executor, jobs
    that name each of ``dse``'s ``m`` subsystems exactly once, on cached
    estimators, and agree on the linearisation (all exact, or all frozen
    at their points) run as one stacked loop (:func:`_stacked_stage`);
    anything else — a partial set, a subsystem named twice (a fenced host
    and its promoted successor), a round where only some subsystems have
    their linearisation point after a degraded solve — is solved job by
    job through the executor, in subsystem order.
    """
    order = sorted(range(len(jobs)), key=lambda i: jobs[i][0])
    ordered = [jobs[i] for i in order]
    if getattr(dse.executor, "distributed", False):
        key = dse._ensure_worker_context()
        octx = obs.pack_current_context()
        solved = dse.executor.map(_solve_task, [
            (key, stage, s, x0, z, w, lin, tol, octx, degrade)
            for s, _, x0, z, w, lin in ordered
        ])
    elif (
        isinstance(dse.executor, SerialExecutor)
        and dse.reuse_structures
        and [job[0] for job in ordered] == list(range(dse.dec.m))
        and len({job[-1] is None for job in ordered}) == 1
    ):
        solved = _stacked_stage(dse, stage, ordered, tol, degrade)
    else:
        def solve(job):
            s, fresh, x0, z, w, lin = job
            build = fresh or partial(_cached_estimator, dse, stage, s)
            return (
                *_timed_solve(obs.span, stage, s, build, x0, z, w, lin, tol, degrade),
                None,
            )

        solved = dse.executor.map(solve, ordered)
    out: list = [None] * len(jobs)
    for i, res in zip(order, solved):
        out[i] = res
    return out


def _stacked_stage(
    dse, stage: str, jobs: list[tuple], tol: float, degrade: bool
) -> list[tuple]:
    """Step 1 or one Step-2 round of every subsystem (``jobs`` in
    subsystem order) as one stacked solve — the exact Gauss-Newton loop,
    or (every job carrying its linearization point) the frozen-gain one.

    Each result is bit for bit the subsystem's own estimator's; the
    stage's wall time is apportioned by the paper's computation weight
    ``Wv = Nb × Ni`` (buses solved × iterations taken), since no
    subsystem is timed on its own any more.  The
    ``dse.<stage>.subsystem`` spans are laid out back to back over
    those shares.
    """
    wall0, t0 = time.time(), time.perf_counter()
    subsystems, _, x0, z, w, lins = zip(*jobs)
    stack = dse._stack(stage)
    inputs = dict(x0=x0, z=z, weights=w, tol=tol)
    if lins[0] is None:
        results = stack.estimate_blocks(**inputs)
    else:
        conds = [_cached_estimator(dse, stage, s) for s in subsystems]
        results = frozen_round(stack, conds, lin_points=lins, **inputs)
    wall = time.perf_counter() - t0

    failed = [r for r in results if isinstance(r, Exception)]
    if failed and not degrade:
        raise failed[0]
    subnets = dse.sub1 if stage == "step1" else dse.sub2
    wv = np.array(
        [
            subnets[s][0].n_bus * max(1, getattr(res, "iterations", 1))
            for s, res in zip(subsystems, results)
        ],
        dtype=float,
    )
    shares = wall * wv / wv.sum()
    out = []
    for s, res, dt in zip(subsystems, results, shares):
        if isinstance(res, Exception):
            res = SolveFailure(repr(res))
        obs.span(f"dse.{stage}.subsystem", s=s, apportioned=True).record(
            wall0, float(dt)
        )
        wall0 += float(dt)
        out.append((res, float(dt), None))
    return out

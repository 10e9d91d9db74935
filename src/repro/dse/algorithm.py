"""The two-step distributed state estimation algorithm.

Implements the DSE of the paper's section II (after Jiang, Vittal & Heydt):

- **Step 1** — each subsystem runs WLS on its isolated internal network
  using only measurements fully contained in it.
- **Step 2** — each subsystem extends its network with the first layer of
  external boundary buses and tie lines, adds its boundary-related local
  measurements, and re-evaluates with the neighbours' published solutions as
  pseudo measurements.  Step 2 repeats for a finite number of rounds bounded
  by the diameter of the decomposition graph.
- **Final step** — subsystem solutions are concatenated into the
  system-wide estimate.

Per-round per-subsystem records (state sizes, exchanged bytes, solve times)
are exposed so the architecture layer can replay the computation on the
cluster substrate.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..estimation.results import EstimationResult
from ..estimation.wls import WlsEstimator
from ..measurements.types import _TYPE_ORDER, MeasType, MeasurementSet
from ..middleware.message import condensed_update_nbytes, state_update_nbytes
from ..parallel import (
    SerialExecutor,
    SubsystemExecutor,
    make_executor,
    worker_context,
)
from .condensation import CondensedStep2, neighbor_publication_sets
from .decomposition import Decomposition, extract_subnetwork
from .pseudo import (
    assign_measurements,
    dse_pmu_placement,
    localize_measurements,
    pseudo_measurements,
)
from .sensitivity import exchange_bus_sets

__all__ = ["SubsystemRecord", "DseResult", "DistributedStateEstimator"]

#: bytes per exchanged bus state: (Vm, Va) float64 pair plus a bus id.
BYTES_PER_EXCHANGED_BUS = 2 * 8 + 8

_TYPE_POS = {t: i for i, t in enumerate(_TYPE_ORDER)}


def _localized_perm(
    mset: MeasurementSet,
    rows: np.ndarray,
    bus_map: np.ndarray,
    branch_map: np.ndarray,
) -> np.ndarray:
    """Permutation taking ``mset.z[rows]`` into the canonical order of the
    localized measurement set built from the same rows.

    ``localize_measurements`` re-canonicalises (type buckets in
    ``_TYPE_ORDER``, stable element sort within a bucket), so a values-only
    frame update needs this mapping to scatter fresh ``z`` values into the
    cached local structures without rebuilding them.
    """
    rows = np.asarray(rows, dtype=np.int64)
    tpos, elem_glob, is_bus = mset.column_arrays()
    tidx = tpos[rows]
    eg = elem_glob[rows]
    mask = is_bus[rows]
    elem = np.empty(len(rows), dtype=np.int64)
    # Gather per referent kind: a branch index may exceed len(bus_map)
    # (and vice versa), so the two maps cannot be applied unmasked.
    elem[mask] = bus_map[eg[mask]]
    elem[~mask] = branch_map[eg[~mask]]
    return np.lexsort((elem, tidx))


# ---------------------------------------------------------------------------
# Process-pool worker side: a full (serial) DSE instance lives inside each
# worker process, built once by the pool initializer, so the warm caches —
# subnetworks, Jacobian structures, gain-solver orderings, merged pseudo
# templates — persist across tasks.  Tasks then carry only compact payloads:
# a measurement vector, a warm-start state and a tolerance.
# ---------------------------------------------------------------------------

def _dse_worker_state(payload):
    dec, mset, kwargs = payload
    return DistributedStateEstimator(
        dec, mset, executor=None, auto_anchor=False, **kwargs
    )


@dataclass(frozen=True)
class _SolveFailure:
    """Picklable stand-in result for a per-subsystem solve that raised
    while ``degrade_on_failure`` was active."""

    message: str


def _dse_step1_task(args):
    key, s, z1, x0, tol, octx, degrade = args
    dse = worker_context(key)
    rec = obs.remote_recorder(octx)
    t0 = time.perf_counter()
    with rec.span("dse.step1.subsystem", s=s):
        try:
            res = dse._est1[s].estimate(tol=tol, x0=x0, z=z1)
        except Exception as exc:
            if not degrade:
                raise
            res = _SolveFailure(repr(exc))
    return res, time.perf_counter() - t0, rec.export()


def _dse_step2_task(args):
    key, s, z2, x0_vm, x0_va, tol, octx, degrade, lin = args
    dse = worker_context(key)
    est2 = dse._step2_cache[s][0]
    rec = obs.remote_recorder(octx)
    t0 = time.perf_counter()
    # The linearization point travels with every task (not just the first)
    # because a worker may first touch subsystem ``s`` on any round — the
    # condensed operator must not depend on call history.
    kwargs = {} if lin is None else {"lin_point": lin}
    with rec.span("dse.step2.subsystem", s=s):
        try:
            res = est2.estimate(x0=(x0_vm, x0_va), tol=tol, z=z2, **kwargs)
        except Exception as exc:
            if not degrade:
                raise
            res = _SolveFailure(repr(exc))
    return res, time.perf_counter() - t0, rec.export()


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


@dataclass
class DseResult:
    """System-wide DSE outcome."""

    Vm: np.ndarray
    Va: np.ndarray
    rounds: int
    records: dict[int, SubsystemRecord]
    round_deltas: list[float]
    #: sorted ids of subsystems whose solves fell back to prior state
    degraded_subsystems: list[int] = field(default_factory=list)

    def state_error(self, Vm_true: np.ndarray, Va_true: np.ndarray) -> dict:
        """RMSE/max error against a reference state (same convention as
        :meth:`repro.estimation.EstimationResult.state_error`)."""
        dva = self.Va - Va_true
        dva -= dva.mean()
        return {
            "vm_rmse": float(np.sqrt(np.mean((self.Vm - Vm_true) ** 2))),
            "va_rmse": float(np.sqrt(np.mean(dva**2))),
            "vm_max": float(np.max(np.abs(self.Vm - Vm_true))),
            "va_max": float(np.max(np.abs(dva))),
        }

    @property
    def total_bytes_exchanged(self) -> int:
        return sum(sum(r.bytes_sent_per_round) for r in self.records.values())


class DistributedStateEstimator:
    """Runs the two-step DSE over a decomposition.

    Parameters
    ----------
    dec:
        The subsystem decomposition.
    mset:
        System-wide measurement snapshot.  If it contains no PMU angles, an
        anchor PMU per subsystem is required for globally consistent angles;
        pass ``auto_anchor=True`` (default) to check and raise otherwise.
    solver:
        Normal-equation solver for every local WLS (``"lu"``, ``"pcg"``,
        ``"lsqr"``).
    sensitivity_threshold:
        Threshold for sensitive-internal-bus identification.
    update_scope:
        ``"exchange"`` (paper-faithful: Step 2 only re-evaluates boundary
        and sensitive internal buses) or ``"all"`` (adopt the whole extended
        solve — an extension).
    auto_anchor:
        Verify every subsystem has at least one synchronized angle channel.
    executor:
        How per-subsystem solves fan out within Step 1 and within each
        Step-2 round: ``None``/``"serial"``, ``"threads"``, an ``int``
        worker count, or a :class:`~repro.parallel.SubsystemExecutor`.
        Results are bit-identical across executors — each round snapshots
        the published state before fanning out and applies updates in
        subsystem order afterwards.
    reuse_structures:
        Cache the extended subnetworks, local estimators (with their
        Jacobian patterns and factorization orderings) and merged
        pseudo-measurement structures across Step-2 rounds and runs,
        instead of rebuilding them every round (the seed behaviour,
        retained as the ``False`` reference path).
    warm_start:
        Start each Step-2 re-evaluation from the subsystem's previous-round
        extended solution (external boundary values refreshed from the
        neighbours' latest publications) rather than from the Step-1
        publication alone.
    degrade_on_failure:
        Off by default (a failed solve raises, the seed behaviour).  When
        on, a per-subsystem solve that raises falls back to the
        subsystem's prior state — flat (or the caller's ``x0``) after a
        Step-1 failure, the previous round's publication after a Step-2
        failure — and the run completes with the subsystem listed in
        ``DseResult.degraded_subsystems`` and the error text on its
        :class:`SubsystemRecord`.
    condense:
        Off by default (full extended re-evaluation, the reference path).
        When on, each subsystem's extended gain matrix is condensed onto
        its boundary buses via a Schur complement
        (:class:`~repro.dse.condensation.CondensedStep2`) — factored once
        per frame topology and reused across rounds and frames — so each
        Step-2 round solves a boundary-sized system and back-substitutes
        interior states locally, and each round exchanges only compact
        per-neighbour boundary blocks (the condensed wire form of
        :mod:`repro.middleware.message`).  Requires
        ``reuse_structures=True``.
    """

    def __init__(
        self,
        dec: Decomposition,
        mset: MeasurementSet,
        *,
        solver: str = "lu",
        sensitivity_threshold: float = 0.5,
        update_scope: str = "exchange",
        auto_anchor: bool = True,
        executor: SubsystemExecutor | str | int | None = None,
        reuse_structures: bool = True,
        warm_start: bool = True,
        degrade_on_failure: bool = False,
        condense: bool = False,
    ):
        if update_scope not in ("exchange", "all"):
            raise ValueError("update_scope must be 'exchange' or 'all'")
        if condense and not reuse_structures:
            raise ValueError(
                "condense=True requires reuse_structures=True (the condensed "
                "operator lives in the per-subsystem caches)"
            )
        self.dec = dec
        self.mset = mset
        self.solver = solver
        self.update_scope = update_scope
        self.sensitivity_threshold = sensitivity_threshold
        self.executor = make_executor(executor)
        self.reuse_structures = reuse_structures
        self.warm_start = warm_start
        self.degrade_on_failure = degrade_on_failure
        self.condense = condense
        self.assignment = assign_measurements(dec, mset)
        self.exchange_sets = exchange_bus_sets(dec, threshold=sensitivity_threshold)
        self._nbr_pub = neighbor_publication_sets(dec) if condense else None
        self._worker_token: str | None = None
        #: the hosted subsystems' Step-1 / Step-2 estimators as one stacked
        #: estimator each, built the first time a serial stage runs
        self._stacks: dict[str, WlsEstimator] = {}

        if auto_anchor:
            part = dec.part
            anchored = set()
            for row in mset.rows(MeasType.PMU_VA):
                anchored.add(int(part[mset[int(row)].element]))
            missing = [s for s in range(dec.m) if s not in anchored]
            if missing:
                raise ValueError(
                    f"subsystems {missing} have no synchronized angle "
                    "measurement; add PMUs (see dse_pmu_placement) or pass "
                    "auto_anchor=False"
                )

        self._build_subproblems()

    # ------------------------------------------------------------------
    def _build_subproblems(self) -> None:
        dec = self.dec
        net = dec.net
        self.sub1 = {}
        self.sub2 = {}
        self._est1: dict[int, WlsEstimator] = {}
        self._step2_cache: dict[int, tuple] = {}
        self._z_index: dict[int, tuple] = {}
        for s in range(dec.m):
            own = dec.buses(s)
            internal = dec.internal_branches(s)
            ref = int(own[0])
            subnet1, bmap1, brmap1 = extract_subnetwork(
                net, own, internal, reference_bus=ref, name=f"sub{s}.step1"
            )
            ms1 = localize_measurements(
                self.mset, self.assignment.step1[s], bmap1, brmap1
            )
            self.sub1[s] = (subnet1, bmap1, own, ms1)

            ext = dec.external_boundary_buses(s)
            xbuses = np.concatenate([own, ext])
            xbranches = np.concatenate([internal, dec.incident_tie_lines(s)])
            subnet2, bmap2, brmap2 = extract_subnetwork(
                net, xbuses, xbranches, reference_bus=ref, name=f"sub{s}.step2"
            )
            rows2 = np.concatenate(
                [self.assignment.step1[s], self.assignment.step2_extra[s]]
            )
            ms2 = localize_measurements(self.mset, rows2, bmap2, brmap2)
            self.sub2[s] = (subnet2, bmap2, xbuses, ext, ms2)

            if not self.reuse_structures:
                continue
            # Persistent per-subsystem estimators: Step-2 pseudo
            # measurements have a fixed structure (V/θ pairs at the
            # external boundary buses), so the merged measurement set,
            # the estimator and all of its cached structures are built
            # once and only the pseudo *values* change per round.
            self._est1[s] = WlsEstimator(subnet1, ms1, solver=self.solver)
            ext_local = bmap2[ext]
            pseudo0 = pseudo_measurements(
                ext_local, np.ones(len(ext)), np.zeros(len(ext))
            )
            full0, rows_ms2, rows_pseudo = ms2.merged_with_positions(pseudo0)
            order = np.argsort(ext_local, kind="stable")
            rows_vm = rows_pseudo[pseudo0.rows(MeasType.V_MAG)]
            rows_va = rows_pseudo[pseudo0.rows(MeasType.PMU_VA)]
            src = ext[order]  # global buses aligned with the sorted rows
            est2 = WlsEstimator(subnet2, full0, solver=self.solver)
            if self.condense:
                # Coupling set: own boundary + external boundary buses;
                # everything else is eliminated onto it once per topology.
                bnd_local = bmap2[np.concatenate([dec.boundary_buses(s), ext])]
                est2 = CondensedStep2(est2, bnd_local)
            self._step2_cache[s] = (est2, full0.z, rows_vm, rows_va, src, rows_ms2)
            # Values-only frame support: permutations taking global-row z
            # slices into the canonical order of the localized sets.
            rows1 = self.assignment.step1[s]
            self._z_index[s] = (
                rows1,
                _localized_perm(self.mset, rows1, bmap1, brmap1),
                rows2,
                _localized_perm(self.mset, rows2, bmap2, brmap2),
            )

    # ------------------------------------------------------------------
    # Values-only frames: fresh measurement vectors over the cached
    # structures (same placement, new telemetry values).
    # ------------------------------------------------------------------
    def _step1_z(self, s: int, z_full: np.ndarray) -> np.ndarray:
        """Step-1 local measurement vector for a values-only frame."""
        rows1, perm1, _, _ = self._z_index[s]
        return z_full[rows1][perm1]

    def _step2_meas_z(self, s: int, z_full: np.ndarray) -> np.ndarray:
        """Step-2 measured (non-pseudo) local values for a values-only frame."""
        _, _, rows2, perm2 = self._z_index[s]
        return z_full[rows2][perm2]

    def _step2_inputs(
        self,
        s: int,
        published_vm: np.ndarray,
        published_va: np.ndarray,
        last2: dict,
        z_full: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compact Step-2 task inputs ``(z, x0_vm, x0_va)`` for subsystem
        ``s`` — the same arrays regardless of which backend executes the
        solve, which is what pins process-pool results to serial ones."""
        _, z_tmpl, rows_vm, rows_va, src, rows_ms2 = self._step2_cache[s]
        z = z_tmpl.copy()
        if z_full is not None:
            z[rows_ms2] = self._step2_meas_z(s, z_full)
        z[rows_vm] = published_vm[src]
        z[rows_va] = published_va[src]

        _, bmap2, xbuses, ext, _ = self.sub2[s]
        if self.warm_start and s in last2:
            x0_vm, x0_va = last2[s]
            x0_vm, x0_va = x0_vm.copy(), x0_va.copy()
            ext_local = bmap2[ext]
            x0_vm[ext_local] = published_vm[ext]
            x0_va[ext_local] = published_va[ext]
        else:
            x0_vm = published_vm[xbuses]
            x0_va = published_va[xbuses]
        return z, x0_vm, x0_va

    # ------------------------------------------------------------------
    # Process-pool support: worker-resident warm DSE state, keyed by a
    # structural fingerprint so repeated frames over the same case reuse
    # the spawned workers (and their caches) instead of restarting them.
    # ------------------------------------------------------------------
    def _structure_token(self) -> str:
        if self._worker_token is None:
            h = hashlib.sha1()
            h.update(
                pickle.dumps(
                    (
                        self.solver,
                        self.update_scope,
                        float(self.sensitivity_threshold),
                        bool(self.condense),
                    )
                )
            )
            h.update(pickle.dumps(self.dec))
            for t in _TYPE_ORDER:
                h.update(t.value.encode())
                h.update(np.ascontiguousarray(self.mset.elements(t)).tobytes())
            h.update(np.ascontiguousarray(self.mset.sigma).tobytes())
            self._worker_token = "dse:" + h.hexdigest()
        return self._worker_token

    def _ensure_worker_context(self) -> str:
        key = self._structure_token()
        self.executor.initialize(
            key,
            _dse_worker_state,
            (
                self.dec,
                self.mset,
                dict(
                    solver=self.solver,
                    sensitivity_threshold=self.sensitivity_threshold,
                    update_scope=self.update_scope,
                    reuse_structures=True,
                    warm_start=False,
                    condense=self.condense,
                ),
            ),
        )
        return key

    # ------------------------------------------------------------------
    # Serial in-process stages: every subsystem in one Gauss-Newton loop.
    # ------------------------------------------------------------------
    def _stacked_stage(
        self,
        stage: str,
        members: list[WlsEstimator],
        x0: list,
        z: list,
        tol: float,
    ) -> list[tuple]:
        """Step 1 or one Step-2 round as one stacked solve.

        Returns what the executors' ``map`` returns — ``(result or
        failure, seconds, None)`` per subsystem, each result bit for bit
        the subsystem's own estimator's — with the stage's wall time
        apportioned by the paper's computation weight ``Wv = Nb × Ni``
        (buses solved × iterations taken), since no subsystem is timed on
        its own any more.  The ``dse.<stage>.subsystem`` spans are laid
        out back to back over those shares.
        """
        wall0, t0 = time.time(), time.perf_counter()
        stack = self._stacks.get(stage)
        if stack is None:
            stack = self._stacks[stage] = WlsEstimator.stacked(members)
        results = stack.estimate_blocks(x0=x0, z=z, tol=tol)
        wall = time.perf_counter() - t0

        failed = [r for r in results if isinstance(r, Exception)]
        if failed and not self.degrade_on_failure:
            raise failed[0]
        weights = np.array(
            [
                est.net.n_bus * max(1, getattr(res, "iterations", 1))
                for est, res in zip(members, results)
            ],
            dtype=float,
        )
        shares = wall * weights / weights.sum()
        out = []
        for s, (res, dt) in enumerate(zip(results, shares)):
            if isinstance(res, Exception):
                res = _SolveFailure(repr(res))
            obs.span(f"dse.{stage}.subsystem", s=s, apportioned=True).record(
                wall0, float(dt)
            )
            wall0 += float(dt)
            out.append((res, float(dt), None))
        return out

    # ------------------------------------------------------------------
    def _round_wire_bytes(self, s: int, rnd: int) -> int:
        """Actual packed payload bytes subsystem ``s`` puts on the wire in
        Step-2 round ``rnd`` — the exact frame sizes the live fabric
        sends (:func:`~repro.middleware.message.pack_state_update` /
        :func:`~repro.middleware.message.pack_condensed_update`), so
        in-process and live-runtime byte accounting agree byte-for-byte.
        """
        if self.condense:
            # Per-neighbour boundary blocks; round 0 carries the bus ids,
            # later rounds are values-only over the cached ordering.
            return sum(
                condensed_update_nbytes(len(ids), values_only=rnd > 0)
                for ids in self._nbr_pub[s].values()
            )
        return state_update_nbytes(len(self.exchange_sets[s])) * len(
            self.dec.neighbors(s)
        )

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        rounds: int | None = None,
        tol: float = 1e-8,
        x0: tuple[np.ndarray, np.ndarray] | None = None,
        z: np.ndarray | None = None,
    ) -> DseResult:
        """Execute Step 1, ``rounds`` of Step 2, and the final aggregation.

        ``rounds`` defaults to the decomposition-graph diameter (the paper's
        convergence bound).  ``x0`` optionally warm-starts every local
        Step-1 solve from a previous system state (tracking operation
        between SCADA scans).  ``z`` optionally overrides the system-wide
        measured values (canonical order of the constructor's ``mset``) —
        a values-only frame served over the cached structures, which is how
        the scenario-serving engine pushes repeated estimation rounds
        through one warm estimator; requires ``reuse_structures=True``.
        """
        if not obs.enabled():
            return self._run_impl(rounds=rounds, tol=tol, x0=x0, z=z)
        t0 = time.perf_counter()
        with obs.span("dse.frame", m=self.dec.m) as sp:
            result = self._run_impl(rounds=rounds, tol=tol, x0=x0, z=z)
            sp.set_attr("rounds", result.rounds)
            sp.set_attr("bytes_exchanged", result.total_bytes_exchanged)
        reg = obs.metrics()
        mode = "condensed" if self.condense else "reference"
        reg.counter("dse.frames_total").inc()
        reg.counter("dse.bytes_exchanged_total").inc(result.total_bytes_exchanged)
        reg.counter("dse.exchange_bytes", mode=mode).inc(
            result.total_bytes_exchanged
        )
        solve_hist = reg.histogram("dse.step2.solve.seconds", mode=mode)
        for rec in result.records.values():
            for dt in rec.step2_times:
                solve_hist.observe(dt)
        reg.histogram("dse.frame.seconds").observe(time.perf_counter() - t0)
        return result

    def _run_impl(
        self,
        *,
        rounds: int | None,
        tol: float,
        x0: tuple[np.ndarray, np.ndarray] | None,
        z: np.ndarray | None,
    ) -> DseResult:
        dec = self.dec
        net = dec.net
        if rounds is None:
            rounds = max(1, dec.diameter())
        if z is not None:
            if not self.reuse_structures:
                raise ValueError(
                    "values-only frames (z=) require reuse_structures=True"
                )
            z = np.asarray(z, dtype=float)
            if len(z) != len(self.mset):
                raise ValueError("z override length mismatch")
        use_process = getattr(self.executor, "distributed", False)
        # One stacked solve per stage when nothing fans the subsystems out;
        # the frozen-gain condensed rounds stay per subsystem (their
        # iteration counts spread too widely for lock step to pay).
        stack1 = (
            isinstance(self.executor, SerialExecutor)
            and self.reuse_structures
            and self.solver == "lu"
        )
        stack2 = stack1 and not self.condense
        if use_process:
            if not self.reuse_structures:
                raise ValueError(
                    "process-pool execution requires reuse_structures=True "
                    "(workers hold the warm caches)"
                )
            ctx_key = self._ensure_worker_context()

        records = {
            s: SubsystemRecord(
                s=s,
                n_buses=len(dec.buses(s)),
                n_boundary=len(dec.boundary_buses(s)),
                n_sensitive=len(self.exchange_sets[s]) - len(dec.boundary_buses(s)),
            )
            for s in range(dec.m)
        }
        factor_t0: dict[int, float] = {}
        if self.condense:
            for s, rec in records.items():
                cond = self._step2_cache[s][0]
                rec.condensed = True
                rec.n_boundary_states = cond.n_boundary_states
                rec.n_interior_states = cond.n_interior_states
                factor_t0[s] = cond.factor_time

        # Global state estimate, filled per subsystem.
        Vm = np.ones(net.n_bus)
        Va = np.zeros(net.n_bus)

        # ---- DSE Step 1: independent local estimations ----
        with obs.span("dse.step1"):
            octx = obs.pack_current_context()
            if use_process:
                # Compact payloads: the local measurement vector, the local
                # warm start and the tolerance; the estimators live warm
                # inside the workers.
                items1 = []
                for s in range(dec.m):
                    own = dec.buses(s)
                    z1 = self._step1_z(s, z) if z is not None else self.sub1[s][3].z
                    local_x0 = None
                    if x0 is not None:
                        local_x0 = (x0[0][own].copy(), x0[1][own].copy())
                    items1.append(
                        (ctx_key, s, z1, local_x0, tol, octx,
                         self.degrade_on_failure)
                    )
                step1_out = self.executor.map(_dse_step1_task, items1)
            elif stack1:
                step1_out = self._stacked_stage(
                    "step1",
                    [self._est1[s] for s in range(dec.m)],
                    [
                        None if x0 is None
                        else (x0[0][dec.buses(s)], x0[1][dec.buses(s)])
                        for s in range(dec.m)
                    ],
                    [
                        None if z is None else self._step1_z(s, z)
                        for s in range(dec.m)
                    ],
                    tol,
                )
            else:
                def step1(s: int):
                    subnet1, _, own, ms1 = self.sub1[s]
                    t0 = time.perf_counter()
                    with obs.span("dse.step1.subsystem", s=s):
                        if self.reuse_structures:
                            est = self._est1[s]
                        else:
                            est = WlsEstimator(
                                subnet1, ms1, solver=self.solver, use_cache=False
                            )
                        local_x0 = None
                        if x0 is not None:
                            local_x0 = (x0[0][own].copy(), x0[1][own].copy())
                        z1 = self._step1_z(s, z) if z is not None else None
                        try:
                            res = est.estimate(tol=tol, x0=local_x0, z=z1)
                        except Exception as exc:
                            if not self.degrade_on_failure:
                                raise
                            res = _SolveFailure(repr(exc))
                    return res, time.perf_counter() - t0, None

                step1_out = self.executor.map(step1, range(dec.m))

            for s, (res, dt, wspans) in enumerate(step1_out):
                if wspans:
                    obs.adopt(wspans)
                own = dec.buses(s)
                records[s].step1_time = dt
                if isinstance(res, _SolveFailure):
                    # degraded: this subsystem publishes its prior state
                    # (the caller's x0 when given, flat otherwise)
                    records[s].degraded = True
                    records[s].failures.append(f"step1: {res.message}")
                    self._count_degraded_solve()
                    if x0 is not None:
                        Vm[own] = x0[0][own]
                        Va[own] = x0[1][own]
                    continue
                records[s].step1_result = res
                Vm[own] = res.Vm
                Va[own] = res.Va

        # Condensed mode: freeze each subsystem's gain operator at the
        # frame's Step-1 publication (restricted to its extended network).
        # The same arrays reach every executor with every Step-2 task, so
        # all rounds of a frame share one factorization and results stay
        # bit-identical between serial, threaded and pooled runs.
        lin_points: dict[int, tuple[np.ndarray, np.ndarray]] | None = None
        if self.condense:
            lin_points = {
                s: (Vm[self.sub2[s][2]].copy(), Va[self.sub2[s][2]].copy())
                for s in range(dec.m)
            }

        # ---- DSE Step 2 rounds: exchange + re-evaluate ----
        # Each round snapshots the published state, fans the per-subsystem
        # re-evaluations out through the executor (they only read the
        # snapshot) and applies the disjoint per-subsystem updates in
        # subsystem order — making serial and parallel execution
        # bit-identical.
        last2: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        round_deltas: list[float] = []
        for rnd in range(rounds):
            with obs.span("dse.exchange", round=rnd):
                published_vm = Vm.copy()
                published_va = Va.copy()

                if self.reuse_structures:
                    # One shared input builder for every backend: identical
                    # (z, x0) arrays go into the cached estimators whether the
                    # solve runs inline, on a thread or in a worker process.
                    inputs = [
                        self._step2_inputs(s, published_vm, published_va, last2, z)
                        for s in range(dec.m)
                    ]

            # Entered manually (closed after the update loop); if a solve
            # raises, the enclosing dse.frame span's exit restores the
            # thread's context, so no token leaks past run().
            step2_span = obs.span("dse.step2", round=rnd)
            step2_span.__enter__()
            octx = obs.pack_current_context()
            if use_process:
                items2 = [
                    (ctx_key, s, inputs[s][0], inputs[s][1], inputs[s][2], tol,
                     octx, self.degrade_on_failure,
                     lin_points[s] if lin_points is not None else None)
                    for s in range(dec.m)
                ]
                results = self.executor.map(_dse_step2_task, items2)
            elif stack2:
                results = self._stacked_stage(
                    "step2",
                    [self._step2_cache[s][0] for s in range(dec.m)],
                    [(x0_vm, x0_va) for _, x0_vm, x0_va in inputs],
                    [z2 for z2, _, _ in inputs],
                    tol,
                )
            else:
                def step2(s: int):
                    subnet2, bmap2, xbuses, ext, ms2 = self.sub2[s]
                    with obs.span("dse.step2.subsystem", s=s):
                        if self.reuse_structures:
                            est = self._step2_cache[s][0]
                            z2, x0_vm, x0_va = inputs[s]
                        else:
                            # Reference path: rebuild the pseudo measurements,
                            # the merged set and the estimator from scratch.
                            ext_local = bmap2[ext]
                            pseudo = pseudo_measurements(
                                ext_local, published_vm[ext], published_va[ext]
                            )
                            est = WlsEstimator(
                                subnet2,
                                ms2.merged_with(pseudo),
                                solver=self.solver,
                                use_cache=False,
                            )
                            z2 = None
                            if self.warm_start and s in last2:
                                x0_vm, x0_va = last2[s]
                                x0_vm, x0_va = x0_vm.copy(), x0_va.copy()
                                x0_vm[ext_local] = published_vm[ext]
                                x0_va[ext_local] = published_va[ext]
                            else:
                                x0_vm = published_vm[xbuses]
                                x0_va = published_va[xbuses]

                        kwargs = (
                            {"lin_point": lin_points[s]}
                            if lin_points is not None
                            else {}
                        )
                        t0 = time.perf_counter()
                        try:
                            res = est.estimate(
                                x0=(x0_vm, x0_va), tol=tol, z=z2, **kwargs
                            )
                        except Exception as exc:
                            if not self.degrade_on_failure:
                                raise
                            res = _SolveFailure(repr(exc))
                    return res, time.perf_counter() - t0, None

                results = self.executor.map(step2, range(dec.m))

            delta = 0.0
            for s, (res, dt, wspans) in enumerate(results):
                if wspans:
                    obs.adopt(wspans)
                _, bmap2, xbuses, ext, _ = self.sub2[s]
                rec = records[s]
                rec.step2_times.append(dt)
                if isinstance(res, _SolveFailure):
                    # degraded: keep this subsystem's previous publication
                    # for the round (neighbours keep converging around it)
                    rec.degraded = True
                    rec.failures.append(f"step2 round {rnd}: {res.message}")
                    self._count_degraded_solve()
                    rec.bytes_sent_per_round.append(self._round_wire_bytes(s, rnd))
                    continue
                last2[s] = (res.Vm, res.Va)
                rec.step2_results.append(res)
                rec.bytes_sent_per_round.append(self._round_wire_bytes(s, rnd))

                if self.update_scope == "all":
                    scope = dec.buses(s)
                else:
                    scope = self.exchange_sets[s]
                local = bmap2[scope]
                delta = max(
                    delta,
                    float(np.max(np.abs(res.Vm[local] - Vm[scope]), initial=0.0)),
                    float(np.max(np.abs(res.Va[local] - Va[scope]), initial=0.0)),
                )
                Vm[scope] = res.Vm[local]
                Va[scope] = res.Va[local]
            step2_span.__exit__(None, None, None)
            round_deltas.append(delta)

        if self.condense and not use_process:
            # Condensation cost lives on the warm caches; surface this
            # run's factorization time on the records (worker-side
            # factorizations stay inside the process pool).
            for s, rec in records.items():
                rec.factor_time = (
                    self._step2_cache[s][0].factor_time - factor_t0[s]
                )

        # ---- Final step: solutions already aggregated in (Vm, Va) ----
        return DseResult(
            Vm=Vm, Va=Va, rounds=rounds, records=records,
            round_deltas=round_deltas,
            degraded_subsystems=sorted(
                s for s, rec in records.items() if rec.degraded
            ),
        )

    @staticmethod
    def _count_degraded_solve() -> None:
        if obs.enabled():
            obs.metrics().counter("dse.degraded_solves_total").inc()

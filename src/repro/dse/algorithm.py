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

This module builds and keeps the per-subsystem subproblems (networks,
localized measurements, cached estimators, the publication plan); the
Step-1 / exchange / Step-2 schedule over them is
:class:`~repro.dse.stepper.SubsystemStepper`, and :meth:`run
<DistributedStateEstimator.run>` is one stepper hosting every subsystem.

Per-round per-subsystem records (state sizes, exchanged bytes, solve times)
are exposed so the architecture layer can replay the computation on the
cluster substrate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..estimation.results import state_error
from ..estimation.wls import WlsEstimator, check_rows, check_tol
from ..measurements.types import MeasType, MeasurementSet
from ..middleware.message import condensed_update_nbytes, state_update_nbytes
from .condensation import neighbor_publication_sets
from .decomposition import Decomposition, extract_subnetwork
from .pseudo import (
    assign_measurements,
    dse_pmu_placement,
    localize_measurements,
    pseudo_measurements,
)
from .sensitivity import exchange_bus_sets
from .stepper import SubsystemRecord, SubsystemStepper

__all__ = [
    "SubsystemRecord",
    "DseResult",
    "DistributedStateEstimator",
    "check_run_args",
    "step1_problem",
]

#: bytes per exchanged bus state: (Vm, Va) float64 pair plus a bus id.
BYTES_PER_EXCHANGED_BUS = 2 * 8 + 8


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


def check_run_args(rounds, tol=1e-8) -> None:
    """Refuse a frame's ``rounds`` / ``tol`` before anything runs: a
    ``rounds`` that is not ``None`` or an int >= 0, a ``tol`` that
    :func:`~repro.estimation.wls.check_tol` refuses."""
    check_tol(tol)
    if rounds is not None and (
        isinstance(rounds, bool) or not isinstance(rounds, (int, np.integer))
        or rounds < 0
    ):
        raise ValueError(f"rounds must be None or an int >= 0, got {rounds!r}")


def step1_problem(
    dec: Decomposition,
    mset: MeasurementSet,
    rows: np.ndarray,
    s: int,
) -> tuple:
    """Subsystem ``s``'s Step-1 problem — WLS on its isolated internal
    network — built here and nowhere else: the DSE, its bad-data screen and
    the hierarchical baseline's level 1 all solve this.

    ``rows`` are the system-wide ``mset``'s rows the subsystem may use
    (``assign_measurements(dec, mset).step1[s]``).  Returns ``(subnet,
    bus_map, localized set, estimator, perm)`` with local row ``i`` being
    global row ``rows[perm][i]``: ``z[rows][perm]`` is a values-only frame's
    local vector.  The subsystem's first bus is the local slack, hence the
    angle reference where the set holds no synchronized angle.
    """
    own = dec.buses(s)
    subnet, bmap, brmap = extract_subnetwork(
        dec.net, own, dec.internal_branches(s), reference_bus=int(own[0]),
        name=f"sub{s}.step1",
    )
    local = localize_measurements(mset, rows, bmap, brmap)
    return (
        subnet, bmap, local, WlsEstimator(subnet, local),
        _localized_perm(mset, rows, bmap, brmap),
    )


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
        """RMSE/max error against a reference state
        (:func:`repro.estimation.results.state_error`)."""
        return state_error(self.Vm, self.Va, Vm_true, Va_true)

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
    sensitivity_threshold:
        Threshold for sensitive-internal-bus identification.
    update_scope:
        ``"exchange"`` (paper-faithful: Step 2 only re-evaluates boundary
        and sensitive internal buses) or ``"all"`` (adopt the whole extended
        solve — an extension).
    auto_anchor:
        Verify every subsystem has at least one synchronized angle channel.
    reuse_structures:
        Cache the extended subnetworks, local estimators (with their
        Jacobian patterns and factorization orderings) and merged
        pseudo-measurement structures across Step-2 rounds and runs,
        instead of rebuilding them every round (the seed behaviour,
        retained as the ``False`` reference path).
    warm_start:
        Start each Step-2 re-evaluation from the subsystem's previous-round
        extended solution, unchanged, rather than from the published state
        alone — and from the gain factor that round last took, carried
        into the next round (no refactorization after a frame's first
        Step-2 round while the steps contract).
    degrade_on_failure:
        Off by default (a failed solve raises, the seed behaviour).  When
        on, a per-subsystem solve that raises falls back to the
        subsystem's prior state — flat (or the caller's ``x0``) after a
        Step-1 failure, the previous round's publication after a Step-2
        failure — and the run completes with the subsystem listed in
        ``DseResult.degraded_subsystems`` and the error text on its
        :class:`SubsystemRecord`.
    condense:
        The Step-2 wire form.  Off by default: every subsystem publishes
        its whole exchange set to every neighbour as a state update.  When
        on, it sends each neighbour only the tie-endpoint buses that
        neighbour's solve reads, as compact boundary blocks
        (:mod:`repro.dse.condensation`, the condensed wire form of
        :mod:`repro.middleware.message`).  The solves are the same either
        way, and so are the states, bit for bit.
    """

    def __init__(
        self,
        dec: Decomposition,
        mset: MeasurementSet,
        *,
        sensitivity_threshold: float = 0.5,
        update_scope: str = "exchange",
        auto_anchor: bool = True,
        reuse_structures: bool = True,
        warm_start: bool = True,
        degrade_on_failure: bool = False,
        condense: bool = False,
    ):
        if update_scope not in ("exchange", "all"):
            raise ValueError("update_scope must be 'exchange' or 'all'")
        self.dec = dec
        self.mset = mset
        self.update_scope = update_scope
        self.sensitivity_threshold = sensitivity_threshold
        self.reuse_structures = reuse_structures
        self.warm_start = warm_start
        self.degrade_on_failure = degrade_on_failure
        self.condense = condense
        self.assignment = assign_measurements(dec, mset)
        self.exchange_sets = exchange_bus_sets(dec, threshold=sensitivity_threshold)
        #: what each subsystem publishes every Step-2 round, and the one
        #: thing the byte accounting, the live sites and the session's
        #: fabric exercise all read: ``plan[s][neighbour] = (bus ids, wire
        #: form)``.  The reference form sends the whole exchange set to
        #: every neighbour as a ``"state"`` update; the ``"condensed"`` form
        #: sends each neighbour only the tie-endpoint buses its extended
        #: network reads.
        self.publication_plan: dict[int, dict[int, tuple[np.ndarray, str]]] = (
            {
                s: {nb: (ids, "condensed") for nb, ids in per_nb.items()}
                for s, per_nb in neighbor_publication_sets(dec).items()
            }
            if condense
            else {
                s: {int(nb): (self.exchange_sets[s], "state") for nb in dec.neighbors(s)}
                for s in range(dec.m)
            }
        )
        #: the whole decomposition's Step-1 / Step-2 estimators as one
        #: stacked estimator each (:meth:`_stack`)
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
        self.n_boundary: dict[int, int] = {}
        for s in range(dec.m):
            own = dec.buses(s)
            internal = dec.internal_branches(s)
            ref = int(own[0])
            rows1 = self.assignment.step1[s]
            subnet1, bmap1, ms1, self._est1[s], perm1 = step1_problem(
                dec, self.mset, rows1, s
            )
            self.sub1[s] = (subnet1, bmap1, own, ms1)

            self.n_boundary[s] = len(dec.boundary_buses(s))
            ext = dec.external_boundary_buses(s)
            xbuses = np.concatenate([own, ext])
            xbranches = np.concatenate([internal, dec.incident_tie_lines(s)])
            subnet2, bmap2, brmap2 = extract_subnetwork(
                net, xbuses, xbranches, reference_bus=ref, name=f"sub{s}.step2"
            )
            rows2 = np.concatenate([rows1, self.assignment.step2_extra[s]])
            ms2 = localize_measurements(self.mset, rows2, bmap2, brmap2)
            self.sub2[s] = (subnet2, bmap2, xbuses, ext, ms2)
            # Values-only frames and local-row -> global-row maps: the
            # permutations taking global-row z slices into the canonical
            # order of the localized sets.
            self._z_index[s] = (
                rows1, perm1, rows2,
                _localized_perm(self.mset, rows2, bmap2, brmap2),
            )

            if not self.reuse_structures:
                continue
            # Persistent per-subsystem estimators: Step-2 pseudo
            # measurements have a fixed structure (V/θ pairs at the
            # external boundary buses), so the merged measurement set,
            # the estimator and all of its cached structures are built
            # once and only the pseudo *values* change per round.
            ext_local = bmap2[ext]
            pseudo0 = pseudo_measurements(
                ext_local, np.ones(len(ext)), np.zeros(len(ext))
            )
            full0, rows_ms2, rows_pseudo = ms2.merged_with_positions(pseudo0)
            order = np.argsort(ext_local, kind="stable")
            rows_vm = rows_pseudo[pseudo0.rows(MeasType.V_MAG)]
            rows_va = rows_pseudo[pseudo0.rows(MeasType.PMU_VA)]
            src = ext[order]  # global buses aligned with the sorted rows
            self._step2_cache[s] = (
                WlsEstimator(subnet2, full0), full0, rows_vm, rows_va, src, rows_ms2
            )

    def _stack(self, stage: str) -> WlsEstimator:
        """Every subsystem's cached ``stage`` (``"step1"`` / ``"step2"``)
        estimator as one stacked estimator, built on first use."""
        stack = self._stacks.get(stage)
        if stack is None:
            subsystems = range(self.dec.m)
            if stage == "step1":
                members = [self._est1[s] for s in subsystems]
            else:
                members = [self._est2(s) for s in subsystems]
            stack = self._stacks[stage] = WlsEstimator.stacked(members)
        return stack

    def _est2(self, s: int) -> WlsEstimator:
        """Subsystem ``s``'s cached Step-2 estimator."""
        return self._step2_cache[s][0]

    # ------------------------------------------------------------------
    # Values-only frames: fresh measurement vectors (and row weights) over
    # the cached structures (same placement, new telemetry values).
    # ------------------------------------------------------------------
    def _step1_z(self, s: int, z_full: np.ndarray) -> np.ndarray:
        """Step-1 local slice of a per-row frame vector (``z`` or weights)."""
        rows1, perm1, _, _ = self._z_index[s]
        return z_full[rows1][perm1]

    def _step2_meas_z(self, s: int, z_full: np.ndarray) -> np.ndarray:
        """Step-2 measured (non-pseudo) local slice of a per-row frame
        vector (``z`` or weights)."""
        _, _, rows2, perm2 = self._z_index[s]
        return z_full[rows2][perm2]

    def _step2_inputs(
        self,
        s: int,
        published_vm: np.ndarray,
        published_va: np.ndarray,
        known: np.ndarray,
        last2: dict,
        z_full: np.ndarray | None,
        w_full: np.ndarray | None,
    ) -> tuple:
        """Step-2 solve inputs ``(z, weights, (x0_vm, x0_va))`` for
        subsystem ``s`` — the same arrays whichever host solves it.  The
        pseudo rows of an external bus not ``known``
        (a neighbour not heard from) weigh 0; ``weights`` is ``None`` when
        the cached set's own serve."""
        _, full0, rows_vm, rows_va, src, rows_ms2 = self._step2_cache[s]
        z = full0.z.copy()
        if z_full is not None:
            z[rows_ms2] = self._step2_meas_z(s, z_full)
        z[rows_vm] = published_vm[src]
        z[rows_va] = published_va[src]
        w, unheard = None, ~known[src]
        if w_full is not None or unheard.any():
            w = full0.weights
            if w_full is not None:
                w[rows_ms2] = self._step2_meas_z(s, w_full)
            w[rows_vm[unheard]] = w[rows_va[unheard]] = 0.0
        return z, w, self._step2_start(s, published_vm, published_va, last2)

    def _step2_start(
        self,
        s: int,
        published_vm: np.ndarray,
        published_va: np.ndarray,
        last2: dict,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step-2 start ``(x0_vm, x0_va)`` over subsystem ``s``'s extended
        network: where its previous round stopped, unchanged, or the
        published state on the first round.  What the neighbours said
        since is in the pseudo-measurement values of ``z``; writing it
        over the start's external buses too would push the start off the
        round's own fixed point (the extended solve's estimate of those
        buses sits ~1e-3 pu from the published value in every round) and
        cost every round its warm start."""
        if self.warm_start and s in last2:
            return last2[s]
        xbuses = self.sub2[s][2]
        return published_vm[xbuses], published_va[xbuses]

    # ------------------------------------------------------------------
    def _round_wire_bytes(self, s: int, rnd: int) -> int:
        """Actual packed payload bytes subsystem ``s`` puts on the wire in
        Step-2 round ``rnd`` when every neighbour is another host — the
        exact frame sizes the live fabric sends for the publication plan,
        so in-process and live-runtime byte accounting agree byte-for-byte.
        Condensed round 0 carries the bus ids; later rounds are values-only
        over the receiver's a-priori ordering.
        """
        return sum(
            condensed_update_nbytes(len(ids), values_only=rnd > 0)
            if form == "condensed"
            else state_update_nbytes(len(ids))
            for ids, form in self.publication_plan[s].values()
        )

    def _frame_z(self, z) -> np.ndarray | None:
        """A validated values-only measurement vector (``None`` passes)."""
        if z is None:
            return None
        if not self.reuse_structures:
            raise ValueError(
                "values-only frames (z=) require reuse_structures=True"
            )
        z = np.asarray(z, dtype=float)
        if len(z) != len(self.mset):
            raise ValueError("z override length mismatch")
        return z

    def _frame_weights(self, weights) -> np.ndarray | None:
        """Validated row weights: one finite value >= 0 per row of the
        measurement set (``None`` passes; :func:`check_rows` names the
        first offending row)."""
        if weights is None:
            return None
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(self.mset),):
            raise ValueError(f"weights must be {len(self.mset)} finite values >= 0")
        check_rows(weights=w)
        return w

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        rounds: int | None = None,
        tol: float = 1e-8,
        x0: tuple[np.ndarray, np.ndarray] | None = None,
        z: np.ndarray | None = None,
        weights: np.ndarray | None = None,
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
        ``weights`` is the frame's row weights in the same order (default
        the set's own ``1/σ²``): a zero removes its row from every Step-1
        and Step-2 solve, which is how a row screened out as bad data
        leaves the frame without a new estimator.
        """
        check_run_args(rounds, tol)
        frame = dict(rounds=rounds, tol=tol, x0=x0, z=z, weights=weights)
        if not obs.enabled():
            return self._run_impl(**frame)
        t0 = time.perf_counter()
        with obs.span("dse.frame", m=self.dec.m) as sp:
            result = self._run_impl(**frame)
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
        weights: np.ndarray | None,
    ) -> DseResult:
        """One stepper hosting every subsystem: all neighbours are
        co-hosted, so the exchange is the stepper's own view."""
        if rounds is None:
            rounds = max(1, self.dec.diameter())
        stepper = SubsystemStepper(
            self, range(self.dec.m), tol=tol, z=self._frame_z(z), x0=x0,
            weights=self._frame_weights(weights),
        )
        stepper.step1()
        for rnd in range(rounds):
            stepper.step2_round(rnd)
        # ---- Final step: solutions already aggregated in (Vm, Va) ----
        return DseResult(
            Vm=stepper.Vm, Va=stepper.Va, rounds=rounds,
            records=stepper.records, round_deltas=stepper.round_deltas,
            degraded_subsystems=sorted(
                s for s, rec in stepper.records.items() if rec.degraded
            ),
        )

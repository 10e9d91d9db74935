"""Hierarchical state estimation (the industry-practice baseline).

Two-level scheme (paper, section I): each balancing-authority subsystem runs
a local WLS with its *own* angle reference, then a centralized coordinator
aligns the references.  The coordinator estimates one angle offset per
subsystem from the tie-line flow measurements (and any PMU angles) via a
small Gauss-Newton problem on the full network model — the classical
coordination step of multi-area estimators.

Unlike the decentralized DSE, all coordination data flows to a single
coordinator: the communication structure the paper contrasts against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..estimation.results import EstimationResult, state_error
from ..estimation.solvers import GainSolver, GainSolveError
from ..estimation.wls import EstimationError
from ..measurements.functions import MeasurementModel
from ..measurements.types import MeasType, MeasurementSet
from ..middleware.message import state_update_nbytes
from .algorithm import step1_problem
from .decomposition import Decomposition
from .pseudo import assign_measurements

__all__ = ["HierarchicalResult", "HierarchicalStateEstimator"]


@dataclass
class HierarchicalResult:
    """Outcome of a hierarchical estimation."""

    Vm: np.ndarray
    Va: np.ndarray
    offsets: np.ndarray
    local_results: dict[int, EstimationResult]
    coordinator_iterations: int
    local_times: dict[int, float] = field(default_factory=dict)
    coordinator_time: float = 0.0
    bytes_to_coordinator: int = 0

    def state_error(self, Vm_true: np.ndarray, Va_true: np.ndarray) -> dict:
        return state_error(self.Vm, self.Va, Vm_true, Va_true)


class HierarchicalStateEstimator:
    """Two-level hierarchical estimator over a decomposition.

    Parameters
    ----------
    dec:
        Subsystem decomposition (balancing authorities).
    mset:
        System-wide measurement snapshot.
    """

    def __init__(self, dec: Decomposition, mset: MeasurementSet):
        self.dec = dec
        self.mset = mset
        self.assignment = assign_measurements(dec, mset)
        #: level 1 is the DSE's Step 1: the same problems, built the same way
        self._level1 = [
            step1_problem(dec, mset, self.assignment.step1[s], s)[3]
            for s in range(dec.m)
        ]

    def run(self, *, coord_iters: int = 5, tol: float = 1e-10) -> HierarchicalResult:
        """Run local estimations, then the coordinator alignment.

        Raises :class:`~repro.estimation.wls.EstimationError` when the
        coordinator's gain does not factor — a subsystem whose offset no
        coordination row observes."""
        dec, net = self.dec, self.dec.net
        Vm = np.ones(net.n_bus)
        Va = np.zeros(net.n_bus)
        local_results: dict[int, EstimationResult] = {}
        local_times: dict[int, float] = {}

        # ---- Level 1: local estimations with local references ----
        for s, est in enumerate(self._level1):
            own = dec.buses(s)
            t0 = time.perf_counter()
            res = est.estimate(tol=1e-8)
            local_times[s] = time.perf_counter() - t0
            local_results[s] = res
            Vm[own] = res.Vm
            Va[own] = res.Va

        # ---- Level 2: coordinator aligns per-subsystem angle offsets ----
        coord_rows = self._coordination_rows()
        coord = self.mset.subset(coord_rows)
        model = MeasurementModel(net, coord)
        membership = sp.csr_matrix(
            (np.ones(net.n_bus), (np.arange(net.n_bus), dec.part)),
            shape=(net.n_bus, dec.m),
        )
        # Reference: subsystem 0's offset pinned at zero unless PMU angles
        # provide an absolute reference.
        has_pmu = coord.count(MeasType.PMU_VA) > 0
        free = np.arange(1, dec.m) if not has_pmu else np.arange(dec.m)

        alpha = np.zeros(dec.m)
        w = coord.weights
        solver = GainSolver()
        t0 = time.perf_counter()
        iters = 0
        for iters in range(1, coord_iters + 1):
            va_glob = Va + alpha[dec.part]
            r = coord.z - model.h(Vm, va_glob)
            H = model.jacobian(Vm, va_glob).tocsc()[:, : net.n_bus]
            J = (H @ membership).tocsc()[:, free]
            try:
                da = solver.solve(J, w, r)
            except GainSolveError as exc:
                raise EstimationError(
                    f"hierarchical coordinator: offset solve failed: {exc}"
                ) from exc
            alpha[free] += da
            if np.max(np.abs(da)) < tol:
                break
        coord_time = time.perf_counter() - t0

        Va = Va + alpha[dec.part]
        # Uplink accounting uses the same packed-frame sizes as the DSE's
        # wire accounting: one state-update frame of boundary states per
        # subsystem plus one frame's worth of coordination rows.
        bytes_up = sum(
            state_update_nbytes(len(dec.boundary_buses(s)))
            for s in range(dec.m)
        ) + state_update_nbytes(len(coord_rows))

        return HierarchicalResult(
            Vm=Vm,
            Va=Va,
            offsets=alpha,
            local_results=local_results,
            coordinator_iterations=iters,
            local_times=local_times,
            coordinator_time=coord_time,
            bytes_to_coordinator=bytes_up,
        )

    # ------------------------------------------------------------------
    def _coordination_rows(self) -> np.ndarray:
        """Measurement rows the coordinator uses: tie-line flows, boundary
        injections and PMU angles."""
        dec, ms = self.dec, self.mset
        ties = set(dec.tie_lines.tolist())
        boundary = set(
            np.concatenate([dec.boundary_buses(s) for s in range(dec.m)]).tolist()
        )
        rows = []
        for row, m in enumerate(ms):
            if m.mtype in (MeasType.P_FLOW_F, MeasType.Q_FLOW_F, MeasType.P_FLOW_T,
                           MeasType.Q_FLOW_T, MeasType.I_MAG_F):
                if m.element in ties:
                    rows.append(row)
            elif m.mtype in (MeasType.P_INJ, MeasType.Q_INJ):
                if m.element in boundary:
                    rows.append(row)
            elif m.mtype == MeasType.PMU_VA:
                rows.append(row)
        return np.array(rows, dtype=np.int64)

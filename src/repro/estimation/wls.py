"""Weighted-least-squares state estimation (Gauss-Newton).

The estimator solves ``min_x (z - h(x))ᵀ W (z - h(x))`` over the polar state
``x = [Va; Vm]`` by iterating the normal equations (Abur & Expósito, ch. 2;
the paper's section IV-C).  The angle reference is handled by eliminating
the slack bus angle column unless the measurement set contains synchronized
PMU angles, in which case the state is fully determined and no column is
dropped.
"""

from __future__ import annotations

import time

import numpy as np

from .. import obs
from ..grid.network import Network
from ..measurements.functions import MeasurementModel
from ..measurements.types import MeasType, MeasurementSet
from .results import EstimationResult
from .solvers import GainSolver

__all__ = ["EstimationError", "WlsEstimator", "estimate_state"]


class EstimationError(RuntimeError):
    """Raised when the estimator cannot produce a solution."""


class WlsEstimator:
    """Gauss-Newton WLS estimator over a fixed network + measurement set.

    Parameters
    ----------
    net:
        The (sub)network being estimated.
    mset:
        Measurements; must make the network observable.
    solver:
        Normal-equation strategy: ``"lu"`` (default), ``"pcg"`` or
        ``"lsqr"``.
    reference_bus:
        Bus index whose angle is fixed when no PMU angles are present
        (default: the network's first slack bus).
    pcg_preconditioner:
        Preconditioner for ``solver="pcg"``.
    use_cache:
        When true (default), iterations refill the precomputed Jacobian
        sparsity pattern instead of re-deriving it, and the normal-equation
        solver reuses its symbolic analysis across iterations.  The slow
        path (``False``) is the uncached reference implementation; both
        agree to floating-point round-off.
    """

    def __init__(
        self,
        net: Network,
        mset: MeasurementSet,
        *,
        solver: str = "lu",
        reference_bus: int | None = None,
        pcg_preconditioner="jacobi",
        use_cache: bool = True,
    ):
        self.net = net
        self.mset = mset
        self.model = MeasurementModel(net, mset)
        self.solver = solver
        self.pcg_preconditioner = pcg_preconditioner
        self.use_cache = use_cache
        self.has_pmu_angles = mset.count(MeasType.PMU_VA) > 0
        if reference_bus is None:
            slacks = net.slack_buses
            reference_bus = int(slacks[0]) if len(slacks) else 0
        self.reference_bus = int(reference_bus)

        n = net.n_bus
        if self.has_pmu_angles:
            self._keep = np.arange(2 * n)
        else:
            self._keep = np.delete(np.arange(2 * n), self.reference_bus)
        self._gain_solver = GainSolver(
            solver, pcg_preconditioner=pcg_preconditioner
        )

    @property
    def n_states(self) -> int:
        """Number of free state variables."""
        return len(self._keep)

    def _jacobian_at(self, Vm: np.ndarray, Va: np.ndarray):
        if self.use_cache:
            return self.model.jacobian_reduced(Vm, Va, self._keep)
        return self.model.jacobian(Vm, Va).tocsc()[:, self._keep]

    def estimate(
        self,
        *,
        x0: tuple[np.ndarray, np.ndarray] | None = None,
        tol: float = 1e-8,
        max_iter: int = 25,
        reference_angle: float = 0.0,
        z: np.ndarray | None = None,
    ) -> EstimationResult:
        """Run Gauss-Newton from ``x0`` (default flat start).

        ``z`` optionally overrides the measured values of the estimator's
        measurement set (same canonical order, e.g. a fresh telemetry scan
        or updated pseudo measurements over an unchanged structure).

        Returns an :class:`EstimationResult`; raises
        :class:`EstimationError` on a failed normal-equation solve (e.g.
        unobservable network).
        """
        t_start = time.perf_counter() if obs.enabled() else 0.0
        net, model, ms = self.net, self.model, self.mset
        n = net.n_bus
        if len(ms) < self.n_states:
            raise EstimationError(
                f"underdetermined: {len(ms)} measurements for "
                f"{self.n_states} states"
            )
        if z is None:
            z = ms.z
        elif len(z) != len(ms):
            raise ValueError("z override length mismatch")

        if x0 is None:
            Vm = np.ones(n)
            Va = np.full(n, reference_angle)
        else:
            Vm, Va = x0[0].copy(), x0[1].copy()
        if not self.has_pmu_angles:
            Va[self.reference_bus] = reference_angle

        w = ms.weights
        # Cached path: the Jacobian is a data vector on the structure's
        # fixed pattern and never becomes a sparse matrix.
        if self.use_cache:
            solver = self._gain_solver
            structure = model.jacobian_structure(self._keep)
            pattern = structure.pattern
        else:
            solver = GainSolver(
                self.solver, pcg_preconditioner=self.pcg_preconditioner
            )
        step_norms: list[float] = []
        converged = False
        it = 0
        # The residual is evaluated once per state: initially, and after
        # every update — the final iteration's post-update evaluation is
        # reused for the reported residuals/objective instead of being
        # recomputed after the loop.
        r = z - model.h(Vm, Va)
        for it in range(1, max_iter + 1):
            try:
                if self.use_cache:
                    dx = solver.solve_csc(
                        *pattern, structure.fill_data(Vm, Va), w, r
                    )
                else:
                    dx = solver.solve(self._jacobian_at(Vm, Va), w, r)
            except Exception as exc:
                raise EstimationError(f"normal-equation solve failed: {exc}") from exc

            full_dx = np.zeros(2 * n)
            full_dx[self._keep] = dx
            Va += full_dx[:n]
            Vm += full_dx[n:]
            r = z - model.h(Vm, Va)
            step = float(np.max(np.abs(dx))) if len(dx) else 0.0
            step_norms.append(step)
            if step < tol:
                converged = True
                break

        objective = float(r @ (w * r))
        if obs.enabled():
            reg = obs.metrics()
            reg.histogram("wls.estimate.seconds", solver=self.solver).observe(
                time.perf_counter() - t_start
            )
            reg.counter("wls.iterations_total", solver=self.solver).inc(it)
        return EstimationResult(
            converged=converged,
            iterations=it,
            Vm=Vm,
            Va=Va,
            residuals=r,
            objective=objective,
            dof=len(ms) - self.n_states,
            step_norms=step_norms,
        )


def estimate_state(
    net: Network,
    mset: MeasurementSet,
    *,
    solver: str = "lu",
    **kwargs,
) -> EstimationResult:
    """One-call WLS estimation (constructs a :class:`WlsEstimator`)."""
    est = WlsEstimator(net, mset, solver=solver)
    return est.estimate(**kwargs)

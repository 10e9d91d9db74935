"""Batched (SIMD-over-scenarios) WLS state estimation.

``BatchEstimator`` runs Gauss-Newton over K scenarios *simultaneously*:
all scenarios share one network pattern and one measurement structure, so
their states stack into ``(K, n)`` arrays, h(x)/H(x) evaluate as batched
array kernels over one cached :class:`~repro.measurements.functions.JacobianStructure`,
and each iteration assembles all K normal equations in one vectorised
numeric pass (:class:`~repro.estimation.solvers.BatchGainSolver`).

Iteration semantics mirror :class:`~repro.estimation.wls.WlsEstimator`
per scenario: each scenario tracks its own residual, step norm, iteration
count and convergence flag, and drops out of the active set the moment its
step falls below tolerance (a convergence *mask* — early finishers stop
contributing work while slow scenarios iterate on).  A batch of one is
delegated to the serial estimator outright, so K=1 results are bitwise
identical to ``WlsEstimator``; for K>1 the only differences are
floating-point round-off from the batched kernels.

Scenarios are cheap: a :class:`~repro.grid.delta.NetworkDelta` (branch
flips, measurement-vector overrides, warm starts) against one shared base
— never a network copy per scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..grid.delta import NetworkDelta
from ..grid.network import Network
from ..measurements.functions import MeasurementModel
from ..measurements.types import MeasType, MeasurementSet
from .results import EstimationResult
from .solvers import BatchGainSolver
from .wls import EstimationError, WlsEstimator

__all__ = ["BatchEstimationResult", "BatchEstimator", "BatchScenario"]


@dataclass(frozen=True)
class BatchScenario:
    """One scenario of a batched estimation.

    Attributes
    ----------
    delta:
        Copy-on-write difference against the estimator's base network
        (``None`` = the base itself).  Only branch-status flips affect the
        estimation model; injection overrides matter to power-flow-based
        consumers sharing the same delta.
    z:
        Optional measurement-vector override (canonical order of the
        estimator's measurement set), e.g. a fresh telemetry scan.
    x0:
        Optional ``(Vm, Va)`` warm start; flat start when omitted.
    label:
        Human-readable scenario tag.
    """

    delta: NetworkDelta | None = None
    z: np.ndarray | None = None
    x0: tuple[np.ndarray, np.ndarray] | None = None
    label: str = ""


@dataclass
class BatchEstimationResult:
    """Results of one batched estimation, per scenario and stacked.

    ``results[k]`` is a full :class:`EstimationResult` for scenario k
    (identical fields to the serial estimator); the stacked ``Vm``/``Va``
    ``(K, n)`` views and the ``converged``/``iterations`` vectors serve
    batch-level consumers.
    """

    results: list[EstimationResult] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, k: int) -> EstimationResult:
        return self.results[k]

    @property
    def Vm(self) -> np.ndarray:
        return np.stack([r.Vm for r in self.results])

    @property
    def Va(self) -> np.ndarray:
        return np.stack([r.Va for r in self.results])

    @property
    def converged(self) -> np.ndarray:
        return np.array([r.converged for r in self.results])

    @property
    def iterations(self) -> np.ndarray:
        return np.array([r.iterations for r in self.results])


class BatchEstimator:
    """Gauss-Newton WLS over K scenarios sharing one base network + mset.

    Parameters
    ----------
    net, mset:
        Base network and measurement set (as for ``WlsEstimator``).
    solver:
        ``"lu"`` (default) runs the batched normal-equation kernel.  Any
        other ``WlsEstimator`` solver string is accepted but falls back to
        per-scenario serial estimation (the batched normal-equation kernel
        is LU-only).
    reference_bus:
        Angle reference when no PMU angles are present (default: first
        slack bus).
    max_batch:
        Upper bound on scenarios per batched solve; larger batches are
        chunked to bound the stacked working set.
    """

    def __init__(
        self,
        net: Network,
        mset: MeasurementSet,
        *,
        solver: str = "lu",
        reference_bus: int | None = None,
        max_batch: int = 64,
    ):
        self.net = net
        self.mset = mset
        self.solver = solver
        self.model = MeasurementModel(net, mset)
        self.max_batch = int(max_batch)
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
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
        self._bsolver = BatchGainSolver()
        self._wls_base: WlsEstimator | None = None

    @property
    def n_states(self) -> int:
        """Number of free state variables per scenario."""
        return len(self._keep)

    # ------------------------------------------------------------------
    def _serial_for(self, delta: NetworkDelta | None) -> WlsEstimator:
        """A serial estimator on the (forked) scenario network."""
        if delta is None or delta.is_empty:
            if self._wls_base is None:
                self._wls_base = WlsEstimator(
                    self.net, self.mset,
                    solver=self.solver, reference_bus=self.reference_bus,
                )
            return self._wls_base
        return WlsEstimator(
            self.net.fork(delta), self.mset,
            solver=self.solver, reference_bus=self.reference_bus,
        )

    @staticmethod
    def _as_scenario(sc) -> BatchScenario:
        if sc is None:
            return BatchScenario()
        if isinstance(sc, BatchScenario):
            return sc
        if isinstance(sc, NetworkDelta):
            return BatchScenario(delta=sc, label=sc.label)
        raise TypeError(f"cannot interpret {type(sc).__name__} as a scenario")

    # ------------------------------------------------------------------
    def estimate(self, scenario=None, **kwargs) -> EstimationResult:
        """Single-scenario convenience wrapper (serial path)."""
        return self.estimate_batch([scenario], **kwargs).results[0]

    def estimate_batch(
        self,
        scenarios,
        *,
        tol: float = 1e-8,
        max_iter: int = 25,
        reference_angle: float = 0.0,
    ) -> BatchEstimationResult:
        """Estimate every scenario; one batched solve per iteration per chunk.

        Accepts :class:`BatchScenario` items, bare ``NetworkDelta`` items,
        or ``None`` (the base case).  Raises :class:`EstimationError` on an
        underdetermined set or a failed normal-equation solve, like the
        serial estimator.
        """
        scs = [self._as_scenario(s) for s in scenarios]
        if len(self.mset) < self.n_states:
            raise EstimationError(
                f"underdetermined: {len(self.mset)} measurements for "
                f"{self.n_states} states"
            )
        out = BatchEstimationResult()
        for lo in range(0, len(scs), self.max_batch):
            chunk = scs[lo : lo + self.max_batch]
            if len(chunk) == 1 or self.solver != "lu":
                for sc in chunk:
                    est = self._serial_for(sc.delta)
                    out.results.append(
                        est.estimate(
                            x0=sc.x0, tol=tol, max_iter=max_iter,
                            reference_angle=reference_angle, z=sc.z,
                        )
                    )
            else:
                out.results.extend(
                    self._estimate_chunk(chunk, tol, max_iter, reference_angle)
                )
        return out

    # ------------------------------------------------------------------
    def _estimate_chunk(
        self,
        scs: list[BatchScenario],
        tol: float,
        max_iter: int,
        reference_angle: float,
    ) -> list[EstimationResult]:
        net, model, ms = self.net, self.model, self.mset
        n, m = net.n_bus, len(ms)
        K = len(scs)

        z = np.empty((K, m))
        for k, sc in enumerate(scs):
            if sc.z is None:
                z[k] = ms.z
            elif len(sc.z) != m:
                raise ValueError("z override length mismatch")
            else:
                z[k] = sc.z

        # Per-scenario admittances only when some delta flips a branch;
        # otherwise one broadcast column serves the whole batch.
        if any(sc.delta is not None and sc.delta.touches_topology for sc in scs):
            status = np.repeat(net.br_status[None, :].astype(float), K, axis=0)
            for k, sc in enumerate(scs):
                if sc.delta is not None and len(sc.delta.br_idx):
                    status[k, sc.delta.br_idx] = sc.delta.br_val
            ops = model.batch_operators(status)
        else:
            ops = model.batch_operators()

        Vm = np.ones((K, n))
        Va = np.full((K, n), reference_angle)
        for k, sc in enumerate(scs):
            if sc.x0 is not None:
                Vm[k] = sc.x0[0]
                Va[k] = sc.x0[1]
        if not self.has_pmu_angles:
            Va[:, self.reference_bus] = reference_angle

        w = ms.weights
        structure = model.jacobian_structure(self._keep)
        pattern = structure.pattern
        ns = self.n_states

        iterations = np.zeros(K, dtype=np.int64)
        converged = np.zeros(K, dtype=bool)
        step_norms: list[list[float]] = [[] for _ in range(K)]
        active = np.arange(K)

        r = z - model.h_batch(Vm, Va, ops)
        it = 0
        while len(active) and it < max_iter:
            it += 1
            sel = ops.select(active)
            data = structure.fill_batch_data(Vm[active], Va[active], sel)
            try:
                dx = self._bsolver.solve_csc(*pattern, data, w, r[active])
            except Exception as exc:
                raise EstimationError(
                    f"normal-equation solve failed: {exc}"
                ) from exc

            full_dx = np.zeros((len(active), 2 * n))
            full_dx[:, self._keep] = dx
            Va[active] += full_dx[:, :n]
            Vm[active] += full_dx[:, n:]
            r[active] = z[active] - model.h_batch(Vm[active], Va[active], sel)
            steps = (
                np.max(np.abs(dx), axis=1) if ns else np.zeros(len(active))
            )
            iterations[active] = it
            for j, k in enumerate(active):
                step_norms[k].append(float(steps[j]))
            done = steps < tol
            converged[active[done]] = True
            active = active[~done]

        return [
            EstimationResult(
                converged=bool(converged[k]),
                iterations=int(iterations[k]),
                Vm=Vm[k],
                Va=Va[k],
                residuals=r[k],
                objective=float(r[k] @ (w * r[k])),
                dof=m - ns,
                step_norms=step_norms[k],
            )
            for k in range(K)
        ]

"""Scenario batches: K scenarios as K replica blocks of one estimator.

A scenario is a block.  ``BatchEstimator`` owns one
:class:`~repro.estimation.wls.WlsEstimator` — one measurement model, one
Jacobian pattern, one normal-equation kernel — and turns a list of
scenarios into the ``x0`` / ``z`` / branch-status lists of
:meth:`~repro.estimation.wls.WlsEstimator.estimate_blocks`, the one masked
Gauss-Newton loop: the K states stack along a trailing axis, h(x)/H(x)
evaluate for all of them in one pass of the one-state formulas, each
iteration assembles all K normal equations in one vectorised numeric pass,
and every scenario keeps its own step norm, iteration count and
convergence flag, leaves the stack the moment it converges — or fails,
alone, with its own typed error.

While no scenario of a chunk flips a branch, every result is bit for bit
what the serial estimator returns for that scenario.  A chunk with
what-ifs re-values the branch admittances per scenario on the base
network's patterns (no model is built for a fork) and agrees with the
estimator on the forked network to floating-point round-off.

Scenarios are cheap: a :class:`~repro.grid.delta.NetworkDelta` (branch
flips, measurement-vector overrides, warm starts) against one shared base
— never a network copy per scenario.  ``docs/batching.md`` has the design,
its measured costs and the alternatives it was chosen over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..grid.delta import NetworkDelta
from ..grid.network import Network
from ..measurements.types import MeasurementSet
from .results import EstimationResult
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

    A facade over one :class:`~repro.estimation.wls.WlsEstimator`: it turns
    scenarios into the ``x0`` / ``z`` / branch-status lists of
    :meth:`~repro.estimation.wls.WlsEstimator.estimate_blocks`, whose
    Gauss-Newton loop runs them as replica blocks of the one model.

    Parameters
    ----------
    net, mset:
        Base network and measurement set (as for ``WlsEstimator``).
    reference_bus:
        Angle reference when no PMU angles are present (default: first
        slack bus).
    max_batch:
        Upper bound on scenarios per stacked solve; larger batches are
        chunked to bound the stacked working set.
    """

    def __init__(
        self,
        net: Network,
        mset: MeasurementSet,
        *,
        reference_bus: int | None = None,
        max_batch: int = 64,
    ):
        self.max_batch = int(max_batch)
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.net = net
        self.mset = mset
        self._wls = WlsEstimator(net, mset, reference_bus=reference_bus)

    @property
    def n_states(self) -> int:
        """Number of free state variables per scenario."""
        return self._wls.n_states

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
        """Single-scenario convenience wrapper."""
        return self.estimate_batch([scenario], **kwargs).results[0]

    def estimate_batch(self, scenarios, **kwargs) -> BatchEstimationResult:
        """Estimate every scenario; one stacked solve per iteration per
        chunk.

        Accepts :class:`BatchScenario` items, bare ``NetworkDelta`` items,
        or ``None`` (the base case), and the keywords of :meth:`outcomes`.
        Raises the first failing scenario's :class:`EstimationError`
        (underdetermined set, failed normal-equation solve), like the
        serial estimator.
        """
        results = self.outcomes(scenarios, **kwargs)
        for res in results:
            if isinstance(res, EstimationError):
                raise res
        return BatchEstimationResult(results)

    def outcomes(
        self,
        scenarios,
        *,
        tol: float = 1e-8,
        max_iter: int = 25,
        reference_angle: float = 0.0,
    ) -> list[EstimationResult | EstimationError]:
        """Every scenario's own outcome, in order: its result, or the
        :class:`EstimationError` its solve ended in (a delta that islands
        the grid, an unobservable thinning) — one scenario failing leaves
        the rest of its chunk untouched."""
        scs = [self._as_scenario(s) for s in scenarios]
        kwargs = dict(tol=tol, max_iter=max_iter, reference_angle=reference_angle)
        out: list[EstimationResult | EstimationError] = []
        for lo in range(0, len(scs), self.max_batch):
            chunk = scs[lo : lo + self.max_batch]
            out += self._wls.estimate_blocks(
                x0=[sc.x0 for sc in chunk],
                z=[sc.z for sc in chunk],
                # only branch flips reach the estimation model; a scenario
                # without one runs on the base operators
                status=[
                    sc.delta.branch_status_of(self.net)
                    if sc.delta is not None and sc.delta.touches_topology
                    else None
                    for sc in chunk
                ],
                **kwargs,
            )
        return out

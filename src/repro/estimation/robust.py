"""Robust state estimation: the Huber M-estimator via IRLS.

The WLS estimator is optimal for Gaussian noise but a single gross error
drags the whole solution (hence the bad-data post-processing).  The Huber
M-estimator bounds each measurement's influence instead: residuals beyond
``gamma`` standard deviations get down-weighted by ``gamma/|r_N|``.
Solved by iteratively reweighted least squares around the Gauss-Newton
loop — a robustness extension of the paper's estimation layer.  Only the
reweighting lives here: an iteration is one step of the estimator's own
loop (``estimate(max_iter=1)``) given the Huber weights as data.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..grid.network import Network
from ..measurements.types import MeasurementSet
from .results import EstimationResult
from .wls import WlsEstimator

__all__ = ["huber_estimate"]


def huber_estimate(
    net: Network,
    mset: MeasurementSet,
    *,
    gamma: float = 1.5,
    tol: float = 1e-8,
    max_iter: int = 50,
    reference_bus: int | None = None,
) -> EstimationResult:
    """Huber M-estimation of the state.

    Parameters
    ----------
    gamma:
        Huber threshold in standardized-residual units (1.5 is the usual
        95%-efficiency choice).
    tol, max_iter:
        Convergence controls on the combined IRLS/Gauss-Newton loop.

    Returns an :class:`EstimationResult`; ``objective`` is the final
    *weighted* quadratic objective under the converged robust weights.
    Raises :class:`~repro.estimation.wls.EstimationError` on an
    underdetermined set or a failed solve.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    est = WlsEstimator(net, mset, reference_bus=reference_bus)
    res = est.estimate(max_iter=0)      # the residuals at the flat start
    step_norms: list[float] = []
    it = factorizations = 0
    for it in range(1, max_iter + 1):
        # Huber reweighting on standardized residuals.
        rn = np.abs(res.residuals) / mset.sigma
        scale = np.where(rn > gamma, gamma / np.maximum(rn, 1e-12), 1.0)
        res = est.estimate(
            x0=(res.Vm, res.Va), weights=mset.weights * scale, tol=tol, max_iter=1
        )
        step_norms += res.step_norms
        factorizations += res.factorizations
        if res.converged:
            break
    return replace(
        res, iterations=it, step_norms=step_norms, factorizations=factorizations
    )

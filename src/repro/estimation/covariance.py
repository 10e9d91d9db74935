"""Estimation uncertainty: state covariance and confidence intervals.

For WLS with Gaussian noise, the state estimate is asymptotically
distributed as ``x̂ ~ N(x*, G⁻¹)`` with gain ``G = Hᵀ W H`` evaluated at
the solution.  The diagonal of ``G⁻¹`` gives per-state variances — the
error bars operators need before trusting an estimate, and the quantities
pseudo-measurement sigmas should reflect when neighbours exchange their
boundary solutions in DSE Step 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.stats import norm

from .results import EstimationResult
from .wls import WlsEstimator

__all__ = ["StateCovariance", "state_covariance"]


@dataclass
class StateCovariance:
    """Per-bus standard deviations of the estimated state.

    ``va_std``/``vm_std`` are aligned with bus indices; the reference bus
    (fixed angle) carries zero angle deviation when no PMU anchors exist.
    """

    vm_std: np.ndarray
    va_std: np.ndarray
    reference_bus: int | None

    def confidence_interval(
        self, result: EstimationResult, *, level: float = 0.95
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(Vm_lo, Vm_hi, Va_lo, Va_hi) at the given confidence level."""
        if not 0 < level < 1:
            raise ValueError("level must be in (0, 1)")
        z = norm.ppf(0.5 + level / 2)
        return (
            result.Vm - z * self.vm_std,
            result.Vm + z * self.vm_std,
            result.Va - z * self.va_std,
            result.Va + z * self.va_std,
        )


def state_covariance(
    estimator: WlsEstimator, result: EstimationResult
) -> StateCovariance:
    """Diagonal of ``G⁻¹`` at the solution, mapped back to bus order.

    Multi-right-hand-side solves against the estimator's own gain factor
    (:meth:`WlsEstimator.factor_at`; no dense inverse is formed).
    """
    n = estimator.net.n_bus
    factor, _ = estimator.factor_at(result.Vm, result.Va)
    diag = factor.quadratic_diagonal(sp.identity(estimator.n_states, format="csr"))

    var = np.zeros(2 * n)
    var[estimator._keep] = np.maximum(diag, 0.0)
    return StateCovariance(
        vm_std=np.sqrt(var[n:]),
        va_std=np.sqrt(var[:n]),
        reference_bus=None if estimator.has_pmu_angles else estimator.reference_bus,
    )

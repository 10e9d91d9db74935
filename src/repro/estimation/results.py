"""Estimation result containers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["EstimationResult", "state_error"]


def state_error(
    Vm: np.ndarray, Va: np.ndarray, Vm_true: np.ndarray, Va_true: np.ndarray
) -> dict:
    """Accuracy metrics of a state ``(Vm, Va)`` against a known true state.

    Angles are compared after removing any common reference shift, since
    a SCADA-only estimate is only determined up to the slack reference.
    """
    dva = Va - Va_true
    dva -= dva.mean()
    return {
        "vm_rmse": float(np.sqrt(np.mean((Vm - Vm_true) ** 2))),
        "va_rmse": float(np.sqrt(np.mean(dva**2))),
        "vm_max": float(np.max(np.abs(Vm - Vm_true))),
        "va_max": float(np.max(np.abs(dva))),
    }


@dataclass
class EstimationResult:
    """Outcome of a WLS state estimation.

    Attributes
    ----------
    converged:
        Whether the Gauss-Newton iteration met its tolerance.
    iterations:
        Gauss-Newton iterations performed.
    Vm, Va:
        Estimated bus voltage magnitudes (p.u.) and angles (radians).
    residuals:
        Final measurement residuals ``z - h(x̂)`` in canonical order.
    objective:
        Weighted least-squares objective ``J(x̂) = rᵀ W r``.
    dof:
        Degrees of freedom ``m - n_states`` (redundancy of the fit).
    step_norms:
        Max-norm of the state update per iteration (convergence record).
    factorizations:
        Iterations that assembled and factored a fresh gain (``pcg`` /
        ``lsqr``: every iteration).  The others solved against a frozen
        operator: the Gauss-Newton loop's held factor in the linear tail,
        or a held factor from an estimator's store (the flat start's, a
        Step-2 round's carried one).  0 for estimators
        outside the Gauss-Newton loop.
    factored_at:
        ``(Vm, Va)`` where the Gauss-Newton loop took this solve's last
        gain factorization (``None``: it factored none) — the
        point a DSE Step-2 round carries that factor to the next at.
    """

    converged: bool
    iterations: int
    Vm: np.ndarray
    Va: np.ndarray
    residuals: np.ndarray
    objective: float
    dof: int
    step_norms: list[float] = field(default_factory=list)
    factorizations: int = 0
    factored_at: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def V(self) -> np.ndarray:
        """Complex estimated voltages."""
        return self.Vm * np.exp(1j * self.Va)

    def state_error(self, Vm_true: np.ndarray, Va_true: np.ndarray) -> dict:
        """Accuracy metrics against a known true state (:func:`state_error`)."""
        return state_error(self.Vm, self.Va, Vm_true, Va_true)

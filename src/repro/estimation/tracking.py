"""Tracking (forecasting-aided) state estimation across scan cycles.

Control centres re-estimate every SCADA scan; warm-starting each solve from
a prediction of the state cuts Gauss-Newton iterations — the mechanism
behind the paper's empirical iteration model ``Ni = g1·x + g2``: the
noisier the frame, the further the solution moves from the prediction and
the more iterations the solver spends.

The tracker uses exponential smoothing of the state trajectory
(Holt-style level+trend on every state variable) for the prediction, and
flags *anomalies* — frames whose innovation is far beyond the measurement
noise — which indicate sudden topology/load events rather than noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..grid.network import Network
from ..measurements.types import MeasurementSet
from .results import EstimationResult
from .wls import WlsEstimator

__all__ = ["TrackedFrame", "TrackingEstimator"]


@dataclass
class TrackedFrame:
    """Per-scan tracking record."""

    result: EstimationResult
    innovation_rms: float
    anomaly: bool
    predicted_Vm: np.ndarray
    predicted_Va: np.ndarray


class TrackingEstimator:
    """Warm-started WLS estimation over a sequence of scans.

    Parameters
    ----------
    net:
        The estimated network (fixed topology between ``reset`` calls).
    alpha, beta:
        Holt smoothing constants for level and trend (``beta=0`` disables
        the trend term, giving persistence forecasting).
    anomaly_threshold:
        Innovation RMS (in sigmas) above which a frame is flagged.
    """

    def __init__(
        self,
        net: Network,
        *,
        alpha: float = 0.7,
        beta: float = 0.3,
        anomaly_threshold: float = 5.0,
    ):
        if not 0 < alpha <= 1 or not 0 <= beta <= 1:
            raise ValueError("alpha in (0,1], beta in [0,1] required")
        self.net = net
        self.alpha = alpha
        self.beta = beta
        self.anomaly_threshold = anomaly_threshold
        self.reset()

    def reset(self) -> None:
        """Forget the trajectory and the kept estimator (e.g. after a
        topology change)."""
        self._est: WlsEstimator | None = None
        self._level_vm: np.ndarray | None = None
        self._level_va: np.ndarray | None = None
        self._trend_vm: np.ndarray | None = None
        self._trend_va: np.ndarray | None = None
        self.frames: list[TrackedFrame] = []

    # ------------------------------------------------------------------
    def predict(self) -> tuple[np.ndarray, np.ndarray]:
        """State prediction for the next scan (flat start when cold)."""
        n = self.net.n_bus
        if self._level_vm is None:
            return np.ones(n), np.zeros(n)
        return (
            self._level_vm + self._trend_vm,
            self._level_va + self._trend_va,
        )

    def step(self, mset: MeasurementSet, **estimate_kwargs) -> TrackedFrame:
        """Process one scan: predict, measure innovation, estimate, smooth.

        One estimator is kept per measurement placement: scans that differ
        in values only are served through its ``estimate(z=)``.
        """
        vm_pred, va_pred = self.predict()
        if self._est is None or not self._est.mset.same_structure(mset):
            self._est = WlsEstimator(self.net, mset)
        est = self._est
        innov = (mset.z - est.model.h(vm_pred, va_pred)) / mset.sigma
        innovation_rms = float(np.sqrt(np.mean(innov * innov))) if len(innov) else 0.0
        anomaly = self._level_vm is not None and (
            innovation_rms > self.anomaly_threshold
        )

        result = est.estimate(
            x0=(vm_pred.copy(), va_pred.copy()), z=mset.z, **estimate_kwargs
        )

        # Holt smoothing update.
        if self._level_vm is None or anomaly:
            # cold start / post-event: re-anchor the trajectory
            self._level_vm = result.Vm.copy()
            self._level_va = result.Va.copy()
            self._trend_vm = np.zeros_like(result.Vm)
            self._trend_va = np.zeros_like(result.Va)
        else:
            new_level_vm = self.alpha * result.Vm + (1 - self.alpha) * (
                self._level_vm + self._trend_vm
            )
            new_level_va = self.alpha * result.Va + (1 - self.alpha) * (
                self._level_va + self._trend_va
            )
            self._trend_vm = (
                self.beta * (new_level_vm - self._level_vm)
                + (1 - self.beta) * self._trend_vm
            )
            self._trend_va = (
                self.beta * (new_level_va - self._level_va)
                + (1 - self.beta) * self._trend_va
            )
            self._level_vm = new_level_vm
            self._level_va = new_level_va

        frame = TrackedFrame(
            result=result,
            innovation_rms=innovation_rms,
            anomaly=bool(anomaly),
            predicted_Vm=vm_pred,
            predicted_Va=va_pred,
        )
        self.frames.append(frame)
        return frame

"""Noise-level estimation per time frame — the paper's ``x = f(δt)``.

The mapping method needs the measurement noise level of the current time
frame *before* running the estimation, because the expected iteration count
(and hence the vertex weights) depends on it.  The innovation estimator
compares the fresh measurements against the prediction from the previous
state: standardized innovations have standard deviation ≈ the noise level
when the operating point drifts slowly between scans.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..grid.network import Network
from ..measurements.functions import MeasurementModel
from ..measurements.types import MeasurementSet

__all__ = ["innovation_noise_level", "NoiseLevelEstimator"]


def innovation_noise_level(
    net: Network,
    mset: MeasurementSet,
    Vm_prev: np.ndarray,
    Va_prev: np.ndarray,
    *,
    weights: np.ndarray | None = None,
    clip: tuple[float, float] = (0.05, 10.0),
) -> float:
    """One-shot noise-level estimate from measurement innovations.

    ``sqrt(mean(((z - h(x_prev)) / sigma)^2))``, clipped to ``clip``.  The
    estimate is slightly biased upward by genuine state drift, which is the
    safe direction for capacity planning.  A row whose ``weights`` entry
    is 0 (removed as bad data) is skipped.
    """
    model = MeasurementModel(net, mset)
    r = (mset.z - model.h(Vm_prev, Va_prev)) / mset.sigma
    # a non-finite meter says nothing about noise, nor does a removed one
    r = r[np.isfinite(r) & (True if weights is None else weights > 0)]
    level = float(np.sqrt(np.mean(r * r))) if len(r) else 1.0
    return float(np.clip(level, *clip))


class NoiseLevelEstimator:
    """Windowed noise tracker used by the mapping method across scans.

    Keeps the last ``window`` per-frame estimates; :meth:`level` returns
    their mean (the Gaussian assumption of section IV-B.2), and
    :meth:`update` folds in a new frame given the previous state estimate.
    """

    def __init__(self, net: Network, *, window: int = 8, initial: float = 1.0):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.net = net
        self._history: deque[float] = deque([float(initial)], maxlen=window)

    @property
    def level(self) -> float:
        """Current smoothed noise level."""
        return float(np.mean(self._history))

    def update(
        self, mset: MeasurementSet, Vm_prev: np.ndarray, Va_prev: np.ndarray,
        *, weights: np.ndarray | None = None,
    ) -> float:
        """Fold in a new frame (rows of zero ``weights`` skipped); returns
        the updated smoothed level."""
        x = innovation_noise_level(self.net, mset, Vm_prev, Va_prev, weights=weights)
        self._history.append(x)
        return self.level

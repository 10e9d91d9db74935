"""Noise-level estimation per time frame — the paper's ``x = f(δt)``.

The mapping method needs the measurement noise level of the current time
frame *before* running the estimation, because the expected iteration count
(and hence the vertex weights) depends on it.  The innovation estimator
compares the fresh measurements against the prediction from the previous
state: standardized innovations have standard deviation ≈ the noise level
when the operating point drifts slowly between scans.

The measurement model the innovations need is fixed by the placement's
structure and the network's admittances, and the one part of a network
the program edits in place is its branch statuses
(:func:`~repro.core.adaptation.apply_branch_outage`).  The windowed
tracker therefore builds the model once and serves every later frame of
the same placement from it; a placement of another structure, or a
changed branch status, retires it.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..grid.network import Network
from ..measurements.functions import MeasurementModel
from ..measurements.types import MeasurementSet

__all__ = ["innovation_noise_level", "NoiseLevelEstimator"]

#: the range a frame's level is clipped to; the smoothed level stays in it
_CLIP = (0.05, 10.0)


def innovation_noise_level(
    net: Network,
    mset: MeasurementSet,
    Vm_prev: np.ndarray,
    Va_prev: np.ndarray,
    *,
    weights: np.ndarray | None = None,
    clip: tuple[float, float] = _CLIP,
) -> float:
    """One-shot noise-level estimate from measurement innovations.

    ``sqrt(mean(((z - h(x_prev)) / sigma)^2))``, clipped to ``clip``.  The
    estimate is slightly biased upward by genuine state drift, which is the
    safe direction for capacity planning.  A row whose ``weights`` entry
    is 0 (removed as bad data) is skipped.
    """
    model = MeasurementModel(net, mset)
    return _level(model, mset, Vm_prev, Va_prev, weights, clip)


def _level(
    model: MeasurementModel,
    mset: MeasurementSet,
    Vm_prev: np.ndarray,
    Va_prev: np.ndarray,
    weights: np.ndarray | None,
    clip: tuple[float, float],
) -> float:
    """The clipped innovation RMS of ``mset`` over a model of its structure."""
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

    The :class:`MeasurementModel` of the last frame is held and serves the
    next one while the placement keeps its structure
    (:meth:`MeasurementSet.same_structure`) and ``net.br_status`` equals
    the snapshot taken when the model was built — the model captured the
    admittances of that status, and an outage repair writes it in place.
    Either change builds a new model; a steady frame builds none.
    """

    def __init__(self, net: Network, *, window: int = 8, initial: float = 1.0):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.net = net
        self._history: deque[float] = deque([float(initial)], maxlen=window)
        self._model: MeasurementModel | None = None
        self._status: np.ndarray | None = None

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
        x = _level(self._model_for(mset), mset, Vm_prev, Va_prev, weights, _CLIP)
        self._history.append(x)
        return self.level

    def _model_for(self, mset: MeasurementSet) -> MeasurementModel:
        """The held model when it still describes ``mset`` on the network
        as it is now, else a new one, which is then held."""
        model, status = self._model, self.net.br_status
        if (
            model is None
            or not np.array_equal(self._status, status)
            or not model.mset.same_structure(mset)
        ):
            model = self._model = MeasurementModel(self.net, mset)
            self._status = status.copy()
        return model

"""Hybrid SCADA + PMU state estimation.

The standard two-stage scheme for mixing slow SCADA scans with fast
synchrophasors without re-deriving the nonlinear estimator:

1. the conventional WLS runs on the SCADA channels;
2. the PMU phasors — *linear* in the rectangular state — are fused with
   the stage-1 estimate by a linear WLS in rectangular coordinates, using
   the stage-1 covariance as the prior weight.

With PMUs at a subset of buses the fusion tightens exactly those
neighbourhoods, which is the incremental-deployment story of the paper's
introduction (137 → 300+ PMUs in the Western Interconnect).
"""

from __future__ import annotations

import numpy as np

from ..grid.network import Network
from ..measurements.types import MeasType, MeasurementSet
from .covariance import state_covariance
from .results import EstimationResult
from .wls import EstimationError, WlsEstimator

__all__ = ["hybrid_estimate"]


def hybrid_estimate(
    net: Network,
    scada: MeasurementSet,
    pmu: MeasurementSet,
) -> EstimationResult:
    """Two-stage hybrid estimation.

    Parameters
    ----------
    scada:
        Conventional channels for the stage-1 WLS (must be observable).
    pmu:
        Phasor channels (``V_MAG`` + ``PMU_VA`` pairs at PMU buses);
        current channels are ignored by the fusion stage.

    Returns the fused estimate; ``residuals``/``objective``/``dof`` refer
    to the combined measurement set.
    """
    est1 = WlsEstimator(net, scada)
    stage1 = est1.estimate()
    cov1 = state_covariance(est1, stage1)

    vm_rows = pmu.rows(MeasType.V_MAG)
    va_rows = pmu.rows(MeasType.PMU_VA)
    if not len(vm_rows) or not len(va_rows):
        raise EstimationError("pmu set needs V_MAG and PMU_VA channels")

    n = net.n_bus
    # Fusion in polar coordinates per bus: combine the stage-1 estimate
    # (prior) with the PMU phasor (observation) by inverse-variance
    # weighting; both are direct observations of Vm_i / Va_i.
    Vm = stage1.Vm.copy()
    Va = stage1.Va.copy()

    # Stage-1 angles are relative to the SCADA reference; PMU angles are
    # absolute.  Estimate the offset from the PMU buses first.
    va_el = pmu.elements(MeasType.PMU_VA)
    z_va = pmu.z[va_rows]
    offset = float(np.mean(z_va - Va[va_el]))
    Va = Va + offset

    def fuse(rows, els, prior, prior_std):
        z = pmu.z[rows]
        sig = pmu.sigma[rows]
        w_obs = 1.0 / (sig * sig)
        w_pri = np.zeros_like(w_obs)
        nonzero = prior_std[els] > 1e-12
        w_pri[nonzero] = 1.0 / (prior_std[els][nonzero] ** 2)
        fused = (w_pri * prior[els] + w_obs * z) / (w_pri + w_obs)
        prior[els] = fused

    fuse(vm_rows, pmu.elements(MeasType.V_MAG), Vm, cov1.vm_std)
    fuse(va_rows, va_el, Va, cov1.va_std)

    combined = scada.merged_with(pmu)
    from ..measurements.functions import MeasurementModel

    model = MeasurementModel(net, combined)
    r = combined.z - model.h(Vm, Va)
    w = combined.weights
    n_states = 2 * n  # PMU angles pin the absolute reference
    return EstimationResult(
        converged=stage1.converged,
        iterations=stage1.iterations,
        Vm=Vm,
        Va=Va,
        residuals=r,
        objective=float(r @ (w * r)),
        dof=len(combined) - n_states,
        step_norms=list(stage1.step_norms),
        factorizations=stage1.factorizations,
    )

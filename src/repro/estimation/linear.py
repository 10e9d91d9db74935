"""Linear estimators: DC WLS and the PMU-only linear estimator.

The DC estimator solves the linearised ``z_P = H θ + e`` model in one shot —
the ``z = Hx + e`` approximation the paper quotes in section II.  The
PMU-only estimator exploits that phasor measurements are linear in the
rectangular state, giving a non-iterative solution for PMU-observable
networks.
"""

from __future__ import annotations

import numpy as np

from ..grid.network import Network
from ..measurements.types import MeasType, MeasurementSet
from .results import EstimationResult
from .solvers import solve_normal_equations
from .wls import EstimationError

__all__ = ["dc_estimate", "pmu_linear_estimate"]


def dc_estimate(
    net: Network,
    mset: MeasurementSet,
    *,
    reference_bus: int | None = None,
) -> EstimationResult:
    """One-shot DC WLS estimate of the bus angles.

    Uses only the real-power and PMU-angle channels of ``mset``; magnitudes
    are fixed at 1 p.u.  The angle reference is the slack bus unless PMU
    angles pin the absolute reference.
    """
    from .observability import angle_jacobian  # local import avoids a cycle

    keep_types = (
        MeasType.P_INJ,
        MeasType.P_FLOW_F,
        MeasType.P_FLOW_T,
        MeasType.PMU_VA,
    )
    rows = np.concatenate([mset.rows(t) for t in keep_types])
    if not rows.size:
        raise EstimationError("no real-power or angle measurements")
    sub = mset.subset(rows.astype(int))

    n = net.n_bus
    Ha = angle_jacobian(net, sub)
    import scipy.sparse as sp

    H = sp.csr_matrix(Ha)
    has_pmu = sub.count(MeasType.PMU_VA) > 0
    if reference_bus is None:
        slacks = net.slack_buses
        reference_bus = int(slacks[0]) if len(slacks) else 0
    keep = np.arange(n) if has_pmu else np.delete(np.arange(n), reference_bus)
    Hr = H[:, keep]

    w = sub.weights
    if len(sub) < len(keep):
        raise EstimationError("underdetermined DC estimation")
    try:
        theta_r = solve_normal_equations(Hr, w, sub.z)
    except Exception as exc:
        raise EstimationError(f"DC gain solve failed: {exc}") from exc

    theta = np.zeros(n)
    theta[keep] = theta_r
    r = sub.z - H @ theta
    return EstimationResult(
        converged=True,
        iterations=1,
        Vm=np.ones(n),
        Va=theta,
        residuals=r,
        objective=float(r @ (w * r)),
        dof=len(sub) - len(keep),
    )


def pmu_linear_estimate(
    net: Network,
    mset: MeasurementSet,
) -> EstimationResult:
    """Direct linear estimate from PMU voltage phasors.

    Requires a V_MAG + PMU_VA pair at every bus (e.g. the dense PMU
    deployments motivating the paper's real-time constraints); simply reads
    the phasor channels through their WLS weights.
    """
    n = net.n_bus
    vm_el = mset.elements(MeasType.V_MAG)
    va_el = mset.elements(MeasType.PMU_VA)
    if not (set(range(n)) <= set(vm_el.tolist()) and set(range(n)) <= set(va_el.tolist())):
        raise EstimationError("pmu_linear_estimate needs phasors at every bus")

    Vm = np.zeros(n)
    Va = np.zeros(n)
    wsum_m = np.zeros(n)
    wsum_a = np.zeros(n)
    w = mset.weights
    for t, acc, wacc in ((MeasType.V_MAG, Vm, wsum_m), (MeasType.PMU_VA, Va, wsum_a)):
        rows = mset.rows(t)
        els = mset.elements(t)
        np.add.at(acc, els, w[rows] * mset.z[rows])
        np.add.at(wacc, els, w[rows])
    Vm /= wsum_m
    Va /= wsum_a

    from ..measurements.functions import MeasurementModel

    r = mset.z - MeasurementModel(net, mset).h(Vm, Va)
    return EstimationResult(
        converged=True,
        iterations=1,
        Vm=Vm,
        Va=Va,
        residuals=r,
        objective=float(r @ (w * r)),
        dof=len(mset) - 2 * n,
    )

"""State estimation: WLS core, solvers, observability, bad data, linear models."""

from .baddata import (
    BadDataReport,
    chi_square_test,
    identify_bad_data,
    normalized_residuals,
)
from .batch import BatchEstimationResult, BatchEstimator, BatchScenario
from .hybrid import hybrid_estimate
from .outputs import EstimatedOutputs, area_interchange, derive_outputs
from .tracking import TrackedFrame, TrackingEstimator
from .decoupled import fast_decoupled_estimate
from .covariance import StateCovariance, state_covariance
from .constrained import constrained_estimate, zero_injection_buses
from .linear import dc_estimate, pmu_linear_estimate
from .robust import huber_estimate
from .observability import angle_jacobian, is_observable, observable_islands
from .pcg import (
    BlockJacobiPreconditioner,
    IChol0Preconditioner,
    PcgResult,
    ichol0,
    jacobi_preconditioner,
    pcg_solve,
)
from .results import EstimationResult
from .solvers import (
    GainSolveError,
    GainSolver,
    SchurGainSolver,
    build_gain,
    solve_normal_equations,
)
from .wls import EstimationError, WlsEstimator, estimate_state

__all__ = [
    "WlsEstimator",
    "estimate_state",
    "BatchEstimator",
    "BatchEstimationResult",
    "BatchScenario",
    "EstimationError",
    "EstimationResult",
    "GainSolveError",
    "GainSolver",
    "SchurGainSolver",
    "build_gain",
    "solve_normal_equations",
    "PcgResult",
    "pcg_solve",
    "ichol0",
    "jacobi_preconditioner",
    "IChol0Preconditioner",
    "BlockJacobiPreconditioner",
    "chi_square_test",
    "normalized_residuals",
    "identify_bad_data",
    "BadDataReport",
    "is_observable",
    "observable_islands",
    "angle_jacobian",
    "dc_estimate",
    "pmu_linear_estimate",
    "huber_estimate",
    "constrained_estimate",
    "zero_injection_buses",
    "StateCovariance",
    "state_covariance",
    "fast_decoupled_estimate",
    "TrackingEstimator",
    "TrackedFrame",
    "hybrid_estimate",
    "EstimatedOutputs",
    "derive_outputs",
    "area_interchange",
]

"""The paper's contribution: weights, mapping method, architecture, sessions."""

from .adaptation import (
    BranchOutageReport,
    ClusterOutageReport,
    apply_branch_outage,
    apply_cluster_outage,
)
from .architecture import ArchitecturePrototype
from .mapper import ClusterMapper, Mapping
from .noise import NoiseLevelEstimator, innovation_noise_level
from .runtime import LiveDseResult, LiveDseRuntime, LiveSiteStats
from .session import DseSession
from .telemetry import FrameReport, PhaseBreakdown
from .weights import (
    IterationModel,
    PAPER_ITERATION_MODEL,
    edge_weight_exchange,
    edge_weight_upper_bound,
    step1_graph,
    step2_graph,
    vertex_weights,
)

__all__ = [
    "IterationModel",
    "PAPER_ITERATION_MODEL",
    "vertex_weights",
    "edge_weight_exchange",
    "edge_weight_upper_bound",
    "step1_graph",
    "step2_graph",
    "innovation_noise_level",
    "NoiseLevelEstimator",
    "ClusterMapper",
    "Mapping",
    "ArchitecturePrototype",
    "BranchOutageReport",
    "ClusterOutageReport",
    "apply_branch_outage",
    "apply_cluster_outage",
    "DseSession",
    "LiveDseRuntime",
    "LiveDseResult",
    "LiveSiteStats",
    "FrameReport",
    "PhaseBreakdown",
]

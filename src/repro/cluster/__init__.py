"""Simulated HPC cluster substrate: event engine, topology, MPI, executors."""

from .costmodel import MiddlewareCostModel
from .parallel_pcg import ParallelPcgResult, simulate_parallel_pcg
from .executor import (
    ExchangeTiming,
    MessageSpec,
    PhaseTiming,
    SimExecutor,
    TaskSpec,
)
from .recovery import (
    MembershipView,
    RecoveryConfig,
    RecoveryCoordinator,
    SubsystemCheckpoint,
)
from .simevent import Process, SimEngine, SimEvent, Timeout
from .simmpi import SimComm, SimMessage
from .topology import ClusterSpec, ClusterTopology, LinkSpec, pnnl_testbed

__all__ = [
    "SimEngine",
    "SimEvent",
    "Timeout",
    "Process",
    "SimComm",
    "SimMessage",
    "ClusterSpec",
    "ClusterTopology",
    "LinkSpec",
    "pnnl_testbed",
    "MiddlewareCostModel",
    "ParallelPcgResult",
    "simulate_parallel_pcg",
    "TaskSpec",
    "MessageSpec",
    "PhaseTiming",
    "ExchangeTiming",
    "SimExecutor",
    "SubsystemCheckpoint",
    "MembershipView",
    "RecoveryConfig",
    "RecoveryCoordinator",
]

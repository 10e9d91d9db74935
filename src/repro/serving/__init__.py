"""Scenario serving: batched replicas, a consistent-hash shard router,
and an open-loop load-generation harness."""

from .loadgen import LoadGenerator, LoadReport, ScenarioMix, poisson_arrivals
from .requests import (
    ContingencyRequest,
    EstimationRequest,
    ReplicaLost,
    ScenarioRequest,
    ScenarioResult,
    ServiceOverloaded,
    ServiceStats,
)
from .service import ScenarioService
from .shard import RouterStats, ShardRouter, request_key

__all__ = [
    "ContingencyRequest",
    "EstimationRequest",
    "LoadGenerator",
    "LoadReport",
    "ReplicaLost",
    "RouterStats",
    "ScenarioMix",
    "ScenarioRequest",
    "ScenarioResult",
    "ScenarioService",
    "ServiceOverloaded",
    "ServiceStats",
    "ShardRouter",
    "poisson_arrivals",
    "request_key",
]

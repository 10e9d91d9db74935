"""Contingency analysis: N-1 screening and parallel execution.

The downstream application motivating real-time state estimation (paper,
section I), including the counter-based dynamic load balancing of the
paper's HPC reference (Chen et al. [2]).
"""

from .analysis import ContingencyAnalyzer, ContingencyResult, Violation
from .parallel import (
    ParallelAnalysisReport,
    run_parallel,
    simulate_parallel_analysis,
)
from .screening import Contingency, apply_outage, enumerate_n1

__all__ = [
    "Contingency",
    "enumerate_n1",
    "apply_outage",
    "ContingencyAnalyzer",
    "ContingencyResult",
    "Violation",
    "ParallelAnalysisReport",
    "run_parallel",
    "simulate_parallel_analysis",
]

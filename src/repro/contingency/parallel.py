"""Parallel contingency analysis with counter-based dynamic load balancing.

The paper's HPC lineage (its reference [2], Chen, Huang &
Chavarría-Miranda) evaluates *counter-based dynamic load balancing* for
massive contingency analysis: instead of pre-assigning an equal share of
contingencies to each processor (static), every processor atomically
increments a shared counter to grab the next case when it becomes free, so
variable per-case solve times cannot starve or overload anyone.

Both schemes live on the simulated testbed
(:func:`simulate_parallel_analysis`), where per-case durations are
replayed on cluster cores in virtual time, letting the static/dynamic
makespan gap be measured deterministically.  A real sweep
(:func:`run_parallel`) has one drain per method: a DC sweep is one batched
compensation solve, an AC sweep runs in order or on a process pool's
shared work queue (the dynamic scheme, the queue as the counter).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from ..cluster.simevent import SimEngine, Timeout
from ..cluster.topology import ClusterTopology
from ..parallel import SubsystemExecutor, make_executor, worker_context
from .analysis import ContingencyAnalyzer, ContingencyResult
from .screening import Contingency

__all__ = [
    "ParallelAnalysisReport",
    "run_parallel",
    "simulate_parallel_analysis",
]


@dataclass
class ParallelAnalysisReport:
    """Results plus the load-balance profile of a parallel run."""

    results: list[ContingencyResult]
    per_worker_cases: list[int]
    per_worker_busy: list[float]
    makespan: float
    scheme: str

    @property
    def imbalance(self) -> float:
        """max busy time / mean busy time (1.0 = perfectly balanced)."""
        busy = np.asarray(self.per_worker_busy)
        if busy.size == 0 or busy.mean() == 0:
            return 1.0
        return float(busy.max() / busy.mean())


# ---------------------------------------------------------------------------
# Process-pool worker side: the analyzer (network, ratings, base flows) is
# shipped once per worker by the pool initializer; tasks then carry only the
# contingency record (an outage index + label) — compact task framing.
# ---------------------------------------------------------------------------

_ANALYZER_TOKENS = itertools.count()


def _analyzer_state(payload):
    return payload


def _analyze_task(args):
    key, contingency = args
    analyzer = worker_context(key)
    t0 = time.perf_counter()
    res = analyzer.analyze(contingency)
    return res, time.perf_counter() - t0


def _analyzer_token(analyzer: ContingencyAnalyzer) -> str:
    """Stable per-analyzer context key (stamped on first parallel use)."""
    token = getattr(analyzer, "_pool_token", None)
    if token is None:
        token = f"contingency:{next(_ANALYZER_TOKENS)}"
        analyzer._pool_token = token
    return token


def run_parallel(
    analyzer: ContingencyAnalyzer,
    contingencies: list[Contingency],
    *,
    executor: "SubsystemExecutor | str | None" = None,
) -> ParallelAnalysisReport:
    """Analyse contingencies; the analyzer's method chooses the drain.

    A DC sweep is always one :meth:`ContingencyAnalyzer.analyze_batch`
    call (one compensation solve on the calling thread, ``scheme="batch"``,
    one synthetic worker), whatever ``executor`` says.  An AC sweep runs
    in order on the calling thread (``scheme="serial"``), or — given a
    :class:`~repro.parallel.ProcessPoolBackend` — one task per case on the
    pool's shared work queue (``scheme="dynamic"``, the counter-based
    scheme: a free worker grabs the next case).  The analyzer ships to each
    worker once (pool initializer) and every task carries only the
    contingency record, so the workers stay warm across sweeps.

    ``executor`` accepts any :func:`repro.parallel.make_executor` spec or an
    existing executor (to share a pool with the scenario service); a pool
    created from a spec is shut down before the call returns.
    """
    own_pool = not isinstance(executor, SubsystemExecutor)
    executor = make_executor(executor)
    t0 = time.perf_counter()
    try:
        if analyzer.method == "ac" and executor.distributed:
            results, cases, busy = _run_process_pool(
                analyzer, contingencies, executor
            )
            scheme = "dynamic"
        else:
            results = analyzer.analyze_batch(contingencies)
            scheme = "batch" if analyzer.method == "dc" else "serial"
            cases, busy = [len(results)], None
    finally:
        if own_pool:
            executor.shutdown()
    makespan = time.perf_counter() - t0
    return ParallelAnalysisReport(
        results=results,
        per_worker_cases=cases,
        per_worker_busy=busy or [makespan],
        makespan=makespan,
        scheme=scheme,
    )


def _run_process_pool(analyzer, contingencies, executor):
    """Process fabric: warm analyzer per worker, compact per-case payloads,
    pid-densified per-worker accounting."""
    n_workers = executor.n_workers
    cases = [0] * n_workers
    busy = [0.0] * n_workers
    key = _analyzer_token(analyzer)
    executor.initialize(key, _analyzer_state, analyzer)
    items = [(key, c) for c in contingencies]
    outs, pids = executor.map_with_pids(_analyze_task, items)
    widx: dict[int, int] = {}
    for (_, dt), pid in zip(outs, pids):
        w = widx.setdefault(pid, len(widx) % n_workers)
        busy[w] += dt
        cases[w] += 1
    return [res for res, _ in outs], cases, busy


def simulate_parallel_analysis(
    durations: np.ndarray,
    topology: ClusterTopology,
    *,
    scheme: str = "dynamic",
    counter_overhead: float = 2e-5,
) -> ParallelAnalysisReport:
    """Replay per-case durations on the simulated testbed cores.

    Workers are the topology's cores (one simulated process per core).
    ``counter_overhead`` charges the shared-counter access in the dynamic
    scheme (Chen et al. report it is negligible against the solve times).
    """
    if scheme not in ("static", "dynamic"):
        raise ValueError("scheme must be 'static' or 'dynamic'")
    durations = np.asarray(durations, dtype=float)
    if np.any(durations < 0):
        raise ValueError("durations must be non-negative")
    n = len(durations)
    n_workers = sum(c.total_cores for c in topology.clusters)

    engine = SimEngine()
    cases = [0] * n_workers
    busy = [0.0] * n_workers
    counter = {"next": 0}

    def dynamic_worker(w: int):
        while True:
            i = counter["next"]
            if i >= n:
                return
            counter["next"] = i + 1
            yield Timeout(counter_overhead + durations[i])
            busy[w] += durations[i]
            cases[w] += 1

    def static_worker(w: int):
        for i in range(w, n, n_workers):
            yield Timeout(durations[i])
            busy[w] += durations[i]
            cases[w] += 1

    gen = dynamic_worker if scheme == "dynamic" else static_worker
    for w in range(n_workers):
        engine.process(gen(w), name=f"worker{w}")
    makespan = engine.run()

    return ParallelAnalysisReport(
        results=[],
        per_worker_cases=cases,
        per_worker_busy=busy,
        makespan=makespan,
        scheme=scheme,
    )

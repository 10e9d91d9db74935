"""Parallel contingency analysis with counter-based dynamic load balancing.

The paper's HPC lineage (its reference [2], Chen, Huang &
Chavarría-Miranda) evaluates *counter-based dynamic load balancing* for
massive contingency analysis: instead of pre-assigning an equal share of
contingencies to each processor (static), every processor atomically
increments a shared counter to grab the next case when it becomes free, so
variable per-case solve times cannot starve or overload anyone.

Both schemes are provided on two fabrics:

- any executor backend (:func:`run_parallel`; threads by default), the
  pool's shared work queue as the counter;
- the simulated testbed (:func:`simulate_parallel_analysis`), where per-case
  durations are replayed on cluster cores in virtual time, letting the
  static/dynamic makespan gap be measured deterministically.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..cluster.simevent import SimEngine, Timeout
from ..cluster.topology import ClusterTopology
from ..parallel import (
    SubsystemExecutor,
    ThreadPoolBackend,
    chunked,
    make_executor,
    worker_context,
)
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
    key, i, contingency = args
    analyzer = worker_context(key)
    t0 = time.perf_counter()
    res = analyzer.analyze(contingency)
    return i, res, time.perf_counter() - t0


def _analyze_chunk_task(args):
    key, jobs = args
    analyzer = worker_context(key)
    out = []
    for i, contingency in jobs:
        t0 = time.perf_counter()
        res = analyzer.analyze(contingency)
        out.append((i, res, time.perf_counter() - t0))
    return out


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
    executor: "SubsystemExecutor | str | int | None" = None,
    n_workers: int = 4,
    scheme: str = "dynamic",
    batch: bool = False,
) -> ParallelAnalysisReport:
    """Analyse contingencies through any executor backend.

    ``scheme="static"`` pre-splits the list into equal round-robin chunks,
    one per worker; ``scheme="dynamic"`` submits every case individually to
    the pool's shared work queue (the counter-based scheme: a free worker
    grabs the next case).  ``executor`` accepts any
    :func:`repro.parallel.make_executor` spec or an existing executor (to
    share a pool with the DSE session or the scenario service); when
    omitted, a :class:`ThreadPoolBackend` with ``n_workers`` threads is
    created for the call.  With a
    :class:`~repro.parallel.ProcessPoolBackend`, the analyzer ships to each
    worker once (pool initializer) and every task carries only the
    contingency record, so the workers stay warm across sweeps.

    ``batch=True`` skips the executor fan-out entirely and drains the list
    through :meth:`ContingencyAnalyzer.analyze_batch` — one batched
    (compensation-based) solve on the calling thread.  The report then
    carries ``scheme="batch"`` with a single synthetic worker.
    """
    if batch:
        t0 = time.perf_counter()
        results_b = analyzer.analyze_batch(contingencies)
        makespan = time.perf_counter() - t0
        return ParallelAnalysisReport(
            results=results_b,
            per_worker_cases=[len(results_b)],
            per_worker_busy=[makespan],
            makespan=makespan,
            scheme="batch",
        )
    if scheme not in ("static", "dynamic"):
        raise ValueError("scheme must be 'static' or 'dynamic'")
    own_pool = executor is None or isinstance(executor, (str, int))
    if executor is None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        executor = ThreadPoolBackend(n_workers)
    else:
        executor = make_executor(executor)
        n_workers = executor.n_workers

    n = len(contingencies)
    results: list[ContingencyResult | None] = [None] * n

    t0 = time.perf_counter()
    try:
        if getattr(executor, "distributed", False):
            cases, busy = _run_process_pool(
                analyzer, contingencies, executor, scheme, results
            )
        else:
            cases, busy = _run_shared_memory(
                analyzer, contingencies, executor, scheme, results
            )
    finally:
        if own_pool:
            executor.shutdown()
    makespan = time.perf_counter() - t0

    return ParallelAnalysisReport(
        results=[r for r in results if r is not None],
        per_worker_cases=cases,
        per_worker_busy=busy,
        makespan=makespan,
        scheme=scheme,
    )


def _run_shared_memory(analyzer, contingencies, executor, scheme, results):
    """Thread/serial fabric: closures write results in place; the pool's
    shared queue provides the counter-based dynamic balancing."""
    n = len(contingencies)
    n_workers = executor.n_workers
    cases = [0] * n_workers
    busy = [0.0] * n_workers
    lock = threading.Lock()

    def run_case(i: int) -> None:
        w = executor.worker_index()
        t0 = time.perf_counter()
        results[i] = analyzer.analyze(contingencies[i])
        dt = time.perf_counter() - t0
        with lock:
            busy[w] += dt
            cases[w] += 1

    def run_chunk(job: tuple[int, list[int]]) -> None:
        w, idxs = job
        for i in idxs:
            t0 = time.perf_counter()
            results[i] = analyzer.analyze(contingencies[i])
            dt = time.perf_counter() - t0
            with lock:
                busy[w] += dt
                cases[w] += 1

    if scheme == "dynamic":
        executor.map(run_case, range(n))
    else:
        executor.map(run_chunk, list(enumerate(chunked(range(n), n_workers))))
    return cases, busy


def _run_process_pool(analyzer, contingencies, executor, scheme, results):
    """Process fabric: warm analyzer per worker, compact per-case payloads,
    pid-densified per-worker accounting."""
    n = len(contingencies)
    n_workers = executor.n_workers
    cases = [0] * n_workers
    busy = [0.0] * n_workers
    key = _analyzer_token(analyzer)
    executor.initialize(key, _analyzer_state, analyzer)

    if scheme == "dynamic":
        items = [(key, i, c) for i, c in enumerate(contingencies)]
        outs, pids = executor.map_with_pids(_analyze_task, items)
        flat = [(out, pid) for out, pid in zip(outs, pids)]
    else:
        jobs = chunked(list(enumerate(contingencies)), n_workers)
        outs, pids = executor.map_with_pids(
            _analyze_chunk_task, [(key, chunk) for chunk in jobs]
        )
        flat = [(rec, pid) for out, pid in zip(outs, pids) for rec in out]

    widx: dict[int, int] = {}
    for (i, res, dt), pid in flat:
        w = widx.setdefault(pid, len(widx) % n_workers)
        results[i] = res
        busy[w] += dt
        cases[w] += 1
    return cases, busy


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

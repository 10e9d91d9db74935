"""PR-6 batching benchmarks: scenario fork cost and sweep throughput.

Two measurements back the batching layer's claims:

- ``measure_fork_cost`` — creating a scenario must cost O(changed
  elements): a copy-on-write ``net.fork(delta)`` against a deep
  ``net.copy()``, in both payload bytes and wall time, on IEEE-118.
- ``measure_sweep_throughput`` — the IEEE-118 N-1 sweep on three drain
  paths: the serial per-outage loop, the executor fan-out
  (threads, plus processes on multi-core hosts), and the batched
  compensation solve (``analyze_batch``, warm).  The batched path's gate
  is ≥10× the serial loop.

Run directly for a human-readable report::

    PYTHONPATH=src python benchmarks/bench_scenario_sweep.py
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

from repro.contingency import ContingencyAnalyzer, enumerate_n1, run_parallel
from repro.grid import NetworkDelta
from repro.grid.cases import case118, synthetic_grid

__all__ = ["measure_fork_cost", "measure_sweep_throughput"]


def _network_bytes(net) -> int:
    return sum(
        getattr(net, f.name).nbytes
        for f in dataclasses.fields(net)
        if isinstance(getattr(net, f.name), np.ndarray)
    )


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _fork_cost_on(net, case: str, repeats: int, loops: int) -> dict:
    delta = NetworkDelta.branch_outage(7)

    def forks():
        for _ in range(loops):
            net.fork(delta)

    def copies():
        for _ in range(loops):
            net.copy()

    t_fork = _best_of(forks, repeats) / loops
    t_copy = _best_of(copies, repeats) / loops
    return {
        "case": case,
        "n_bus": net.n_bus,
        "delta_bytes": delta.nbytes,
        "network_bytes": _network_bytes(net),
        "bytes_ratio": _network_bytes(net) / delta.nbytes,
        "fork_time_us": t_fork * 1e6,
        "copy_time_us": t_copy * 1e6,
        "fork_speedup": t_copy / t_fork,
    }


def measure_fork_cost(repeats: int = 5, loops: int = 2000) -> dict:
    """Copy-on-write fork vs deep copy: payload bytes and per-scenario time.

    Measured on IEEE-118 (where both are microseconds — the O(delta) win
    is the 2000×-smaller wire/pool payload) and on a ~2700-bus synthetic
    grid, where the fork's O(changed elements) time visibly decouples
    from the deep copy's O(network)."""
    big = synthetic_grid(n_areas=30, buses_per_area=90, seed=0)
    return {
        "ieee118": _fork_cost_on(case118(), "ieee118", repeats, loops),
        "synthetic2700": _fork_cost_on(big, "synthetic2700", repeats, loops),
    }


def measure_sweep_throughput(repeats: int = 5) -> dict:
    """IEEE-118 N-1 sweep: serial loop vs executor fan-out vs one batched
    solve.  The batched analyzer is warmed first (factorization + column
    cache), matching steady-state sweep operation."""
    net = case118()
    cons, _ = enumerate_n1(net)
    analyzer = ContingencyAnalyzer(net, method="dc", rating_margin=1.3)

    t_serial = _best_of(lambda: [analyzer.analyze(c) for c in cons], repeats)

    fanout: dict[str, float] = {}
    specs = ["threads:4"]
    if (os.cpu_count() or 1) >= 2:
        specs.append("processes:4")
    for spec in specs:
        # one throwaway run so process pools measure warm workers
        run_parallel(analyzer, cons, executor=spec)
        fanout[spec] = _best_of(
            lambda: run_parallel(analyzer, cons, executor=spec), repeats
        )

    analyzer.analyze_batch(cons)  # warm the compensation cache
    t_batch = _best_of(lambda: analyzer.analyze_batch(cons), repeats)

    serial_ref = [analyzer.analyze(c) for c in cons]
    batch_ref = analyzer.analyze_batch(cons)
    max_dloading = max(
        abs(a.max_loading - b.max_loading)
        for a, b in zip(serial_ref, batch_ref)
    )

    return {
        "case": "ieee118",
        "n_contingencies": len(cons),
        "serial_time_s": t_serial,
        "fanout_time_s": fanout,
        "batch_time_s": t_batch,
        "batch_speedup_vs_serial": t_serial / t_batch,
        "serial_cases_per_s": len(cons) / t_serial,
        "batch_cases_per_s": len(cons) / t_batch,
        "max_abs_dloading": max_dloading,
    }


def main() -> None:
    for rec in measure_fork_cost().values():
        print(f"fork cost ({rec['case']}, {rec['n_bus']} buses): "
              f"delta {rec['delta_bytes']} B vs network "
              f"{rec['network_bytes']} B ({rec['bytes_ratio']:.0f}x smaller); "
              f"fork {rec['fork_time_us']:.1f} us vs copy "
              f"{rec['copy_time_us']:.1f} us ({rec['fork_speedup']:.1f}x)")

    sweep = measure_sweep_throughput()
    print(f"N-1 sweep ({sweep['n_contingencies']} outages): "
          f"serial {sweep['serial_time_s'] * 1e3:.1f} ms, "
          f"batched {sweep['batch_time_s'] * 1e3:.1f} ms "
          f"({sweep['batch_speedup_vs_serial']:.1f}x), "
          f"parity {sweep['max_abs_dloading']:.2e}")
    for spec, t in sweep["fanout_time_s"].items():
        print(f"  fan-out {spec:>12}: {t * 1e3:.1f} ms")


if __name__ == "__main__":
    main()

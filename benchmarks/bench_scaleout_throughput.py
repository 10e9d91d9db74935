"""Scale-out throughput: scenarios/sec across backend × workers × batch.

Measures the serving throughput (and latency percentiles) of the scale-out
stack on the paper's test system:

- **N-1 contingency sweeps** on IEEE-118 through
  :func:`repro.contingency.run_parallel` for every backend spec
  (``serial``, ``threads:N``, ``processes:N``) — the workload the HPC
  reference [2] distributes with counter-based dynamic balancing;
- the **batched scenario service**: end-to-end submit→resolve latency as a
  function of ``max_batch``.

Run directly for a human-readable table::

    PYTHONPATH=src python benchmarks/bench_scaleout_throughput.py

Process backends only help on multi-core hosts: the ≥3× contingency-
throughput bound they were accepted against needs at least 4 cores.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.contingency import (  # noqa: E402
    ContingencyAnalyzer,
    enumerate_n1,
    run_parallel,
)
from repro.dse import decompose, dse_pmu_placement  # noqa: E402
from repro.grid import run_ac_power_flow  # noqa: E402
from repro.grid.cases import case118  # noqa: E402
from repro.measurements import full_placement, generate_measurements  # noqa: E402
from repro.parallel import make_executor  # noqa: E402
from repro.serving import ScenarioService  # noqa: E402


def backend_specs(max_workers: int | None = None) -> list[str]:
    """The backend × worker grid for this host (serial, threads, processes)."""
    cores = os.cpu_count() or 1
    cap = min(max_workers or cores, cores)
    counts = sorted({2, 4, cap} & set(range(1, cap + 1))) or [1]
    specs = ["serial"]
    for n in counts:
        specs.append(f"threads:{n}")
    for n in counts:
        specs.append(f"processes:{n}")
    return specs


def _percentiles(samples: list[float]) -> dict:
    arr = np.asarray(samples)
    return {
        "p50_ms": float(np.percentile(arr, 50) * 1e3),
        "p90_ms": float(np.percentile(arr, 90) * 1e3),
        "p99_ms": float(np.percentile(arr, 99) * 1e3),
    }


def bench_contingency_throughput(
    net, contingencies, *, specs: list[str], repeats: int = 2
) -> dict:
    """IEEE-118 N-1 sweep throughput (cases/sec) per backend spec.

    Each spec gets its own warm pool; the sweep runs ``repeats`` times and
    the best pass is recorded (first pass pays pool spawn + analyzer ship).
    """
    out = {}
    for spec in specs:
        analyzer = ContingencyAnalyzer(net, method="dc", rating_margin=1.3)
        executor = make_executor(spec)
        best = float("inf")
        try:
            for _ in range(repeats):
                t0 = time.perf_counter()
                run_parallel(
                    analyzer, contingencies, executor=executor, scheme="dynamic"
                )
                best = min(best, time.perf_counter() - t0)
            workers = executor.n_workers
        finally:
            executor.shutdown()
        out[spec] = {
            "n_cases": len(contingencies),
            "best_sweep_s": best,
            "cases_per_s": len(contingencies) / best,
            "workers": workers,
        }
    return out


def bench_serving_batches(
    dec, mset, contingencies, *, batch_sizes=(1, 8, 32), executor="threads:4"
) -> dict:
    """Scenario-service end-to-end latency/throughput vs ``max_batch``."""
    out = {}
    for max_batch in batch_sizes:
        with ScenarioService(
            dec,
            mset,
            executor=executor,
            max_batch=max_batch,
            flush_latency=2e-3,
        ) as svc:
            # warm the engine before timing
            svc.submit_estimation().result()
            t0 = time.perf_counter()
            futs = svc.submit_contingencies(contingencies)
            futs.append(svc.submit_estimation(z=mset.z))
            results = [f.result() for f in futs]
            total = time.perf_counter() - t0
            out[f"max_batch={max_batch}"] = {
                "n_requests": len(results),
                "requests_per_s": len(results) / total,
                "mean_batch_size": svc.stats.mean_batch_size,
                **_percentiles([r.latency for r in results]),
            }
    return out


def _setup():
    net = case118()
    pf = run_ac_power_flow(net)
    dec = decompose(net, 9, seed=0)
    rng = np.random.default_rng(0)
    plac = full_placement(net).merged_with(dse_pmu_placement(dec))
    mset = generate_measurements(net, plac, pf, rng=rng)
    cons, _ = enumerate_n1(net)
    return net, dec, mset, cons


def main() -> int:
    net, dec, mset, cons = _setup()
    specs = backend_specs()
    print(f"host cores: {os.cpu_count()}  backends: {specs}")

    print("\nIEEE-118 N-1 contingency sweep")
    for spec, rec in bench_contingency_throughput(net, cons, specs=specs).items():
        print(f"  {spec:>12}: {rec['cases_per_s']:8.1f} cases/s "
              f"({rec['best_sweep_s'] * 1e3:.1f} ms, {rec['workers']} workers)")

    print("\nscenario service (threads:4) vs max_batch")
    for key, rec in bench_serving_batches(dec, mset, cons[:64]).items():
        print(f"  {key:>14}: {rec['requests_per_s']:8.1f} req/s  "
              f"mean batch {rec['mean_batch_size']:.1f}  "
              f"p50 {rec['p50_ms']:.1f} ms  p99 {rec['p99_ms']:.1f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

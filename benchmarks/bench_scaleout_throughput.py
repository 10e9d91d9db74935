"""Scale-out throughput: the batched scenario service vs ``max_batch``.

Measures the end-to-end submit→resolve latency and throughput of the
scenario service on the paper's test system (IEEE-118, 9 subsystems) as a
function of ``max_batch``: a burst of N-1 screenings (one batched DC solve
per flush) plus an estimation frame, handed to ``ScenarioService.run``.
Every point times the same burst ``repeats`` times (default 9), the points
taken in alternating order (forward, then backward, ...) so drift on a
shared host falls on all of them alike; the table gives each point's
median throughput with its interquartile range.  The N-1 sweep comparison itself
(per-outage loop vs batched solve for DC, in-order vs ``processes:N`` for
AC) lives in ``benchmarks/bench_scenario_sweep.py``.

Run directly for a human-readable table::

    PYTHONPATH=src python benchmarks/bench_scaleout_throughput.py
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.contingency import enumerate_n1  # noqa: E402
from repro.dse import decompose, dse_pmu_placement  # noqa: E402
from repro.grid import run_ac_power_flow  # noqa: E402
from repro.grid.cases import case118  # noqa: E402
from repro.measurements import full_placement, generate_measurements  # noqa: E402
from repro.serving import (  # noqa: E402
    ContingencyRequest,
    EstimationRequest,
    ScenarioService,
)


def _percentiles(samples: list[float]) -> dict:
    arr = np.asarray(samples)
    return {
        "p50_ms": float(np.percentile(arr, 50) * 1e3),
        "p90_ms": float(np.percentile(arr, 90) * 1e3),
        "p99_ms": float(np.percentile(arr, 99) * 1e3),
    }


def bench_serving_batches(
    dec, mset, contingencies, *, batch_sizes=(1, 8, 32), executor="serial",
    repeats=9,
) -> dict:
    """Scenario-service end-to-end latency/throughput vs ``max_batch``:
    one warm service per point, the burst timed ``repeats`` times per
    point in alternating order; throughput as the median and quartiles of
    the bursts, latency percentiles over every request of every burst."""
    burst = [ContingencyRequest(c) for c in contingencies]
    burst.append(EstimationRequest(z=mset.z))
    services = {
        max_batch: ScenarioService(
            dec, mset, executor=executor, max_batch=max_batch,
            flush_latency=2e-3,
        )
        for max_batch in batch_sizes
    }
    rates = {max_batch: [] for max_batch in batch_sizes}
    latencies = {max_batch: [] for max_batch in batch_sizes}
    try:
        for svc in services.values():
            svc.run([EstimationRequest()])      # warm the engine
        for k in range(repeats):
            order = batch_sizes if k % 2 == 0 else batch_sizes[::-1]
            for max_batch in order:
                t0 = time.perf_counter()
                results = services[max_batch].run(burst)
                rates[max_batch].append(len(results) / (time.perf_counter() - t0))
                latencies[max_batch] += [r.latency for r in results]
    finally:
        for svc in services.values():
            svc.close()
    out = {}
    for max_batch, svc in services.items():
        q1, med, q3 = np.percentile(rates[max_batch], [25, 50, 75])
        out[f"max_batch={max_batch}"] = {
            "n_requests": len(burst),
            "bursts": repeats,
            "requests_per_s": float(med),
            "requests_per_s_iqr": (float(q1), float(q3)),
            "mean_batch_size": svc.stats.mean_batch_size,
            **_percentiles(latencies[max_batch]),
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
    return dec, mset, cons


def main() -> int:
    dec, mset, cons = _setup()
    print(f"host cores: {os.cpu_count()}")
    print("\nscenario service vs max_batch")
    for key, rec in bench_serving_batches(dec, mset, cons[:64]).items():
        q1, q3 = rec["requests_per_s_iqr"]
        print(f"  {key:>14}: {rec['requests_per_s']:8.1f} req/s "
              f"(IQR {q1:.1f}–{q3:.1f}, {rec['bursts']} bursts)  "
              f"mean batch {rec['mean_batch_size']:.1f}  "
              f"p50 {rec['p50_ms']:.1f} ms  p99 {rec['p99_ms']:.1f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""PR-8 serving-capacity curve: direct service vs sharded router.

Offered-load sweep with the open-loop generator
(:mod:`repro.serving.loadgen`): seeded Poisson arrivals of values-only
IEEE-118 estimation frames against three serving configurations —

- ``direct``  — one :class:`~repro.serving.service.ScenarioService`;
- ``router1`` — a :class:`~repro.serving.shard.ShardRouter` over the
  *same single replica* (isolates the routing layer's overhead);
- ``router2`` — the router over two replicas (each replica's dispatcher
  thread drains its own batched LAPACK solves, which release the GIL, so
  on a multi-core host the shards genuinely run in parallel).

The offered rates are anchored to a measured closed-loop probe of the
single-service throughput (0.5×, 1×, 2×, 4×), so the sweep brackets the
saturation knee on any host.  Each point records achieved scenarios/s,
client-view p50/p99 latency and the typed shed split; a configuration's
**capacity** is the highest offered rate it sustained with p99 within the
SLO and shed ≤ 5%.

Run directly for a quick look::

    PYTHONPATH=src python benchmarks/bench_serving_capacity.py
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.dse import decompose, dse_pmu_placement  # noqa: E402
from repro.grid import run_ac_power_flow  # noqa: E402
from repro.grid.cases import case118  # noqa: E402
from repro.measurements import full_placement, generate_measurements  # noqa: E402
from repro.serving import (  # noqa: E402
    LoadGenerator,
    ScenarioMix,
    ScenarioService,
    ShardRouter,
)

#: a configuration "sustains" a rate when p99 stays within this SLO and
#: the shed fraction stays at or below 5%
SLO_P99_S = 0.25
SHED_BUDGET = 0.05
RATE_MULTIPLIERS = (0.5, 1.0, 2.0, 4.0)
WINDOW_S = 0.6


def _setup118():
    net = case118()
    pf = run_ac_power_flow(net)
    dec = decompose(net, 9, seed=0)
    rng = np.random.default_rng(0)
    plac = full_placement(net).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net, plac, pf, rng=rng)
    return dec, ms


def _replica(dec, ms):
    # batched frame solves drain on the dispatcher thread; a serial
    # executor keeps the per-replica thread budget at exactly one
    return ScenarioService(
        dec, ms, executor="serial", max_batch=16, flush_latency=2e-3,
        batch_solve=True,
    )


def _probe_throughput(dec, ms, n: int = 32) -> float:
    """Closed-loop single-service frames/s — anchors the rate sweep."""
    with _replica(dec, ms) as svc:
        t0 = time.perf_counter()
        futures = [svc.submit_estimation() for _ in range(n)]
        for fut in futures:
            fut.result(timeout=120)
        return n / (time.perf_counter() - t0)


def _sweep(make_target, mix, rates, *, seed) -> list[dict]:
    rows = []
    for rate in rates:
        n = max(12, int(round(rate * WINDOW_S)))
        target = make_target()
        try:
            report = LoadGenerator(target, mix, seed=seed).run(
                rate=rate, n_requests=n, wait_timeout=300.0
            )
        finally:
            target.close()
        rows.append(report.to_dict())
    return rows


def _capacity(rows: list[dict]) -> float:
    """Highest offered rate sustained within the SLO and shed budget."""
    ok = [
        r["offered_rate"] for r in rows
        if r["latency_p99_s"] <= SLO_P99_S
        and r["shed_rate"] <= SHED_BUDGET
        and r["achieved_rate"] >= 0.8 * r["offered_rate"]
    ]
    return max(ok, default=0.0)


def measure_serving_capacity() -> dict:
    """The full capacity comparison."""
    dec, ms = _setup118()
    mix = ScenarioMix(ms, frame_weight=1.0)
    thru0 = _probe_throughput(dec, ms)
    rates = tuple(round(m * thru0, 1) for m in RATE_MULTIPLIERS)

    configs = {
        "direct": lambda: _replica(dec, ms),
        "router1": lambda: ShardRouter(
            {"s0": _replica(dec, ms)}, grid="ieee118"
        ),
        "router2": lambda: ShardRouter(
            {"s0": _replica(dec, ms), "s1": _replica(dec, ms)},
            grid="ieee118",
        ),
    }
    out: dict = {
        "cores": os.cpu_count(),
        "case": "ieee118",
        "probe_throughput_per_s": thru0,
        "offered_rates_per_s": list(rates),
        "slo_p99_s": SLO_P99_S,
        "shed_budget": SHED_BUDGET,
        "configs": {},
    }
    for name, make in configs.items():
        rows = _sweep(make, mix, rates, seed=8)
        out["configs"][name] = {
            "rows": rows,
            "capacity_per_s": _capacity(rows),
        }

    # routing-layer overhead: the unsaturated (lowest-rate) point
    direct_p50 = out["configs"]["direct"]["rows"][0]["latency_p50_s"]
    router1_p50 = out["configs"]["router1"]["rows"][0]["latency_p50_s"]
    out["router1_overhead"] = {
        "direct_p50_s": direct_p50,
        "router1_p50_s": router1_p50,
        "overhead_frac": (router1_p50 - direct_p50) / direct_p50
        if direct_p50 > 0 else 0.0,
    }
    return out


def main() -> None:
    cap = measure_serving_capacity()
    print(f"probe throughput {cap['probe_throughput_per_s']:.1f} frames/s "
          f"({cap['cores']} cores)")
    for name, rec in cap["configs"].items():
        print(f"  {name:>8}: capacity {rec['capacity_per_s']:.1f}/s")
        for row in rec["rows"]:
            print(f"    offered {row['offered_rate']:7.1f}/s  "
                  f"achieved {row['achieved_rate']:7.1f}/s  "
                  f"p50 {row['latency_p50_s'] * 1e3:6.1f} ms  "
                  f"p99 {row['latency_p99_s'] * 1e3:6.1f} ms  "
                  f"shed {row['shed_rate'] * 100:4.1f}%")
    ov = cap["router1_overhead"]
    print(f"router layer p50 overhead {ov['overhead_frac'] * 100:+.1f}%")


if __name__ == "__main__":
    main()

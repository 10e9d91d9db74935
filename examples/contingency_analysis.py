"""Estimation-fed N-1 contingency analysis: batched DC, pooled AC.

Run with::

    python examples/contingency_analysis.py

Closes the loop the paper's introduction draws: state estimation produces
the real-time snapshot, and contingency analysis — PNNL's original massive
HPC workload (the paper's reference [2]) — consumes it.  The DC N-1 sweep
of the IEEE 118 system is one batched compensation solve; the worst cases
are re-checked with full AC power flows on a two-process pool; static vs
counter-based dynamic load balancing is replayed on a simulated cluster.
"""

import numpy as np

from repro.contingency import (
    ContingencyAnalyzer,
    enumerate_n1,
    run_parallel,
    simulate_parallel_analysis,
)
from repro.cluster import ClusterSpec, ClusterTopology
from repro.estimation import estimate_state
from repro.grid import run_ac_power_flow
from repro.grid.cases import case118
from repro.measurements import full_placement, generate_measurements


def main() -> None:
    net = case118()
    pf = run_ac_power_flow(net)

    # 1. The real-time snapshot comes from the estimator, not an oracle.
    rng = np.random.default_rng(0)
    mset = generate_measurements(net, full_placement(net), pf, rng=rng)
    estimate = estimate_state(net, mset)
    print(f"estimated state: {estimate.iterations} WLS iterations, "
          f"Vm RMSE {estimate.state_error(pf.Vm, pf.Va)['vm_rmse']:.2e}")

    # 2. Enumerate N-1 outages.
    safe, islanding = enumerate_n1(net)
    print(f"N-1 enumeration: {len(safe)} analysable outages, "
          f"{len(islanding)} islanding outages "
          f"({', '.join(c.label for c in islanding)})")

    # 3. Screen against estimated-state-derived ratings.
    analyzer = ContingencyAnalyzer.from_estimate(
        net, estimate, method="dc", rating_margin=1.5
    )
    report = run_parallel(analyzer, safe)
    insecure = [r for r in report.results if not r.secure]
    print(f"\nDC screening of {len(safe)} contingencies in "
          f"{report.makespan * 1e3:.1f} ms (one batched solve)")
    print(f"insecure cases at 1.5x ratings: {len(insecure)}")
    worst = sorted(report.results, key=lambda r: -r.max_loading)[:6]
    print(f"worst loading {worst[0].max_loading:.2f}x after outage of "
          f"branch {worst[0].contingency.label}")

    # 4. Re-check the worst DC cases with AC power flows on a process pool.
    ac = ContingencyAnalyzer.from_estimate(
        net, estimate, method="ac", rating_margin=1.5
    )
    rep_ac = run_parallel(
        ac, [r.contingency for r in worst], executor="processes:2"
    )
    print(f"AC re-check of the {len(worst)} worst in "
          f"{rep_ac.makespan * 1e3:.1f} ms on 2 processes "
          f"(cases/worker {rep_ac.per_worker_cases}): "
          + ", ".join(f"{r.contingency.label} {r.max_loading:.2f}x"
                      for r in rep_ac.results))

    # 5. Static vs dynamic balancing at scale (simulated 32-core cluster).
    rng = np.random.default_rng(1)
    durations = rng.lognormal(-4.0, 1.2, 2000)  # heavy-tailed case times
    topo = ClusterTopology(
        clusters=[ClusterSpec(name="hpc", nodes=4, cores_per_node=8)]
    )
    dyn = simulate_parallel_analysis(durations, topo, scheme="dynamic")
    sta = simulate_parallel_analysis(durations, topo, scheme="static")
    print(f"\n2000 simulated cases on 32 cores: static {sta.makespan:.3f}s, "
          f"dynamic {dyn.makespan:.3f}s "
          f"({sta.makespan / dyn.makespan:.2f}x speedup from the shared "
          f"counter — Chen et al.'s result)")


if __name__ == "__main__":
    main()

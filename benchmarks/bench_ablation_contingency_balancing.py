"""A5 — ablation: counter-based dynamic load balancing for contingency
analysis (the paper's HPC reference, Chen et al. [2]).

The HPC state-estimation code the architecture hosts descends from PNNL's
massive contingency analysis work, whose headline result is that a shared
counter beats static pre-assignment when per-case solve times vary.  We
reproduce that comparison on the simulated testbed with AC-solve-like
lognormal case durations and on real threads with actual DC re-solves of
the IEEE 118 system.
"""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, ClusterTopology
from repro.contingency import (
    ContingencyAnalyzer,
    enumerate_n1,
    run_parallel,
    simulate_parallel_analysis,
)


def test_ablation_counter_balancing_simulated(benchmark):
    rng = np.random.default_rng(0)
    # lognormal case times: most fast, a heavy tail of hard cases
    durations = rng.lognormal(-4.0, 1.2, 1000)
    topo = ClusterTopology(
        clusters=[ClusterSpec(name="hpc", nodes=4, cores_per_node=8)]
    )

    dyn = benchmark(simulate_parallel_analysis, durations, topo, scheme="dynamic")
    sta = simulate_parallel_analysis(durations, topo, scheme="static")

    speedup = sta.makespan / dyn.makespan
    print("\nA5 — counter-based dynamic vs static balancing "
          "(1000 cases, 32 cores, simulated)")
    print(f"  {'static':>8}: makespan {sta.makespan:.4f}s  "
          f"busy-imbalance {sta.imbalance:.3f}")
    print(f"  {'dynamic':>8}: makespan {dyn.makespan:.4f}s  "
          f"busy-imbalance {dyn.imbalance:.3f}")
    print(f"  dynamic speedup: {speedup:.2f}x")

    assert dyn.makespan < sta.makespan
    assert dyn.imbalance < sta.imbalance


def test_ablation_counter_balancing_threads(benchmark, net118):
    analyzer = ContingencyAnalyzer(net118, method="dc", rating_margin=1.3)
    safe, _ = enumerate_n1(net118)

    rep_dyn = benchmark.pedantic(
        run_parallel, args=(analyzer, safe),
        kwargs={"n_workers": 4, "scheme": "dynamic"}, rounds=2, iterations=1,
    )
    rep_sta = run_parallel(analyzer, safe, n_workers=4, scheme="static")

    print("\nA5 — real-thread N-1 sweep of the IEEE 118 system "
          f"({len(safe)} cases, 4 workers)")
    print(f"  dynamic: makespan {rep_dyn.makespan * 1e3:.1f} ms, "
          f"cases/worker {rep_dyn.per_worker_cases}")
    print(f"  static : makespan {rep_sta.makespan * 1e3:.1f} ms, "
          f"cases/worker {rep_sta.per_worker_cases}")
    insecure = sum(1 for r in rep_dyn.results if not r.secure)
    print(f"  insecure contingencies at 1.3x ratings: {insecure}/{len(safe)}")

    assert sum(rep_dyn.per_worker_cases) == len(safe)
    assert sum(rep_sta.per_worker_cases) == len(safe)
    # both finish the sweep well inside a SCADA scan period
    assert rep_dyn.makespan < 4.0

"""A5 — ablation: counter-based dynamic load balancing for contingency
analysis (the paper's HPC reference, Chen et al. [2]).

The HPC state-estimation code the architecture hosts descends from PNNL's
massive contingency analysis work, whose headline result is that a shared
counter beats static pre-assignment when per-case solve times vary.  We
reproduce that comparison on the simulated testbed with AC-solve-like
lognormal case durations.  A real IEEE 118 sweep runs on the drains
``run_parallel`` picks from (``bench_scenario_sweep.measure_sweep_throughput``):
the DC sweep as one batched solve against the per-outage loop, the AC
sweep on a process pool's shared queue (the counter) against the loop.
"""

import numpy as np
import pytest

from bench_scenario_sweep import measure_sweep_throughput
from repro.cluster import ClusterSpec, ClusterTopology
from repro.contingency import simulate_parallel_analysis


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


def test_ablation_real_sweep_drains(benchmark):
    rec = benchmark.pedantic(
        measure_sweep_throughput, kwargs={"repeats": 3}, rounds=1, iterations=1
    )

    print("\nA5 — real N-1 sweeps of the IEEE 118 system (best of 3)")
    print(f"  DC {rec['n_contingencies']} cases: loop "
          f"{rec['serial_time_s'] * 1e3:.1f} ms, batched "
          f"{rec['batch_time_s'] * 1e3:.1f} ms warm / "
          f"{rec['batch_cold_time_s'] * 1e3:.1f} ms cold")
    print(f"  AC {rec['n_ac']} cases: loop "
          f"{rec['ac_serial_time_s'] * 1e3:.1f} ms, "
          f"processes:{rec['ac_pool_workers']} "
          f"{rec['ac_pool_time_s'] * 1e3:.1f} ms")

    assert rec["ac_pool_equal"]
    assert rec["max_abs_dloading"] < 1e-9
    # the warm batch beats the loop it replaces, and every sweep finishes
    # well inside a SCADA scan period
    assert rec["batch_time_s"] < rec["serial_time_s"]
    assert max(rec["serial_time_s"], rec["ac_serial_time_s"]) < 4.0

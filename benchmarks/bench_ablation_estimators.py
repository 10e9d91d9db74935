"""A10 — ablation: estimator variants on the same telemetry.

One table comparing every estimator the library ships — full Newton WLS,
fast-decoupled, Huber, constrained and the two-stage hybrid — on identical
IEEE-118 snapshots: wall time, iterations, accuracy.  This is the menu a control centre picks from when fitting the
paper's 10 ms – 1 s time-to-solution window.
"""

import time

import numpy as np
import pytest

from repro.estimation import (
    constrained_estimate,
    estimate_state,
    fast_decoupled_estimate,
    hybrid_estimate,
    huber_estimate,
)
from repro.measurements import (
    generate_measurements,
    greedy_pmu_sites,
    pmu_placement,
    scada_placement,
)


@pytest.fixture(scope="module")
def telemetry(net118, pf118):
    rng = np.random.default_rng(0)
    scada = generate_measurements(
        net118, scada_placement(net118, flow_fraction=0.8), pf118, rng=rng
    )
    sites = greedy_pmu_sites(net118)
    pmu = generate_measurements(
        net118, pmu_placement(net118, sites), pf118, rng=rng
    )
    return scada, pmu


def test_ablation_estimator_menu(benchmark, telemetry, net118, pf118):
    scada, pmu = telemetry

    variants = {
        "wls": lambda: estimate_state(net118, scada),
        "fast-decoupled": lambda: fast_decoupled_estimate(net118, scada),
        "huber": lambda: huber_estimate(net118, scada),
        "constrained": lambda: constrained_estimate(net118, scada),
        "hybrid (scada+pmu)": lambda: hybrid_estimate(net118, scada, pmu),
    }

    rows = []
    for name, fn in variants.items():
        fn()    # the first call in a process pays imports and BLAS start-up
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            res = fn()
            times.append(time.perf_counter() - t0)
        dt = float(np.median(times))
        err = res.state_error(pf118.Vm, pf118.Va)
        rows.append((name, dt, res.iterations, err["vm_rmse"]))

    print("\nA10 — estimator menu on the IEEE 118 (SCADA 80% flows)")
    print(f"{'estimator':>20} | {'wall (ms)':>9} | {'iters':>5} | {'Vm RMSE':>9}")
    for name, dt, iters, rmse in rows:
        print(f"{name:>20} | {dt * 1e3:9.1f} | {iters:5d} | {rmse:.3e}")

    by = {name: (dt, iters, rmse) for name, dt, iters, rmse in rows}
    # all estimators land within measurement accuracy
    assert all(rmse < 5e-3 for *_, rmse in rows)
    # the decoupled variant trades iterations for cheap factorisations
    assert by["fast-decoupled"][1] >= by["wls"][1]

    benchmark(lambda: estimate_state(net118, scada))

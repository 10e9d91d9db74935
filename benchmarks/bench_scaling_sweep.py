"""A9 — scaling sweep: the architecture as the system grows (section I).

The paper's motivation is growth: more PMUs, more subsystems, more data.
We sweep synthetic interconnections from 10 to 30 balancing authorities
through the full pipeline and track how the distributed Step-1 makespan
scales against the centralized whole-system solve — the crossover the
architecture exists to win.
"""

import time

import numpy as np
import pytest

from repro.cluster import ClusterSpec, ClusterTopology, LinkSpec
from repro.core import ArchitecturePrototype, ClusterMapper, DseSession
from repro.dse import decompose_by_areas, dse_pmu_placement
from repro.estimation import estimate_state
from repro.grid import run_ac_power_flow
from repro.grid.cases import synthetic_grid
from repro.measurements import full_placement, generate_measurements

SWEEP = (10, 20, 30)
BUSES_PER_AREA = 30


def _topology(p=4):
    clusters = [ClusterSpec(name=f"cc{i}", nodes=8, cores_per_node=8)
                for i in range(p)]
    topo = ClusterTopology(clusters=clusters)
    wan = LinkSpec(latency=2e-3, bandwidth=115e6)
    for i in range(p):
        for j in range(i + 1, p):
            topo.add_link(f"cc{i}", f"cc{j}", wan)
    return topo


def _one_point(n_areas: int) -> dict:
    net = synthetic_grid(n_areas=n_areas, buses_per_area=BUSES_PER_AREA,
                         seed=21)
    pf = run_ac_power_flow(net, flat_start=True)
    arch = ArchitecturePrototype.assemble(
        net, m_subsystems=n_areas, topology=_topology(), seed=0
    )
    arch.dec = decompose_by_areas(net)
    arch.mapper = ClusterMapper(arch.topology, seed=0)
    rng = np.random.default_rng(0)
    plac = full_placement(net).merged_with(dse_pmu_placement(arch.dec))
    ms = generate_measurements(net, plac, pf, rng=rng)
    session = DseSession(arch)
    rep = session.process_frame(ms, truth=(pf.Vm, pf.Va))

    # Per-subsystem step-1 durations for the load-insensitive
    # parallelism metric (serial work / parallel makespan).
    from repro.dse import DistributedStateEstimator

    dse = DistributedStateEstimator(arch.dec, ms)
    records = dse.run(rounds=1).records
    step1_times = [r.step1_time for r in records.values()]

    t0 = time.perf_counter()
    estimate_state(net, ms)
    cen = time.perf_counter() - t0
    return {
        "areas": n_areas,
        "buses": net.n_bus,
        "step1": rep.timings.step1,
        "serial_work": sum(step1_times),
        "slowest_subsystem": max(step1_times),
        "total": rep.timings.total,
        "centralized": cen,
        "vm_rmse": rep.vm_rmse_vs_truth,
        "imbalance": rep.imbalance_step1,
    }


def test_scaling_sweep(benchmark):
    rows = [_one_point(n) for n in SWEEP]
    benchmark.pedantic(_one_point, args=(SWEEP[0],), rounds=1, iterations=1)

    print("\nA9 — scaling sweep (4 clusters, 30 buses per balancing authority)")
    print(f"{'areas':>6} | {'buses':>6} | {'step1 (ms)':>10} | "
          f"{'centralized (ms)':>16} | {'parallelism':>11} | {'Vm RMSE':>9}")
    for r in rows:
        par = r["serial_work"] / r["slowest_subsystem"]
        print(f"{r['areas']:6d} | {r['buses']:6d} | {r['step1'] * 1e3:10.1f} | "
              f"{r['centralized'] * 1e3:16.1f} | {par:11.2f} | "
              f"{r['vm_rmse']:.3e}")

    # The architecture's scaling claim: the parallelisable work grows with
    # the system while the critical path (the slowest single subsystem)
    # stays flat — measured load-insensitively as serial-work / slowest-
    # subsystem from the same timing samples.
    parallelism = [r["serial_work"] / r["slowest_subsystem"] for r in rows]
    assert parallelism[-1] > parallelism[0]
    # distributing beats the single-site solve at the largest size (the
    # smaller points are informational; wall-clock noise can blur them)
    assert rows[-1]["step1"] < rows[-1]["centralized"]
    # accuracy holds across the sweep
    assert all(r["vm_rmse"] < 5e-3 for r in rows)
    # mapping stays balanced
    assert all(r["imbalance"] < 1.4 for r in rows)

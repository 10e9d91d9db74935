"""A4 — extension (section VI): the WECC scenario — 37 balancing
authorities running DSE in real time.

The paper's ongoing work deploys DSE across the Western Electricity
Coordinating Council's 37 balancing authorities.  We scale the pipeline to
a synthetic 37-area interconnection, decompose along the balancing
authorities, run a full frame through the architecture, and check that the
simulated distributed Step 1 beats the centralized single-site execution —
the scalability argument motivating the whole system.
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


@pytest.fixture(scope="module")
def wecc_setup():
    net = synthetic_grid(n_areas=37, buses_per_area=40, seed=11)
    pf = run_ac_power_flow(net, flat_start=True)
    clusters = [
        ClusterSpec(name=f"cc{i}", nodes=8, cores_per_node=8) for i in range(6)
    ]
    topo = ClusterTopology(clusters=clusters)
    wan = LinkSpec(latency=5e-3, bandwidth=115e6)
    for i in range(6):
        for j in range(i + 1, 6):
            topo.add_link(f"cc{i}", f"cc{j}", wan)

    arch = ArchitecturePrototype.assemble(net, m_subsystems=37, topology=topo,
                                          seed=0)
    arch.dec = decompose_by_areas(net)
    arch.mapper = ClusterMapper(topo, seed=0)
    rng = np.random.default_rng(0)
    placement = full_placement(net).merged_with(dse_pmu_placement(arch.dec))
    mset = generate_measurements(net, placement, pf, rng=rng)
    return net, pf, arch, mset


def test_wecc_scale_frame(benchmark, wecc_setup):
    net, pf, arch, mset = wecc_setup

    def frame():
        session = DseSession(arch)
        return session.process_frame(mset, truth=(pf.Vm, pf.Va))

    report = benchmark.pedantic(frame, rounds=2, iterations=1)

    t0 = time.perf_counter()
    cen = estimate_state(net, mset)
    cen_wall = time.perf_counter() - t0

    tm = report.timings
    print(f"\nA4 — WECC-scale extension ({net.n_bus} buses, 37 BAs, "
          f"6 clusters)")
    print(f"  step-1 sim makespan   : {tm.step1 * 1e3:8.1f} ms")
    print(f"  exchange sim          : {tm.exchange * 1e3:8.1f} ms")
    print(f"  step-2 sim makespan   : {tm.step2 * 1e3:8.1f} ms")
    print(f"  total sim             : {tm.total * 1e3:8.1f} ms")
    print(f"  centralized (1 site)  : {cen_wall * 1e3:8.1f} ms")
    print(f"  imbalance step1/step2 : {report.imbalance_step1:.3f} / "
          f"{report.imbalance_step2:.3f}")
    print(f"  accuracy Vm RMSE      : dist {report.vm_rmse_vs_truth:.2e} "
          f"vs cen {cen.state_error(pf.Vm, pf.Va)['vm_rmse']:.2e}")

    # Scalability shape: distributing Step 1 (the centralized function the
    # architecture decentralizes) beats the single-site whole-system solve.
    assert tm.step1 < cen_wall
    # Mapping keeps the 37 subsystems balanced over 6 clusters.
    assert report.imbalance_step1 <= 1.3
    # Estimation quality survives the distribution.
    assert report.vm_rmse_vs_truth < 5e-3

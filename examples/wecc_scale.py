"""WECC-scale extension: 37 balancing authorities (paper, section VI).

Run with::

    python examples/wecc_scale.py

The paper's ongoing work targets the Western Electricity Coordinating
Council system with 37 balancing authorities.  This example builds a
synthetic 37-area interconnection, decomposes it along the balancing
authorities, and runs the full architecture pipeline, comparing the
distributed timeline against the centralized alternative.
"""

import time

import numpy as np

from repro.core import ArchitecturePrototype, DseSession
from repro.cluster import ClusterSpec, ClusterTopology, LinkSpec
from repro.dse import decompose_by_areas, dse_pmu_placement
from repro.estimation import estimate_state
from repro.grid import run_ac_power_flow
from repro.grid.cases import synthetic_grid
from repro.measurements import full_placement, generate_measurements


def wecc_topology(p: int = 6) -> ClusterTopology:
    """A larger testbed: p clusters over a WAN."""
    clusters = [
        ClusterSpec(name=f"cc{i}", nodes=8, cores_per_node=8, core_gflops=10.0)
        for i in range(p)
    ]
    topo = ClusterTopology(clusters=clusters)
    wan = LinkSpec(latency=5e-3, bandwidth=115e6)
    for i in range(p):
        for j in range(i + 1, p):
            topo.add_link(f"cc{i}", f"cc{j}", wan)
    return topo


def main() -> None:
    net = synthetic_grid(n_areas=37, buses_per_area=40, seed=11)
    print(f"synthetic WECC-scale system: {net.n_bus} buses, "
          f"{net.n_branch} branches, 37 balancing authorities")
    pf = run_ac_power_flow(net, flat_start=True)
    print(f"power flow converged in {pf.iterations} iterations")

    arch = ArchitecturePrototype.assemble(
        net, m_subsystems=37, topology=wecc_topology(), seed=0
    )
    # Decompose along balancing-authority boundaries instead of the
    # default graph partition.
    arch.dec = decompose_by_areas(net)
    from repro.core import ClusterMapper

    arch.mapper = ClusterMapper(arch.topology, seed=0)

    dec = arch.dec
    print(f"decomposition: {dec.m} subsystems, {len(dec.tie_lines)} tie "
          f"lines, quotient diameter {dec.diameter()}")

    rng = np.random.default_rng(0)
    placement = full_placement(net).merged_with(dse_pmu_placement(dec))
    mset = generate_measurements(net, placement, pf, rng=rng)

    session = DseSession(arch)
    report = session.process_frame(mset, truth=(pf.Vm, pf.Va))

    print(f"\nmapping {dec.m} subsystems onto {arch.mapper.p} control-"
          f"centre clusters; Step-1 imbalance {report.imbalance_step1:.3f}, "
          f"Step-2 imbalance {report.imbalance_step2:.3f}")
    tm = report.timings
    print(f"simulated distributed timeline: step1 {tm.step1 * 1e3:.1f} ms, "
          f"exchange {tm.exchange * 1e3:.1f} ms, "
          f"step2 {tm.step2 * 1e3:.1f} ms, total {tm.total * 1e3:.1f} ms")

    # Centralized comparison: one whole-system WLS on one cluster.
    t0 = time.perf_counter()
    cen = estimate_state(net, mset)
    cen_wall = time.perf_counter() - t0
    cen_sim = session.centralized_sim_time(cen_wall)
    print(f"\ncentralized WLS wall time {cen_wall * 1e3:.1f} ms -> "
          f"simulated single-cluster time {cen_sim * 1e3:.1f} ms")
    print(f"distributed vs centralized (simulated): "
          f"{tm.total * 1e3:.1f} ms vs {cen_sim * 1e3:.1f} ms")
    print(f"accuracy: distributed Vm RMSE {report.vm_rmse_vs_truth:.2e}, "
          f"centralized {cen.state_error(pf.Vm, pf.Va)['vm_rmse']:.2e}")


if __name__ == "__main__":
    main()

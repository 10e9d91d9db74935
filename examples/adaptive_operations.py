"""Operating through disturbances: branch outages and a cluster failure.

Run with::

    python examples/adaptive_operations.py

Processes SCADA frames through the architecture while the world changes
underneath it: a tie line trips (one exchange session disappears), an
internal line trips and strands a bus (the decomposition self-repairs),
and an entire HPC cluster fails (the mapping method re-places its
subsystems on the survivors).  Frames keep flowing throughout.
"""

import numpy as np

from repro.core import (
    ArchitecturePrototype,
    DseSession,
    apply_branch_outage,
    apply_cluster_outage,
)
from repro.dse import dse_pmu_placement
from repro.grid import run_ac_power_flow
from repro.grid.cases import case118
from repro.measurements import full_placement, generate_measurements
from repro.reporting import frame_table, session_summary


def frame_for(arch, rng):
    pf = run_ac_power_flow(arch.net)
    placement = full_placement(arch.net).merged_with(dse_pmu_placement(arch.dec))
    return pf, generate_measurements(arch.net, placement, pf, rng=rng)


def main() -> None:
    rng = np.random.default_rng(0)
    arch = ArchitecturePrototype.assemble(case118(), m_subsystems=9, seed=0)
    session = DseSession(arch)

    # --- normal operation ------------------------------------------
    pf, mset = frame_for(arch, rng)
    session.process_frame(mset, t=0.0, truth=(pf.Vm, pf.Va))

    # --- a tie line trips -------------------------------------------
    tie = int(arch.dec.tie_lines[0])
    rep = apply_branch_outage(arch, tie)
    print(f"t=4s: tie line {tie} tripped "
          f"(tie sessions now {len(arch.dec.tie_lines)}); "
          f"decomposition changed: {rep.decomposition_changed}")
    pf, mset = frame_for(arch, rng)
    session.process_frame(mset, t=4.0, truth=(pf.Vm, pf.Va))

    # --- an internal line strands a fragment -------------------------
    target = None
    from repro.grid.islands import subgraph_components

    for s in range(arch.dec.m):
        for k in arch.dec.internal_branches(s):
            arch.net.br_status[k] = 0
            frags = subgraph_components(
                arch.net.n_bus, arch.net.adjacency_pairs(), arch.dec.buses(s)
            )
            arch.net.br_status[k] = 1
            if len(frags) > 1:
                target = int(k)
                break
        if target is not None:
            break
    rep = apply_branch_outage(arch, target)
    print(f"t=8s: internal line {target} tripped; buses "
          f"{rep.reassigned_buses.tolist()} reassigned to a neighbour "
          f"subsystem; decomposition connected: "
          f"{arch.dec.is_internally_connected()}")
    pf, mset = frame_for(arch, rng)
    session.process_frame(mset, t=8.0, truth=(pf.Vm, pf.Va))

    # --- a whole cluster fails ---------------------------------------
    mapping = arch.mapper.map_step1(arch.dec, 1.0)
    crep = apply_cluster_outage(arch, "chinook", mapping)
    print(f"t=12s: cluster 'chinook' failed; subsystems "
          f"{crep.orphaned_subsystems.tolist()} re-placed onto "
          f"{crep.survivors} (imbalance "
          f"{crep.new_mapping.imbalance:.3f})")
    pf, mset = frame_for(arch, rng)
    session.process_frame(mset, t=12.0, truth=(pf.Vm, pf.Va))

    # --- session report ----------------------------------------------
    print("\n" + frame_table(session.reports))
    summary = session_summary(session.reports)
    print(f"\n{summary['frames']} frames; mean simulated cycle "
          f"{summary['mean_sim_total'] * 1e3:.1f} ms; "
          f"{summary['total_bytes']} bytes exchanged in total")


if __name__ == "__main__":
    main()

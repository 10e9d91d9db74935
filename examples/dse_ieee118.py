"""The paper's scenario: distributed state estimation of the IEEE 118-bus
system on three (simulated) HPC clusters.

Run with::

    python examples/dse_ieee118.py

Reproduces the flow of sections IV-V: decompose into 9 subsystems, build
the weighted decomposition graph (Table I), map onto the Nwiceb /
Catamount / Chinook testbed before Step 1 (Fig. 4) and Step 2 (Fig. 5),
run the two-step DSE and report accuracy plus the simulated distributed
timeline.
"""

import numpy as np

from repro.core import ArchitecturePrototype, DseSession
from repro.dse import dse_pmu_placement, exchange_bus_sets
from repro.estimation import estimate_state
from repro.grid import run_ac_power_flow
from repro.grid.cases import case118
from repro.measurements import full_placement, generate_measurements


def main() -> None:
    net = case118()
    pf = run_ac_power_flow(net)

    # the paper's exact 9-way decomposition sizes (Table I)
    arch = ArchitecturePrototype.assemble(
        net, subsystem_sizes=(14, 13, 13, 13, 13, 12, 14, 13, 13), seed=0
    )
    dec = arch.dec
    print(f"decomposed {net.name} into {dec.m} subsystems "
          f"(sizes {dec.sizes().tolist()}), {len(dec.tie_lines)} tie lines, "
          f"quotient diameter {dec.diameter()}")

    # Table I analogue: initial vertex/edge weights.
    g = dec.quotient_graph()
    pairs, w = g.edge_list()
    print("\ninitial decomposition-graph weights (Table I analogue):")
    print("  vertex weights:", g.vwgt.tolist())
    for (u, v), x in zip(pairs, w):
        print(f"  edge ({u + 1}, {v + 1}): {int(x)}")

    # Measurements: SCADA everywhere + one anchor PMU per subsystem.
    rng = np.random.default_rng(7)
    placement = full_placement(net).merged_with(dse_pmu_placement(dec))
    mset = generate_measurements(net, placement, pf, rng=rng)

    session = DseSession(arch)
    report = session.process_frame(mset, truth=(pf.Vm, pf.Va))

    print(f"\nnoise level x = {report.noise_level:.3f} -> expected "
          f"iterations Ni = {report.expected_iterations:.1f}")
    print(f"mapping before Step 1 (Fig. 4 analogue), "
          f"imbalance {report.imbalance_step1:.3f}:")
    for cluster, subs in report.mapping_step1.items():
        print(f"  {cluster:10s}: subsystems {[s + 1 for s in subs]}")
    print(f"mapping before Step 2 (Fig. 5 analogue), "
          f"imbalance {report.imbalance_step2:.3f}, "
          f"migrated weight {report.migrated_weight}:")
    for cluster, subs in report.mapping_step2.items():
        print(f"  {cluster:10s}: subsystems {[s + 1 for s in subs]}")

    sets = exchange_bus_sets(dec)
    print(f"\nexchange sets (boundary + sensitive internal) sizes: "
          f"{[len(sets[s]) for s in range(dec.m)]}")

    tm = report.timings
    print(f"\nsimulated distributed timeline "
          f"({report.rounds} Step-2 rounds):")
    print(f"  Step 1 compute      : {tm.step1 * 1e3:8.2f} ms")
    print(f"  data redistribution : {tm.redistribution * 1e3:8.2f} ms")
    print(f"  Step 2 exchange     : {tm.exchange * 1e3:8.2f} ms")
    print(f"  Step 2 compute      : {tm.step2 * 1e3:8.2f} ms")
    print(f"  total               : {tm.total * 1e3:8.2f} ms")
    print(f"pseudo-measurement bytes exchanged: {report.bytes_exchanged}")

    # Accuracy vs the centralized estimator.
    cen = estimate_state(net, mset)
    cen_err = cen.state_error(pf.Vm, pf.Va)
    print(f"\naccuracy (RMSE vs truth):")
    print(f"  centralized : Vm {cen_err['vm_rmse']:.2e}  "
          f"Va {cen_err['va_rmse']:.2e}")
    print(f"  distributed : Vm {report.vm_rmse_vs_truth:.2e}  "
          f"Va {report.va_rmse_vs_truth:.2e}")


if __name__ == "__main__":
    main()
